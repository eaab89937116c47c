"""Which public ``repro`` functions the traced run wraps, and the metrics.

Each layer is a ``repro`` subpackage. :func:`install` wraps the public
entry points of every layer (the table in ``perfbench/README.md``) with
spans and exact counters; :func:`layer_metrics` turns one traced pass
into the per-layer metrics named in ``BENCHMARK.json``. A layer's self
time is the time its spans cover minus the time of their child spans,
so self times of all layers add up to the traced pass.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

from spans import Patches, SpanRecorder, wrap, wrap_async

#: Audit families, in ``repro.testing.AUDIT_FAMILIES`` order.
AUDIT_FAMILY_NAMES = (
    "laplace", "geometric", "exponential", "exponential-paper",
    "randomized-response", "noisy-max", "sparse-vector", "gibbs",
    "langevin", "local", "local-sampling",
)
EXPERIMENT_IDS = tuple(f"E{number}" for number in range(1, 20))

#: Layers whose self time is subtracted from a serve pass for
#: ``serving.service.residual_s``.
_SERVE_ACCOUNTED = ("serving.tenants", "mechanisms", "serving.clock",
                    "observability")


def per_layer_names() -> list[str]:
    """Every per-layer metric, in the order ``BENCHMARK.json`` lists them."""
    names = ["setup.import_s", "setup.build_s"]
    names += [f"experiments.{eid}_s" for eid in EXPERIMENT_IDS]
    names += ["experiments.overhead_s",
              "learning.risk_calls", "learning.loss_evals", "learning.self_s",
              "core.self_s",
              "information.ba_iterations", "information.self_s",
              "private_learning.self_s",
              "distributions.chain_steps", "distributions.accept_share",
              "distributions.self_s",
              "mechanisms.release_many_calls", "mechanisms.draws",
              "mechanisms.draws_per_call", "mechanisms.self_s",
              "privacy.records", "privacy.self_s",
              "local_privacy.records", "local_privacy.self_s"]
    names += [f"testing.{family}_s" for family in AUDIT_FAMILY_NAMES]
    names += ["testing.exact_gibbs_s", "testing.self_s",
              "serving.tenants.admitted", "serving.tenants.refused",
              "serving.tenants.shard_probes",
              "serving.tenants.probes_per_request",
              "serving.tenants.admit_self_s", "serving.tenants.refuse_self_s",
              "serving.service.flushes", "serving.service.requests_per_flush",
              "serving.service.wait_p50_ms", "serving.service.wait_p99_ms",
              "serving.service.residual_s",
              "serving.clock.advances", "serving.clock.self_s",
              "observability.calls", "observability.self_s",
              "trace.overhead_share"]
    return names


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, derived from its name."""
    units = {}
    for name in per_layer_names():
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_ms"):
            units[name] = "ms"
        elif name.endswith(("_share", "per_request", "per_call", "per_flush")):
            units[name] = "ratio"
        else:
            units[name] = "count"
    return units


def _arg(args, kwargs, position, keyword, default=None):
    """Argument ``keyword`` of a call, passed by position or by name."""
    if len(args) > position:
        return args[position]
    return kwargs.get(keyword, default)


def _count(key, amount):
    """A hook adding ``amount(args, kwargs, result)`` to counter ``key``."""
    def hook(recorder, index, args, kwargs, result):
        recorder.counts[key] += amount(args, kwargs, result)
    return hook


def _langevin_hook(recorder, index, args, kwargs, result):
    steps = _arg(args, kwargs, 1, "n_chains") * _arg(args, kwargs, 2, "steps", 100)
    recorder.counts["distributions.chain_steps"] += steps
    recorder.counts["distributions.accepted"] += result.acceptance_rate * steps


def _metropolis_hook(recorder, index, args, kwargs, result):
    steps = (_arg(args, kwargs, 3, "burn_in", 500)
             + _arg(args, kwargs, 1, "n_samples") * _arg(args, kwargs, 4, "thin", 1))
    recorder.counts["distributions.chain_steps"] += steps
    recorder.counts["distributions.accepted"] += result.acceptance_rate * steps


def _kernel_layer(args, kwargs):
    """Layer of a mechanism call: the local-model packages own their kernels."""
    module = type(args[0]).__module__
    for layer in ("privacy", "local_privacy"):
        if module.startswith(f"repro.{layer}."):
            return layer
    return "mechanisms"


def _count_records(recorder, args, kwargs, releases):
    """Add the records a local mechanism privatized in ``releases`` calls."""
    layer = _kernel_layer(args, kwargs)
    if layer != "mechanisms":
        dataset = _arg(args, kwargs, 1, "dataset")
        recorder.counts[f"{layer}.records"] += releases * len(dataset)


def _release_many_hook(recorder, index, args, kwargs, result):
    n = int(_arg(args, kwargs, 2, "n"))
    recorder.counts["mechanisms.release_many_calls"] += 1
    recorder.counts["mechanisms.batch_draws"] += n
    _count_records(recorder, args, kwargs, n)


def _release_hook(recorder, index, args, kwargs, result):
    # A release nested in a release_many is already one of its n draws.
    parent = recorder.parent_name(index)
    if parent is None or not parent.startswith("release_many"):
        recorder.counts["mechanisms.single_draws"] += 1
        _count_records(recorder, args, kwargs, 1)


def _privatize_many_hook(recorder, index, args, kwargs, result):
    recorder.counts[f"{_kernel_layer(args, kwargs)}.records"] += len(result)


async def _submit_hook(recorder, args, kwargs, call):
    """Virtual seconds from submit to outcome, for admitted requests.

    A refused request raises out of ``call`` and leaves no sample.
    """
    clock = args[0].clock
    started = clock.now()
    result = await call()
    recorder.samples["serving.service.wait"].append(clock.now() - started)
    return result


def install(recorder: SpanRecorder) -> Patches:
    """Wrap every layer's public entry points; returns the undo handle."""
    from repro.core import GibbsEstimator, GibbsPosterior
    from repro.core.tradeoff import minimize_tradeoff, tradeoff_curve
    from repro.distributions.sampling import (
        BatchedLangevinSampler,
        MetropolisHastingsSampler,
    )
    from repro.experiments import BenchmarkEngine
    from repro.information.blahut_arimoto import channel_capacity, rate_distortion
    from repro.information.divergences import kl_divergence
    from repro.learning import PredictorGrid
    from repro.mechanisms import Mechanism, PrivacyAccountant
    from repro.observability import Tracer
    from repro.privacy import ExactPrivacyAuditor
    from repro.privacy.local import LocalMechanism
    from repro.private_learning.density import (
        GibbsDensityEstimator,
        LaplaceHistogramDensity,
    )
    from repro.private_learning.exponential_learner import (
        ExponentialMechanismLearner,
    )
    from repro.private_learning.langevin import GibbsERMClassifier
    from repro.private_learning.perturbation import (
        ObjectivePerturbationClassifier,
        OutputPerturbationClassifier,
    )
    from repro.private_learning.regression import (
        GibbsRidgeRegression,
        SufficientStatisticsRidge,
    )
    from repro.serving.clock import SimulatedClock
    from repro.serving.service import ReleaseService
    from repro.serving.tenants import ShardedAccountant
    from repro.testing.audit import audit_mechanism, estimate_epsilon_lower_bound
    from repro.testing.registry import run_audit

    patches = Patches()

    def spans_of(layer, name=None, hook=None):
        return lambda original: wrap(recorder, original, layer, name, hook)

    patches.method(BenchmarkEngine, "run_experiment", spans_of(
        "experiments", lambda args, kwargs: f"experiment:{args[1].id}"))

    patches.method(PredictorGrid, "empirical_risks", spans_of(
        "learning", hook=_count("learning.risk_calls", lambda a, k, r: 1)))
    patches.method(PredictorGrid, "losses_on", spans_of(
        "learning", hook=_count("learning.loss_evals", lambda a, k, r: len(r))))

    for function in (minimize_tradeoff, tradeoff_curve):
        patches.function(function, spans_of("core"))
    for method in ("posterior", "log_partition", "free_energy",
                   "expected_empirical_risk"):
        patches.method(GibbsPosterior, method, spans_of("core"))
    patches.method(GibbsEstimator, "output_distribution", spans_of("core"))

    iterations = _count("information.ba_iterations", lambda a, k, r: r.iterations)
    for function in (channel_capacity, rate_distortion):
        patches.function(function, spans_of("information", hook=iterations))
    patches.function(kl_divergence, spans_of("information"))

    for cls in (GibbsDensityEstimator, LaplaceHistogramDensity,
                ExponentialMechanismLearner, GibbsERMClassifier,
                GibbsRidgeRegression, SufficientStatisticsRidge,
                OutputPerturbationClassifier, ObjectivePerturbationClassifier):
        patches.method(cls, "fit", spans_of("private_learning"))

    patches.method(BatchedLangevinSampler, "run",
                   spans_of("distributions", hook=_langevin_hook))
    patches.method(MetropolisHastingsSampler, "run",
                   spans_of("distributions", hook=_metropolis_hook))

    # Releases of a local-model mechanism (k-RR, unary encoding, the DJW
    # sampling channels) run that package's kernel, so they are spans of
    # its layer; the mechanisms.* counts still cover every call.
    patches.method(Mechanism, "release_many", spans_of(
        _kernel_layer, "release_many", _release_many_hook))
    patches.method(Mechanism, "release",
                   spans_of(_kernel_layer, "release", _release_hook))
    patches.method(LocalMechanism, "privatize_many", spans_of(
        _kernel_layer, "privatize_many", _privatize_many_hook))

    patches.function(run_audit, spans_of(
        "testing", lambda args, kwargs: f"audit:{args[0].name}"))
    patches.function(audit_mechanism, spans_of("testing"))
    patches.function(estimate_epsilon_lower_bound, spans_of("testing"))
    patches.method(ExactPrivacyAuditor, "audit",
                   spans_of("testing", "exact_gibbs"))

    patches.method(ShardedAccountant, "charge",
                   spans_of("serving.tenants", "charge"))
    patches.method(PrivacyAccountant, "try_charge",
                   spans_of("serving.tenants", "try_charge"))
    patches.method(ReleaseService, "submit",
                   lambda original: wrap_async(recorder, original, _submit_hook))
    patches.method(SimulatedClock, "advance_to_next",
                   spans_of("serving.clock", "advance_to_next"))
    for method in ("count", "observe", "record"):
        patches.method(Tracer, method, spans_of("observability"))
    return patches


def _quantile(values, q):
    """Nearest-rank quantile of ``values`` (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(recorder: SpanRecorder, root: int, flushes: int) -> dict:
    """Per-layer metrics of one traced pass whose root span is ``root``.

    ``flushes`` is the serve report's flush count (0 on other workloads).
    Times are wall seconds; ``setup.*`` and ``trace.overhead_share`` are
    left at 0 for the caller to fill in.
    """
    layer_self: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    name_calls: Counter = Counter()
    layer_calls: Counter = Counter()
    charges = {"admit": [0, 0.0], "refuse": [0, 0.0]}
    probes = 0
    for index, self_time in enumerate(recorder.self_times()):
        name = recorder.name_of(index)
        layer = recorder.layers[recorder.name_id[index]]
        layer_self[layer] += self_time
        inclusive[name] += recorder.end[index] - recorder.start[index]
        name_calls[name] += 1
        layer_calls[layer] += 1
        if name == "charge":
            outcome = "refuse" if recorder.raised[index] else "admit"
            charges[outcome][0] += 1
            charges[outcome][1] += self_time
        elif name == "try_charge" and recorder.parent_name(index) == "charge":
            probes += 1
            parent = recorder.parent[index]
            outcome = "refuse" if recorder.raised[parent] else "admit"
            charges[outcome][1] += self_time

    counts = recorder.counts
    pass_seconds = recorder.end[root] - recorder.start[root]
    metrics = {name: 0.0 for name in per_layer_names()}
    for eid in EXPERIMENT_IDS:
        metrics[f"experiments.{eid}_s"] = inclusive[f"experiment:{eid}"]
    for family in AUDIT_FAMILY_NAMES:
        metrics[f"testing.{family}_s"] = inclusive[f"audit:{family}"]
    metrics["testing.exact_gibbs_s"] = inclusive["exact_gibbs"]
    for layer in ("experiments", "learning", "core", "information",
                  "private_learning", "distributions", "mechanisms",
                  "privacy", "local_privacy", "testing", "serving.clock",
                  "observability"):
        key = ("experiments.overhead_s" if layer == "experiments"
               else f"{layer}.self_s")
        metrics[key] = layer_self[layer]
    for key in ("learning.risk_calls", "learning.loss_evals",
                "information.ba_iterations", "distributions.chain_steps",
                "mechanisms.release_many_calls", "privacy.records",
                "local_privacy.records"):
        metrics[key] = counts[key]
    steps = counts["distributions.chain_steps"]
    metrics["distributions.accept_share"] = (
        counts["distributions.accepted"] / steps if steps else 0.0)
    calls = counts["mechanisms.release_many_calls"]
    batch = counts["mechanisms.batch_draws"]
    metrics["mechanisms.draws"] = batch + counts["mechanisms.single_draws"]
    metrics["mechanisms.draws_per_call"] = batch / calls if calls else 0.0

    admitted, refused = charges["admit"][0], charges["refuse"][0]
    metrics["serving.tenants.admitted"] = admitted
    metrics["serving.tenants.refused"] = refused
    metrics["serving.tenants.shard_probes"] = probes
    metrics["serving.tenants.probes_per_request"] = (
        probes / (admitted + refused) if admitted + refused else 0.0)
    metrics["serving.tenants.admit_self_s"] = charges["admit"][1]
    metrics["serving.tenants.refuse_self_s"] = charges["refuse"][1]
    metrics["serving.service.flushes"] = flushes
    metrics["serving.service.requests_per_flush"] = (
        admitted / flushes if flushes else 0.0)
    waits = recorder.samples["serving.service.wait"]
    metrics["serving.service.wait_p50_ms"] = 1000.0 * _quantile(waits, 0.50)
    metrics["serving.service.wait_p99_ms"] = 1000.0 * _quantile(waits, 0.99)
    if admitted + refused:
        metrics["serving.service.residual_s"] = pass_seconds - sum(
            layer_self[layer] for layer in _SERVE_ACCOUNTED)
    metrics["serving.clock.advances"] = name_calls["advance_to_next"]
    metrics["observability.calls"] = layer_calls["observability"]
    return metrics
