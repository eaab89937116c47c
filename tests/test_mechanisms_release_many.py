"""Batch-release contract: ``release_many`` ≡ sequential ``release``.

The vectorized kernels promise *stream equivalence*: for every mechanism
family, ``release_many(d, n, rng)`` consumes the shared generator exactly
like ``n`` sequential ``release(d, rng)`` calls, so outputs are
bit-identical — including ``release_many(d, 1)[0] == release(d)`` — and
tracing on/off never changes a batch. Observability aggregates a batch
into one ledger event with ``count == n``, composing to the same ε totals
as ``n`` single-release events.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.mechanisms import (
    GaussianMechanism,
    LaplaceMechanism,
    PrivateHistogram,
    RandomizedResponse,
    ReportNoisyMax,
    SmoothSensitivityMedian,
    TreeAggregator,
    VectorLaplaceMechanism,
)
from repro.mechanisms.base import Mechanism, PrivacySpec
from repro.mechanisms.exponential import ExponentialMechanism
from repro.mechanisms.quantile import ExponentialQuantile
from repro.observability import ledger_totals, tracing
from repro.local_privacy import L2SamplingMechanism, LInfSamplingMechanism
from repro.privacy.local import KRandomizedResponse, UnaryEncoding
from repro.testing import AUDIT_FAMILIES, build_audit


def _audit_case(family):
    prepared = build_audit(family, epsilon=1.0, n=3)
    return prepared.mechanism, prepared.pair.a


# Families beyond the audit registry, to cover every mechanism family —
# vectorized kernels and base-class fallbacks alike.
_EXTRA_FAMILIES = {
    "gaussian": lambda: (
        GaussianMechanism(lambda d: float(np.sum(d)), 1.0, 1.0, 1e-6),
        [0.2, 0.5, 0.9],
    ),
    "laplace-vector-query": lambda: (
        LaplaceMechanism(
            lambda d: np.asarray(d, dtype=float).sum(axis=0), 2.0, 1.0
        ),
        [[0.1, 0.2], [0.3, 0.4]],
    ),
    "histogram-laplace": lambda: (
        PrivateHistogram(["a", "b", "c"], 1.0),
        ["a", "a", "b", "c", "c", "c"],
    ),
    "histogram-geometric": lambda: (
        PrivateHistogram(["a", "b", "c"], 1.0, noise="geometric"),
        ["a", "a", "b", "c", "c", "c"],
    ),
    "noisy-max-laplace": lambda: (
        ReportNoisyMax(
            lambda d, u: -abs(sum(d) - u), (0, 1, 2), 1.0, 1.0, noise="laplace"
        ),
        [1, 0, 1],
    ),
    "quantile": lambda: (
        ExponentialQuantile(0.0, 1.0, 0.5, 1.0),
        [0.1, 0.4, 0.6, 0.9],
    ),
    "vector-laplace": lambda: (
        VectorLaplaceMechanism(
            lambda d: np.asarray(d, dtype=float).sum(axis=0), 2, 1.0, 1.0
        ),
        [[0.1, 0.2], [0.3, 0.4]],
    ),
    "tree-aggregator": lambda: (TreeAggregator(8, 1.0), [1.0] * 8),
    "smooth-median": lambda: (
        SmoothSensitivityMedian(0.0, 1.0, 1.0),
        [0.2, 0.4, 0.6, 0.8],
    ),
    "k-randomized-response": lambda: (
        KRandomizedResponse(["x", "y", "z"], 1.0),
        ["y", "x"],
    ),
    "unary-encoding": lambda: (UnaryEncoding(["x", "y", "z"], 1.0), ["z", "z"]),
    "l2-sampling": lambda: (
        L2SamplingMechanism(3, 1.0),
        [[0.6, 0.0, 0.0], [0.0, -0.3, 0.4], [0.0, 0.0, 0.0]],
    ),
    "linf-sampling": lambda: (
        LInfSamplingMechanism(2, 1.0),
        [[1.0, -0.5], [0.25, 0.0]],
    ),
}

# Families added after the seed streams were fixed go last and take the
# next streams, so every earlier family keeps its own.
_APPENDED = ("l2-sampling", "linf-sampling")
FAMILIES = (
    tuple(AUDIT_FAMILIES)
    + tuple(sorted(set(_EXTRA_FAMILIES) - set(_APPENDED)))
    + _APPENDED
)

# Independent spawned seed streams, one per family.
_SEEDS = dict(
    zip(FAMILIES, np.random.SeedSequence(20260806).spawn(len(FAMILIES)))
)


def _build(family):
    if family in _EXTRA_FAMILIES:
        return _EXTRA_FAMILIES[family]()
    return _audit_case(family)


def _as_list(outputs):
    if isinstance(outputs, np.ndarray):
        return outputs.tolist()
    return [o.tolist() if isinstance(o, np.ndarray) else o for o in outputs]


class TestBatchSerialEquivalence:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_batch_equals_sequential_releases(self, family):
        mechanism, dataset = _build(family)
        n = 6
        batch = mechanism.release_many(
            dataset, n, random_state=np.random.default_rng(_SEEDS[family])
        )
        rng = np.random.default_rng(_SEEDS[family])
        serial = [mechanism.release(dataset, random_state=rng) for _ in range(n)]
        assert _as_list(batch) == _as_list(serial)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_batch_leaves_generator_where_serial_does(self, family):
        # Equal outputs are not enough: a kernel that consumes the wrong
        # amount of the stream would shift every later draw.
        mechanism, dataset = _build(family)
        batch_rng = np.random.default_rng(_SEEDS[family])
        mechanism.release_many(dataset, 6, random_state=batch_rng)
        serial_rng = np.random.default_rng(_SEEDS[family])
        for _ in range(6):
            mechanism.release(dataset, random_state=serial_rng)
        assert batch_rng.bit_generator.state == serial_rng.bit_generator.state

    @pytest.mark.parametrize("family", FAMILIES)
    def test_single_draw_matches_release(self, family):
        mechanism, dataset = _build(family)
        one = mechanism.release_many(
            dataset, 1, random_state=np.random.default_rng(_SEEDS[family])
        )[0]
        single = mechanism.release(
            dataset, random_state=np.random.default_rng(_SEEDS[family])
        )
        assert _as_list([one]) == _as_list([single])

    def test_integer_seed_accepted(self):
        mechanism = LaplaceMechanism(lambda d: float(np.sum(d)), 1.0, 1.0)
        batch = mechanism.release_many([1.0, 2.0], 4, random_state=7)
        again = mechanism.release_many([1.0, 2.0], 4, random_state=7)
        assert np.array_equal(batch, again)


class TestBatchTracing:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_tracing_leaves_batch_bit_identical(self, family):
        mechanism, dataset = _build(family)
        n = 5
        baseline = mechanism.release_many(
            dataset, n, random_state=np.random.default_rng(_SEEDS[family])
        )
        with tracing() as tracer:
            traced = mechanism.release_many(
                dataset, n, random_state=np.random.default_rng(_SEEDS[family])
            )
        assert _as_list(traced) == _as_list(baseline)
        # One aggregated event carrying the whole batch.
        (event,) = tracer.events
        assert event.kind == "release"
        assert event.count == n
        assert event.mechanism == type(mechanism).__name__
        assert tracer.metrics.counter("mechanism.releases") == n
        assert [s.name for s in tracer.spans] == [
            f"release_many:{type(mechanism).__name__}"
        ]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_ledger_epsilon_totals_match_serial(self, family):
        mechanism, dataset = _build(family)
        n = 4
        with tracing() as batch_tracer:
            mechanism.release_many(
                dataset, n, random_state=np.random.default_rng(_SEEDS[family])
            )
        rng = np.random.default_rng(_SEEDS[family])
        with tracing() as serial_tracer:
            for _ in range(n):
                mechanism.release(dataset, random_state=rng)
        batch_totals = ledger_totals(batch_tracer.events, kinds=("release",))
        serial_totals = ledger_totals(serial_tracer.events, kinds=("release",))
        assert batch_totals == pytest.approx(serial_totals, rel=1e-12, abs=0.0)
        assert len(batch_tracer.events) == 1
        assert len(serial_tracer.events) == n

    def test_fallback_partial_batch_still_reports_completed_draws(self):
        # Regression: a draw raising mid-batch used to abort release_many
        # before the aggregated event was recorded, so the k draws that
        # DID happen (noise consumed, state mutated) vanished from
        # ledger_totals — an under-count of real releases. The fallback
        # now emits the aggregated event for the completed draws before
        # re-raising.
        class FlakyMechanism(Mechanism):
            def __init__(self, fail_at):
                super().__init__(PrivacySpec(epsilon=0.5))
                self.fail_at = fail_at
                self.calls = 0

            def release(self, dataset, random_state=None):
                self.calls += 1
                if self.calls == self.fail_at:
                    raise RuntimeError("injected mid-batch failure")
                rng = (
                    random_state
                    if isinstance(random_state, np.random.Generator)
                    else np.random.default_rng(random_state)
                )
                return float(rng.uniform())

        mechanism = FlakyMechanism(fail_at=3)
        with tracing() as tracer:
            with pytest.raises(RuntimeError, match="mid-batch"):
                mechanism.release_many(None, 5, random_state=7)
        # Exactly one aggregated event covering the 2 completed draws.
        assert [e.kind for e in tracer.events] == ["release"]
        assert tracer.events[0].count == 2
        assert tracer.events[0].epsilon == 0.5
        assert ledger_totals(tracer.events, kinds=("release",)) == (1.0, 0.0)
        assert tracer.metrics.counter("mechanism.releases") == 2

    def test_fallback_failure_on_first_draw_emits_nothing(self):
        # Nothing was released, so nothing may be recorded — a count=0
        # event would be as wrong as a missing one.
        class ImmediateFailure(Mechanism):
            def __init__(self):
                super().__init__(PrivacySpec(epsilon=1.0))

            def release(self, dataset, random_state=None):
                raise RuntimeError("fails immediately")

        mechanism = ImmediateFailure()
        with tracing() as tracer:
            with pytest.raises(RuntimeError):
                mechanism.release_many(None, 4, random_state=0)
        assert tracer.events == []
        assert tracer.metrics.counter("mechanism.releases") == 0

    def test_fallback_loop_emits_no_per_draw_events(self):
        # SmoothSensitivityMedian has no vectorized kernel: the base-class
        # fallback loops the *untraced* release, so even a looped batch
        # records exactly one aggregated event.
        mechanism, dataset = _EXTRA_FAMILIES["smooth-median"]()
        assert type(mechanism)._release_many is Mechanism._release_many
        with tracing() as tracer:
            mechanism.release_many(dataset, 3, random_state=0)
        assert len(tracer.events) == 1
        assert tracer.events[0].count == 3
        assert tracer.metrics.counter("mechanism.releases") == 3


class TestBatchValidationAndState:
    @pytest.mark.parametrize("bad_n", [0, -1, 2.5, "3", True])
    def test_invalid_n_rejected(self, bad_n):
        mechanism = LaplaceMechanism(lambda d: float(np.sum(d)), 1.0, 1.0)
        with pytest.raises(ValidationError):
            mechanism.release_many([1.0], bad_n, random_state=0)

    @pytest.mark.parametrize("noise", ["laplace", "geometric"])
    def test_histogram_noisy_counts_is_last_batch_row(self, noise):
        mechanism = PrivateHistogram(["a", "b"], 1.0, noise=noise)
        batch = mechanism.release_many(["a", "b", "b"], 5, random_state=3)
        assert np.array_equal(mechanism.noisy_counts, batch[-1])

    def test_quantile_batch_handles_duplicate_values(self):
        # Duplicates create zero-length intervals (probability exactly 0);
        # the searchsorted inversion must never select them.
        mechanism = ExponentialQuantile(0.0, 1.0, 0.5, 1.0)
        values = [0.3, 0.3, 0.3, 0.8]
        batch = mechanism.release_many(values, 64, random_state=11)
        rng = np.random.default_rng(11)
        serial = [mechanism.release(values, random_state=rng) for _ in range(64)]
        assert np.array_equal(batch, np.asarray(serial))

    def test_custom_subclass_uses_fallback(self):
        class CoinMechanism(Mechanism):
            def __init__(self):
                super().__init__(PrivacySpec(epsilon=1.0))

            def release(self, dataset, random_state=None):
                rng = np.random.default_rng(random_state) if not isinstance(
                    random_state, np.random.Generator
                ) else random_state
                return int(rng.integers(0, 2))

        mechanism = CoinMechanism()
        batch = mechanism.release_many(None, 8, random_state=5)
        rng = np.random.default_rng(5)
        serial = [mechanism.release(None, random_state=rng) for _ in range(8)]
        assert batch == serial


class TestOverflowRegressions:
    def test_randomized_response_large_epsilon_is_finite(self):
        # exp(ε)/(1+exp(ε)) overflowed to nan past ε ≈ 709, silently
        # flipping *every* bit; the stable sigmoid saturates at 1.0.
        mechanism = RandomizedResponse(800.0)
        assert mechanism.truth_probability == 1.0
        bits = [0, 1, 1, 0]
        assert mechanism.release(bits, random_state=0).tolist() == bits
        batch = mechanism.release_many(bits, 3, random_state=0)
        assert np.array_equal(batch, np.tile(bits, (3, 1)))
        assert mechanism.estimate_proportion(bits) == pytest.approx(0.5)

    def test_randomized_response_matches_unstable_form_at_moderate_eps(self):
        for epsilon in (0.1, 1.0, 5.0, 30.0):
            mechanism = RandomizedResponse(epsilon)
            expected = float(np.exp(epsilon) / (1.0 + np.exp(epsilon)))
            assert mechanism.truth_probability == pytest.approx(
                expected, rel=0, abs=1e-15
            )

    def test_exponential_mechanism_extreme_utilities_no_nan(self):
        # Huge ε·Δq score magnitudes: the log-sum-exp tilt must yield a
        # valid distribution that puts (essentially) all mass on the best
        # candidate, never nan.
        mechanism = ExponentialMechanism(
            lambda d, u: {0: -1e6, 1: 0.0, 2: -5e5, 3: -1e6}[u],
            outputs=range(4),
            sensitivity=1.0,
            epsilon=2000.0,
        )
        probabilities = mechanism.output_distribution([0]).probabilities
        assert np.isfinite(probabilities).all()
        assert probabilities.sum() == pytest.approx(1.0)
        assert probabilities[1] == pytest.approx(1.0)
        assert mechanism.release([0], random_state=0) == 1
        assert mechanism.release_many([0], 4, random_state=0) == [1, 1, 1, 1]

    def test_exponential_mechanism_rejects_non_finite_scores(self):
        mechanism = ExponentialMechanism(
            lambda d, u: float("inf") if u else 0.0,
            outputs=(0, 1),
            sensitivity=1.0,
            epsilon=1.0,
        )
        with pytest.raises(ValidationError):
            mechanism.release([0], random_state=0)
