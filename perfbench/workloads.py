"""The three workloads, driven through ``repro``'s public functions only.

Each workload is built once from the seed (:meth:`build`, the set-up
that ``setup_s`` times) and then run as many passes as the run length
allows (:meth:`run_pass`). A pass returns a digest of everything the
program produced plus the list of correctness problems it found; the
worker compares digests across passes and between traced and untraced
passes.

- ``reproduce``: every registered experiment through
  ``BenchmarkEngine(workers=1)`` with the cache off.
- ``audit``: ``run_audit`` for every audit family at the nightly size,
  plus the exact Gibbs enumeration, as ``repro audit`` runs them.
- ``serve``: a closed-loop ``run_loadtest`` on the simulated clock in
  which half the requests are refused once the budgets run out.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from layers import AUDIT_FAMILY_NAMES
from spans import wrap

#: Configurations of the 19 experiments; a pass that runs fewer is wrong,
#: however fast.
CONFIGURATIONS = 107

#: ``repro audit`` settings of the nightly statistical tier.
AUDIT_SAMPLES = 50_000
AUDIT_EPSILON = 1.0
AUDIT_N = 3

#: The serve traffic: 20 000 clients x 4 requests over 8 tenants x 4
#: shards; a 250 ε budget at 0.05 ε per release admits exactly 5 000
#: requests per tenant, so 40 000 of the 80 000 are refused.
SERVE_SPEC = dict(
    loadtest_id="perfbench", clients=20_000, requests_per_client=4,
    tenants=8, shards=4, mechanism="laplace", epsilon=0.05,
    budget_epsilon=250.0,
)
SERVE_ADMITTED = 8 * 5_000


@dataclass
class PassResult:
    """What one pass produced."""

    digest: str
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


class Reproduce:
    """All registered experiments, serially, with the result cache off."""

    items = "configurations"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def build(self) -> None:
        from repro.experiments import BenchmarkEngine, load_bench_spec
        from repro.experiments.registry import EXPERIMENTS
        from repro.testing.statistical import derive_seed

        self.engine = BenchmarkEngine(workers=1, cache=None)
        self.plan = []
        self.seed_free = []
        for experiment in EXPERIMENTS:
            spec = load_bench_spec(experiment)
            if spec.seed_param is None:
                self.seed_free.append(experiment.id)
            else:
                seed = derive_seed(experiment.id, base_seed=self.seed) % 2**32
                spec = dataclasses.replace(
                    spec, fixed={**spec.fixed, spec.seed_param: seed})
            self.plan.append((experiment, spec))

    def run_pass(self, recorder=None) -> PassResult:
        rows, problems, attempted, failed = [], [], 0, 0
        for experiment, spec in self.plan:
            if recorder is not None:
                spec = dataclasses.replace(
                    spec, case=wrap(recorder, spec.case, "case", "case"))
            manifest = self.engine.run_experiment(experiment, spec)
            for record in manifest.records:
                attempted += 1
                if not record.ok:
                    failed += 1
                    problems.append(
                        f"{experiment.id} {record.parameters}: {record.error}")
                rows.append([experiment.id, record.parameters, record.outputs])
        if attempted != CONFIGURATIONS:
            problems.append(
                f"{attempted} configurations ran, expected {CONFIGURATIONS}")
        return PassResult(_digest(rows), attempted, failed, problems,
                          {"seed_free": self.seed_free})


class Audit:
    """Every statistical audit family plus the exact Gibbs enumeration."""

    items = "audits"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def build(self) -> None:
        from repro.privacy import ExactPrivacyAuditor
        from repro.testing import AUDIT_FAMILIES, build_audit

        self.prepared = [
            build_audit(family, epsilon=AUDIT_EPSILON, n=AUDIT_N)
            for family in AUDIT_FAMILIES
        ]
        gibbs = build_audit("gibbs", epsilon=AUDIT_EPSILON, n=AUDIT_N)
        self.exact = (ExactPrivacyAuditor(gibbs.mechanism.output_distribution),
                      gibbs.epsilon)

    def run_pass(self, recorder=None) -> PassResult:
        from repro.testing import run_audit
        from repro.testing.statistical import derive_seed

        rows, problems, failed = [], [], 0
        names = tuple(prepared.name for prepared in self.prepared)
        if names != AUDIT_FAMILY_NAMES:
            problems.append(f"audit families {names}, expected "
                            f"{AUDIT_FAMILY_NAMES}")
        for prepared in self.prepared:
            try:
                report = run_audit(
                    prepared, n_samples=AUDIT_SAMPLES,
                    random_state=derive_seed(prepared.name, base_seed=self.seed))
            except Exception as error:  # one family failing is one failure
                failed += 1
                problems.append(f"audit {prepared.name} raised {error!r}")
                continue
            rows.append(report.to_dict())
            if not report.satisfied:
                problems.append(f"audit {prepared.name} not satisfied: "
                                f"{report.epsilon_lower_bound} > "
                                f"{report.claimed_epsilon}")
        auditor, claimed = self.exact
        exact = auditor.audit([0, 1], AUDIT_N, claimed_epsilon=claimed)
        rows.append(["gibbs-exact", exact.measured_epsilon, exact.satisfied,
                     exact.pairs_checked])
        if not exact.satisfied:
            problems.append(f"exact Gibbs audit not satisfied: "
                            f"{exact.measured_epsilon} > {claimed}")
        return PassResult(_digest(rows), len(self.prepared) + 1, failed,
                          problems)


class Serve:
    """A closed-loop load test on the simulated clock."""

    items = "requests"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def build(self) -> None:
        from repro.serving.loadtest import LoadTestSpec

        self.spec = LoadTestSpec(seed=self.seed, **SERVE_SPEC)

    def run_pass(self, recorder=None) -> PassResult:
        from repro.serving.loadtest import deterministic_view, run_loadtest

        report = run_loadtest(self.spec)
        deterministic = deterministic_view(report)["deterministic"]
        outcomes = deterministic["outcomes"]
        requests = deterministic["requests"]
        expected = self.spec.clients * self.spec.requests_per_client
        ok, refused = outcomes.get("ok", 0), outcomes.get("refused", 0)
        problems = []
        if requests != expected:
            problems.append(f"{requests} requests resolved, {expected} sent")
        if ok + refused != requests:
            problems.append(f"ok {ok} + refused {refused} != {requests}")
        if ok != SERVE_ADMITTED:
            problems.append(f"{ok} admitted, budgets allow {SERVE_ADMITTED}")
        for tenant in deterministic["tenants"]:
            if tenant["over_spend"]:
                problems.append(f"{tenant['tenant_id']} over-spent")
        return PassResult(
            _digest(deterministic), requests, requests - ok - refused,
            problems, {"flushes": deterministic["serving"]["flushes"]})


WORKLOADS = {"reproduce": Reproduce, "audit": Audit, "serve": Serve}
