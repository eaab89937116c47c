"""Tier-2 statistical audits: every mechanism's claimed ε, empirically.

Each test draws from a mechanism on a worst-case neighbouring pair and
certifies a Clopper–Pearson lower bound on the realized privacy loss; a
bound above the claimed ε fails the build. Seeds are derived from stable
names (see ``repro.testing.statistical``), so the whole module is
deterministic run-over-run. The final tests sabotage mechanisms on
purpose and demand that the harness *fails* them — no green suite without
teeth.
"""

from __future__ import annotations

import pytest

from repro.exceptions import DPAuditError
from repro.privacy import ExactPrivacyAuditor
from repro.testing import (
    AUDIT_FAMILIES,
    assert_dp,
    bit_flip_pair,
    build_audit,
    run_audit,
)

pytestmark = pytest.mark.statistical

EPSILON = 1.0
N = 3
SAMPLES = 8_000


def _assert_family(family: str, **build_options):
    prepared = build_audit(family, epsilon=EPSILON, n=N, **build_options)
    return assert_dp(
        prepared.mechanism,
        prepared.pair,
        epsilon=prepared.epsilon,
        name=prepared.name,
        kind=prepared.kind,
        sampler=prepared.sampler,
        output_key=prepared.output_key,
        n_samples=SAMPLES,
    )


class TestMechanismsHonourClaimedEpsilon:
    @pytest.mark.parametrize("family", AUDIT_FAMILIES)
    def test_family_within_claim(self, family):
        report = _assert_family(family)
        assert report.satisfied
        assert report.epsilon_lower_bound <= report.claimed_epsilon

    @pytest.mark.parametrize(
        "family", ["laplace", "randomized-response", "local"]
    )
    def test_saturating_families_come_close(self, family):
        """RR and Laplace saturate ε; the certified bound should not be
        vacuous (a harness that always reports 0 would pass everything)."""
        report = _assert_family(family)
        assert report.epsilon_lower_bound > 0.5 * EPSILON

    def test_larger_epsilon_still_honoured(self):
        prepared = build_audit("laplace", epsilon=2.0, n=N)
        report = assert_dp(
            prepared.mechanism,
            prepared.pair,
            epsilon=prepared.epsilon,
            name="laplace-eps2",
            kind=prepared.kind,
            sampler=prepared.sampler,
            n_samples=SAMPLES,
        )
        assert report.satisfied


class TestGibbsTheorem41:
    """Theorem 4.1 as an executable claim: statistical vs exact audits."""

    def test_statistical_bound_below_exact_epsilon(self):
        prepared = build_audit("gibbs", epsilon=EPSILON, n=N)
        statistical = run_audit(
            prepared, n_samples=SAMPLES, random_state=20120330
        )
        exact = ExactPrivacyAuditor(
            prepared.mechanism.output_distribution
        ).audit([0, 1], N, claimed_epsilon=prepared.epsilon)
        # The certified lower bound can never exceed the true worst-case
        # loss, which the enumeration audit computes exactly.
        assert statistical.epsilon_lower_bound <= exact.measured_epsilon + 1e-9
        assert exact.satisfied

    def test_gibbs_audit_fails_when_temperature_inflated(self):
        prepared = build_audit("gibbs", epsilon=EPSILON, n=N, noise_scale=0.2)
        with pytest.raises(DPAuditError):
            assert_dp(
                prepared.mechanism,
                prepared.pair,
                epsilon=EPSILON,
                name=prepared.name,
                kind=prepared.kind,
                sampler=prepared.sampler,
                n_samples=SAMPLES,
            )


class TestHarnessHasTeeth:
    """Deliberately broken mechanisms must fail their audits."""

    def test_laplace_with_halved_scale_fails(self):
        prepared = build_audit("laplace", epsilon=EPSILON, n=N, noise_scale=0.5)
        with pytest.raises(DPAuditError) as excinfo:
            assert_dp(
                prepared.mechanism,
                prepared.pair,
                epsilon=EPSILON,
                name=prepared.name,
                kind=prepared.kind,
                sampler=prepared.sampler,
                n_samples=SAMPLES,
            )
        report = excinfo.value.report
        assert report.epsilon_lower_bound > EPSILON

    def test_broken_randomized_response_fails(self):
        prepared = build_audit(
            "randomized-response", epsilon=EPSILON, n=1, noise_scale=0.4
        )
        with pytest.raises(DPAuditError):
            assert_dp(
                prepared.mechanism,
                prepared.pair,
                epsilon=EPSILON,
                name=prepared.name,
                kind=prepared.kind,
                output_key=prepared.output_key,
                n_samples=SAMPLES,
            )

    def test_sparse_vector_with_shrunk_noise_fails(self):
        prepared = build_audit(
            "sparse-vector", epsilon=EPSILON, n=N, noise_scale=0.02
        )
        with pytest.raises(DPAuditError):
            assert_dp(
                prepared.mechanism,
                prepared.pair,
                epsilon=EPSILON,
                name=prepared.name,
                kind=prepared.kind,
                output_key=prepared.output_key,
                n_samples=SAMPLES,
            )

    def test_boosted_local_channel_fails(self):
        """A k-RR report more truthful than ε allows must be rejected —
        the per-record guarantee gives the audit a sharp target."""
        prepared = build_audit("local", epsilon=EPSILON, n=1, noise_scale=0.4)
        with pytest.raises(DPAuditError):
            assert_dp(
                prepared.mechanism,
                prepared.pair,
                epsilon=EPSILON,
                name=prepared.name,
                kind=prepared.kind,
                output_key=prepared.output_key,
                n_samples=SAMPLES,
            )

    def test_nonprivate_release_fails_loudly(self):
        """A mechanism that releases the raw query is caught immediately."""
        prepared = build_audit("laplace", epsilon=EPSILON, n=N)

        def no_noise_sampler(dataset, size, rng):
            return [float(sum(dataset))] * size

        with pytest.raises(DPAuditError) as excinfo:
            assert_dp(
                prepared.mechanism,
                prepared.pair,
                epsilon=EPSILON,
                name="laplace-no-noise",
                kind="discrete",
                sampler=no_noise_sampler,
                n_samples=SAMPLES,
            )
        assert excinfo.value.report.epsilon_lower_bound > 3.0


@pytest.mark.statistical(retries=2)
def test_marker_rerun_reseeds_deterministically(statistical_rng, statistical_policy):
    """The plugin's rerun budget reseeds `statistical_rng` per attempt.

    This test is statistically trivial — it asserts the fixture wiring:
    the derived stream exists, is reproducible, and the policy's flake
    bound is as documented.
    """
    draws = statistical_rng.integers(0, 2**32, size=4)
    assert len(set(draws.tolist())) >= 2
    assert statistical_policy.false_failure_probability() < 1e-5


@pytest.mark.statistical(retries=1)
def test_audit_under_default_policy_passes(statistical_rng):
    """An un-prepared (raw) audit through audit_mechanism also passes."""
    from repro.mechanisms import RandomizedResponse
    from repro.testing import audit_mechanism

    report = audit_mechanism(
        RandomizedResponse(EPSILON),
        bit_flip_pair(1),
        n_samples=SAMPLES,
        random_state=statistical_rng,
        output_key=lambda bits: int(bits[0]),
    )
    assert report.satisfied
