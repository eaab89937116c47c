"""Unit tests for local DP frequency estimation."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.local_privacy import L2SamplingMechanism, LInfSamplingMechanism
from repro.observability import ledger_totals, tracing
from repro.privacy.local import (
    KRandomizedResponse,
    LocalMechanism,
    UnaryEncoding,
    clip_and_renormalize,
)

CATEGORIES = ["a", "b", "c", "d"]


def sample_records(rng, n=40_000, weights=(0.5, 0.25, 0.15, 0.1)):
    return rng.choice(CATEGORIES, size=n, p=weights).tolist()


class TestKRandomizedResponse:
    def test_probabilities_sum_correctly(self):
        mech = KRandomizedResponse(CATEGORIES, epsilon=1.0)
        k = len(CATEGORIES)
        total = mech.truth_probability + (k - 1) * mech.lie_probability
        assert total == pytest.approx(1.0)

    def test_per_record_ratio_is_exactly_epsilon(self):
        eps = 1.3
        mech = KRandomizedResponse(CATEGORIES, epsilon=eps)
        assert np.log(
            mech.truth_probability / mech.lie_probability
        ) == pytest.approx(eps)

    def test_randomize_stays_in_categories(self):
        mech = KRandomizedResponse(CATEGORIES, epsilon=0.5)
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert mech.randomize("a", random_state=rng) in CATEGORIES

    def test_rejects_unknown_value(self):
        mech = KRandomizedResponse(CATEGORIES, epsilon=1.0)
        with pytest.raises(ValidationError):
            mech.randomize("z")

    def test_frequency_estimation_debiased(self):
        rng = np.random.default_rng(1)
        records = sample_records(rng)
        mech = KRandomizedResponse(CATEGORIES, epsilon=2.0)
        reports = mech.release(records, random_state=rng)
        estimates = mech.estimate_frequencies(reports)
        assert estimates == pytest.approx([0.5, 0.25, 0.15, 0.1], abs=0.02)

    def test_estimates_sum_to_one(self):
        rng = np.random.default_rng(2)
        records = sample_records(rng, n=5_000)
        mech = KRandomizedResponse(CATEGORIES, epsilon=1.0)
        reports = mech.release(records, random_state=rng)
        assert mech.estimate_frequencies(reports).sum() == pytest.approx(1.0)

    def test_variance_formula_conservative(self):
        rng = np.random.default_rng(3)
        n = 5_000
        mech = KRandomizedResponse(CATEGORIES, epsilon=1.0)
        estimates = []
        records = sample_records(rng, n=n)
        for _ in range(200):
            reports = mech.release(records, random_state=rng)
            estimates.append(mech.estimate_frequencies(reports)[0])
        assert np.var(estimates) <= mech.estimator_variance(n) * 1.2

    def test_needs_two_categories(self):
        with pytest.raises(ValidationError):
            KRandomizedResponse(["only"], epsilon=1.0)


class TestUnaryEncoding:
    def test_randomize_shape(self):
        mech = UnaryEncoding(CATEGORIES, epsilon=1.0)
        bits = mech.randomize("b", random_state=0)
        assert bits.shape == (4,)
        assert set(bits.tolist()) <= {0, 1}

    def test_bit_keep_probability(self):
        eps = 2.0
        mech = UnaryEncoding(CATEGORIES, epsilon=eps)
        assert mech.keep_probability == pytest.approx(
            np.exp(1.0) / (np.exp(1.0) + 1)
        )

    def test_frequency_estimation_debiased(self):
        rng = np.random.default_rng(4)
        records = sample_records(rng)
        mech = UnaryEncoding(CATEGORIES, epsilon=2.0)
        reports = mech.release(records, random_state=rng)
        estimates = mech.estimate_frequencies(reports)
        assert estimates == pytest.approx([0.5, 0.25, 0.15, 0.1], abs=0.02)

    def test_rejects_bad_matrix(self):
        mech = UnaryEncoding(CATEGORIES, epsilon=1.0)
        with pytest.raises(ValidationError):
            mech.estimate_frequencies(np.zeros((5, 3)))

    def test_unary_beats_krr_for_many_categories(self):
        """The reason UE exists: with many categories at small ε its
        estimator variance is lower than k-RR's."""
        categories = list(range(64))
        eps, n = 1.0, 10_000
        krr = KRandomizedResponse(categories, epsilon=eps)
        unary = UnaryEncoding(categories, epsilon=eps)
        assert unary.estimator_variance(n) < krr.estimator_variance(n)

    def test_krr_competitive_for_few_categories(self):
        categories = ["x", "y"]
        eps, n = 1.0, 10_000
        krr = KRandomizedResponse(categories, epsilon=eps)
        unary = UnaryEncoding(categories, epsilon=eps)
        assert krr.estimator_variance(n) < unary.estimator_variance(n)

class TestLocalMechanismEdgeCases:
    """Edge cases shared by the frequency-oracle mechanisms."""

    @pytest.mark.parametrize("cls", [KRandomizedResponse, UnaryEncoding])
    def test_single_category_domain_rejected(self, cls):
        with pytest.raises(ValidationError):
            cls(["only"], epsilon=1.0)

    @pytest.mark.parametrize("cls", [KRandomizedResponse, UnaryEncoding])
    def test_duplicate_categories_rejected(self, cls):
        with pytest.raises(ValidationError):
            cls(["a", "b", "a"], epsilon=1.0)

    @pytest.mark.parametrize("cls", [KRandomizedResponse, UnaryEncoding])
    @pytest.mark.parametrize(
        "epsilon", [0.0, -1.0, float("nan"), float("inf")]
    )
    def test_epsilon_boundaries_rejected(self, cls, epsilon):
        """ε must be strictly positive and finite — 0, negatives, NaN and
        inf all fail validation, not arithmetic."""
        with pytest.raises(ValidationError):
            cls(CATEGORIES, epsilon=epsilon)

    @pytest.mark.parametrize("cls", [KRandomizedResponse, UnaryEncoding])
    def test_unknown_record_rejected_by_privatize(self, cls):
        mech = cls(CATEGORIES, epsilon=1.0)
        with pytest.raises(ValidationError):
            mech.privatize("z", random_state=0)

    @pytest.mark.parametrize("cls", [KRandomizedResponse, UnaryEncoding])
    def test_unknown_record_rejected_by_privatize_many(self, cls):
        mech = cls(CATEGORIES, epsilon=1.0)
        with pytest.raises(ValidationError):
            mech.privatize_many(["a", "b", "z"], random_state=0)

    @pytest.mark.parametrize("cls", [KRandomizedResponse, UnaryEncoding])
    def test_unhashable_record_rejected(self, cls):
        mech = cls(CATEGORIES, epsilon=1.0)
        with pytest.raises(ValidationError):
            mech.privatize(["not", "hashable"], random_state=0)

    def test_unknown_report_rejected_by_estimator(self):
        mech = KRandomizedResponse(CATEGORIES, epsilon=1.0)
        with pytest.raises(ValidationError):
            mech.estimate_frequencies(["a", "z"])

    @pytest.mark.parametrize("cls", [KRandomizedResponse, UnaryEncoding])
    def test_empty_batch_rejected(self, cls):
        mech = cls(CATEGORIES, epsilon=1.0)
        with pytest.raises(ValidationError):
            mech.privatize_many([], random_state=0)


class TestPrivatizeManyBitIdentity:
    """The vectorized kernels must be stream-equivalent to per-record
    calls: same Generator state in, identical reports out (DPL001 /
    release_many discipline, extended to the local model)."""

    def test_krr_matches_sequential_privatize(self):
        mech = KRandomizedResponse(CATEGORIES, epsilon=1.0)
        rng = np.random.default_rng(7)
        records = sample_records(rng, n=2_000)
        serial = [
            mech.privatize(r, random_state=np.random.default_rng(42))
            for r in records[:1]
        ]
        batch_rng = np.random.default_rng(42)
        seq_rng = np.random.default_rng(42)
        batch = mech.privatize_many(records, random_state=batch_rng)
        sequential = [
            mech.privatize(r, random_state=seq_rng) for r in records
        ]
        assert batch == sequential
        assert serial[0] == batch[0]
        # Both consume the same number of uniforms: the streams stay
        # aligned for whatever draws next.
        assert batch_rng.uniform() == seq_rng.uniform()

    def test_unary_matches_sequential_privatize(self):
        mech = UnaryEncoding(CATEGORIES, epsilon=1.0)
        records = sample_records(np.random.default_rng(8), n=500)
        batch_rng = np.random.default_rng(43)
        seq_rng = np.random.default_rng(43)
        batch = mech.privatize_many(records, random_state=batch_rng)
        sequential = [
            mech.privatize(r, random_state=seq_rng) for r in records
        ]
        assert len(batch) == len(sequential)
        for got, expected in zip(batch, sequential):
            np.testing.assert_array_equal(got, expected)
        assert batch_rng.uniform() == seq_rng.uniform()

    def test_release_matches_privatize_many(self):
        mech = KRandomizedResponse(CATEGORIES, epsilon=1.0)
        records = sample_records(np.random.default_rng(9), n=300)
        assert mech.release(records, random_state=5) == mech.privatize_many(
            records, random_state=5
        )


class TestClipAndRenormalize:
    """Regression: tiny-n debiased estimates can leave the simplex."""

    def test_tiny_sample_produces_negative_estimates(self):
        """Three identical truthful reports at large ε push the other
        coordinates' debiased estimates below zero — the bug fixed by
        the clip option."""
        mech = KRandomizedResponse(CATEGORIES, epsilon=6.0)
        raw = mech.estimate_frequencies(["a", "a", "a"])
        assert raw.min() < 0.0
        clipped = mech.estimate_frequencies(["a", "a", "a"], clip=True)
        assert clipped.min() >= 0.0
        assert clipped.sum() == pytest.approx(1.0)
        assert clipped.argmax() == 0

    def test_unary_clip_option(self):
        mech = UnaryEncoding(CATEGORIES, epsilon=6.0)
        reports = np.tile(np.array([1, 0, 0, 0]), (3, 1))
        raw = mech.estimate_frequencies(reports)
        assert raw.min() < 0.0
        clipped = mech.estimate_frequencies(reports, clip=True)
        assert clipped.min() >= 0.0
        assert clipped.sum() == pytest.approx(1.0)

    def test_all_clipped_to_zero_falls_back_to_uniform(self):
        out = clip_and_renormalize(np.array([-0.2, -0.1, -0.3]))
        assert out == pytest.approx([1 / 3, 1 / 3, 1 / 3])

    def test_in_simplex_input_is_unchanged(self):
        est = np.array([0.5, 0.25, 0.15, 0.1])
        assert clip_and_renormalize(est) == pytest.approx(est)

    @pytest.mark.parametrize(
        "bad",
        [
            np.zeros((2, 2)),
            np.array([]),
            np.array([0.5, np.nan]),
            np.array([0.5, np.inf]),
        ],
    )
    def test_invalid_inputs_rejected(self, bad):
        with pytest.raises(ValidationError):
            clip_and_renormalize(bad)


def _build_local(family):
    """A mechanism of ``family`` plus six valid records for it."""
    if family == "krr":
        return KRandomizedResponse(CATEGORIES, epsilon=0.5), list("abcdab")
    if family == "unary":
        return UnaryEncoding(CATEGORIES, epsilon=0.5), list("abcdab")
    cls = L2SamplingMechanism if family == "l2" else LInfSamplingMechanism
    records = np.random.default_rng(5).uniform(-0.5, 0.5, size=(6, 3))
    return cls(3, epsilon=0.5), records


def _looped(mechanism, fail_at):
    """Re-class ``mechanism`` onto the looped fallback kernel, with
    ``privatize`` raising on its ``fail_at``-th call."""
    base = type(mechanism)

    def privatize(self, record, random_state=None):
        self.calls += 1
        if self.calls == fail_at:
            raise RuntimeError("injected mid-batch failure")
        return base.privatize(self, record, random_state=random_state)

    mechanism.__class__ = type(
        f"Looped{base.__name__}",
        (base,),
        {"privatize": privatize, "_privatize_many": LocalMechanism._privatize_many},
    )
    mechanism.calls = 0
    return mechanism


LOCAL_FAMILIES = ["krr", "unary", "l2", "linf"]


class TestPrivatizeManyTracing:
    """``privatize_many`` under a tracer: one span, one aggregated ledger
    event per batch, and outputs bit-identical to an untraced run."""

    @pytest.mark.parametrize("family", LOCAL_FAMILIES)
    def test_tracing_leaves_batch_bit_identical(self, family):
        mechanism, records = _build_local(family)
        baseline = mechanism.privatize_many(records, random_state=11)
        with tracing() as tracer:
            traced = mechanism.privatize_many(records, random_state=11)
        np.testing.assert_array_equal(np.asarray(traced), np.asarray(baseline))
        name = type(mechanism).__name__
        assert [s.name for s in tracer.spans] == [f"privatize_many:{name}"]
        (event,) = tracer.events
        assert event.kind == "release"
        assert event.mechanism == name
        assert event.count == len(records)
        assert event.epsilon == 0.5
        assert tracer.metrics.counter("mechanism.releases") == len(records)

    @pytest.mark.parametrize("family", LOCAL_FAMILIES)
    def test_fallback_partial_batch_records_completed_records(self, family):
        mechanism, records = _build_local(family)
        mechanism = _looped(mechanism, fail_at=4)
        with tracing() as tracer:
            with pytest.raises(RuntimeError, match="mid-batch"):
                mechanism.privatize_many(records, random_state=11)
        (event,) = tracer.events
        assert event.count == 3
        assert ledger_totals(tracer.events, kinds=("release",)) == (1.5, 0.0)
        assert tracer.metrics.counter("mechanism.releases") == 3

    @pytest.mark.parametrize("family", LOCAL_FAMILIES)
    def test_fallback_failure_on_first_record_records_nothing(self, family):
        mechanism, records = _build_local(family)
        mechanism = _looped(mechanism, fail_at=1)
        with tracing() as tracer:
            with pytest.raises(RuntimeError, match="mid-batch"):
                mechanism.privatize_many(records, random_state=11)
        assert tracer.events == []
        assert tracer.metrics.counter("mechanism.releases") == 0

    @pytest.mark.parametrize("family", LOCAL_FAMILIES)
    def test_partial_release_many_records_only_completed_releases(self, family):
        # Regression: a looped release_many of 3 five-record releases
        # failing at record 9 charged 3 records plus 1 release (2.0 ε).
        # Records 1-5 make the one complete release; 6-8 are a partial
        # release, which is no more charged than a raising release().
        mechanism, records = _build_local(family)
        mechanism = _looped(mechanism, fail_at=9)
        with tracing() as tracer:
            with pytest.raises(RuntimeError, match="mid-batch"):
                mechanism.release_many(records[:5], 3, random_state=11)
        (event,) = tracer.events
        assert (event.count, event.epsilon) == (1, 0.5)
        assert ledger_totals(tracer.events, kinds=("release",)) == (0.5, 0.0)
        assert tracer.metrics.counter("mechanism.releases") == 1

    @pytest.mark.parametrize("family", LOCAL_FAMILIES)
    def test_release_many_failing_in_first_release_records_nothing(self, family):
        mechanism, records = _build_local(family)
        mechanism = _looped(mechanism, fail_at=5)
        with tracing() as tracer:
            with pytest.raises(RuntimeError, match="mid-batch"):
                mechanism.release_many(records[:5], 3, random_state=11)
        assert tracer.events == []
        assert tracer.metrics.counter("mechanism.releases") == 0

    def test_raising_release_records_nothing(self):
        # Regression: the looped fallback used to record its own partial
        # event inside a traced ``release``, so a release failing at
        # record 4 charged ε for 3 records — three times a successful one.
        mechanism, records = _build_local("krr")
        with tracing() as tracer:
            mechanism.release(records[:5], random_state=11)
        (event,) = tracer.events
        assert (event.count, event.epsilon) == (1, 0.5)

        mechanism = _looped(mechanism, fail_at=4)
        with tracing() as tracer:
            with pytest.raises(RuntimeError, match="mid-batch"):
                mechanism.release(records[:5], random_state=11)
        assert tracer.events == []
        assert tracer.metrics.counter("mechanism.releases") == 0
