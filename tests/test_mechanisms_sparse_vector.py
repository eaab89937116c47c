"""Unit tests for the sparse vector technique."""

import numpy as np
import pytest

from repro.exceptions import PrivacyBudgetError, ValidationError
from repro.mechanisms import SparseVector, above_threshold


class TestSparseVector:
    def test_requires_start(self):
        sv = SparseVector(threshold=10.0, sensitivity=1.0, epsilon=1.0)
        with pytest.raises(ValidationError):
            sv.query(5.0)

    def test_finds_obvious_above(self):
        sv = SparseVector(threshold=0.0, sensitivity=1.0, epsilon=10.0)
        sv.start(random_state=0)
        assert sv.query(1_000.0) is True

    def test_rejects_obvious_below(self):
        sv = SparseVector(threshold=1_000.0, sensitivity=1.0, epsilon=10.0)
        sv.start(random_state=0)
        assert sv.query(-1_000.0) is False

    def test_halts_after_budget(self):
        sv = SparseVector(0.0, 1.0, 10.0, max_positives=2)
        sv.start(random_state=1)
        assert sv.query(1_000.0)
        assert not sv.halted
        assert sv.query(1_000.0)
        assert sv.halted
        with pytest.raises(PrivacyBudgetError):
            sv.query(1_000.0)

    def test_below_threshold_queries_are_free(self):
        """Arbitrarily many below-threshold queries never halt it."""
        sv = SparseVector(1_000.0, 1.0, 1.0)
        sv.start(random_state=2)
        for _ in range(500):
            sv.query(0.0)
        assert not sv.halted

    def test_release_batch_interface(self):
        queries = [lambda d, k=k: float(sum(d)) - k for k in range(5)]
        sv = SparseVector(threshold=0.0, sensitivity=1.0, epsilon=50.0)
        answers = sv.release(([1, 1, 1], queries), random_state=3)
        # First query (3 - 0 = 3 >= 0) fires with overwhelming probability
        # at ε = 50; release stops after the single allowed positive.
        assert answers[-1] is True
        assert len(answers) <= 5

    def test_borderline_queries_are_randomized(self):
        sv = SparseVector(threshold=0.0, sensitivity=1.0, epsilon=0.5)
        answers = []
        for seed in range(200):
            sv.start(random_state=seed)
            answers.append(sv.query(0.0))
        rate = np.mean(answers)
        assert 0.2 < rate < 0.8

    def test_reset_on_start(self):
        sv = SparseVector(0.0, 1.0, 10.0)
        sv.start(random_state=4)
        sv.query(1_000.0)
        assert sv.halted
        sv.start(random_state=5)
        assert not sv.halted

    def test_rejects_bad_max_positives(self):
        with pytest.raises(ValidationError):
            SparseVector(0.0, 1.0, 1.0, max_positives=0)


class TestSparseVectorBatchKernel:
    """``release_many`` ≡ the serial loop, draw for draw."""

    @staticmethod
    def _case(max_positives, n_queries, threshold):
        data = [1.0, 0.0, 1.0, 1.0]
        queries = [
            lambda d, k=k: float(sum(d)) - 0.5 * k for k in range(n_queries)
        ]
        mechanism = SparseVector(
            threshold, 1.0, 2.0, max_positives=max_positives
        )
        return mechanism, (data, queries)

    @staticmethod
    def _state(mechanism):
        return (
            mechanism._noisy_threshold,
            mechanism._positives_used,
            mechanism.halted,
        )

    # A threshold of -20 halts at nearly every release, +30 almost never.
    @pytest.mark.parametrize("threshold", [-20.0, 2.0, 30.0])
    @pytest.mark.parametrize("n_queries", [1, 2, 3, 5])
    @pytest.mark.parametrize("max_positives", [1, 2, 3])
    def test_batch_matches_serial_loop(
        self, max_positives, n_queries, threshold
    ):
        mechanism, dataset = self._case(max_positives, n_queries, threshold)
        batch_rng = np.random.default_rng(31)
        batch = mechanism.release_many(dataset, 40, random_state=batch_rng)
        batch_state = self._state(mechanism)
        serial_rng = np.random.default_rng(31)
        serial = [
            mechanism.release(dataset, random_state=serial_rng)
            for _ in range(40)
        ]
        assert batch == serial
        assert batch_state == self._state(mechanism)
        assert batch_rng.bit_generator.state == serial_rng.bit_generator.state

    def test_single_draw_matches_release(self):
        mechanism, dataset = self._case(2, 3, 2.0)
        one = mechanism.release_many(dataset, 1, random_state=5)[0]
        assert one == mechanism.release(dataset, random_state=5)

    def test_queries_evaluated_once_per_batch(self):
        calls = []

        def query(data):
            calls.append(data)
            return 0.0

        mechanism = SparseVector(30.0, 1.0, 1.0)
        mechanism.release_many(([1.0], [query, query]), 25, random_state=0)
        assert len(calls) == 2


class TestAboveThreshold:
    def test_finds_first_above(self):
        data = [1] * 10
        queries = [lambda d, k=k: float(sum(d) - 100 + 95 * (k == 3)) for k in range(6)]
        # Query 3 evaluates to 5, others to -90; with high epsilon it wins.
        index = above_threshold(data, queries, threshold=0.0, epsilon=50.0,
                                random_state=0)
        assert index == 3

    def test_returns_none_when_all_far_below(self):
        data = [0]
        queries = [lambda d: -1_000.0 for _ in range(10)]
        assert above_threshold(
            data, queries, threshold=0.0, epsilon=10.0, random_state=1
        ) is None

    def test_empirical_privacy_of_answer_pattern(self):
        """Sampled audit of the full answer vector on a neighbour pair:
        the measured loss stays within the ε budget (with sampling slack)."""
        from repro.testing.audit import estimate_epsilon_lower_bound

        epsilon = 0.4
        queries = [lambda d: float(sum(d))] * 3
        rng = np.random.default_rng(2)

        def answers(dataset):
            sv = SparseVector(threshold=1.5, sensitivity=1.0, epsilon=epsilon)
            return tuple(sv.release((list(dataset), queries), random_state=rng))

        estimate = estimate_epsilon_lower_bound(
            [answers([1, 1]) for _ in range(30_000)],
            [answers([1, 0]) for _ in range(30_000)],
        )
        assert estimate["epsilon_lower_bound"] <= epsilon
        assert estimate["point_estimate"] <= epsilon + 0.1
