"""The sparse vector technique (AboveThreshold).

Answers a long adaptive stream of threshold queries while paying privacy
only for the (few) queries that exceed the threshold: noise the threshold
once with ``Lap(2c/ε₁)``, noise each query with ``Lap(4c/ε₂)``, report
only above/below, and halt after ``c`` aboves. The total guarantee is
``ε₁ + ε₂`` regardless of how many below-threshold queries were answered
— the canonical example of privacy accounting that basic composition
cannot capture.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.distributions.continuous import LaplaceNoise
from repro.exceptions import PrivacyBudgetError, ValidationError
from repro.mechanisms.base import Mechanism, PrivacySpec
from repro.utils.validation import check_positive, check_random_state


class SparseVector(Mechanism):
    """AboveThreshold with a budget of ``max_positives`` discoveries.

    Parameters
    ----------
    threshold:
        The public threshold T.
    sensitivity:
        Global sensitivity of every query in the stream (commonly 1).
    epsilon:
        Total privacy budget; split half on the threshold noise, half on
        the query noise (the standard allocation).
    max_positives:
        Number of above-threshold answers allowed before the mechanism
        halts (the ``c`` in the classical analysis).
    """

    def __init__(
        self,
        threshold: float,
        sensitivity: float,
        epsilon: float,
        *,
        max_positives: int = 1,
    ) -> None:
        super().__init__(PrivacySpec(epsilon=epsilon))
        if max_positives < 1:
            raise ValidationError("max_positives must be >= 1")
        self.threshold = float(threshold)
        self.sensitivity = check_positive(sensitivity, name="sensitivity")
        self.max_positives = int(max_positives)
        epsilon_threshold = epsilon / 2.0
        epsilon_queries = epsilon / 2.0
        self._threshold_noise = LaplaceNoise(
            scale=2.0 * self.max_positives * self.sensitivity / epsilon_threshold
        )
        self._query_noise = LaplaceNoise(
            scale=4.0 * self.max_positives * self.sensitivity / epsilon_queries
        )
        self._noisy_threshold: float | None = None
        self._positives_used = 0
        self._halted = False

    # ------------------------------------------------------------------
    def start(self, random_state=None) -> "SparseVector":
        """Draw the (single) threshold noise and reset the counter."""
        rng = check_random_state(random_state)
        self._rng = rng
        self._noisy_threshold = self.threshold + float(
            self._threshold_noise.sample(random_state=rng)
        )
        self._positives_used = 0
        self._halted = False
        return self

    @property
    def halted(self) -> bool:
        """Whether the positives budget is exhausted."""
        return self._halted

    def query(self, value: float) -> bool:
        """Answer one threshold query: is ``value + noise`` ≥ T̂?

        ``value`` is the query's true answer on the private dataset; the
        caller computes it (this keeps the class agnostic of the dataset
        representation). Raises once the positives budget is exhausted.
        """
        if self._noisy_threshold is None:
            raise ValidationError("call start() before querying")
        if self._halted:
            raise PrivacyBudgetError(
                "SparseVector halted: positives budget exhausted"
            )
        noisy = float(value) + float(
            self._query_noise.sample(random_state=self._rng)
        )
        above = noisy >= self._noisy_threshold
        if above:
            self._positives_used += 1
            if self._positives_used >= self.max_positives:
                self._halted = True
        return bool(above)

    def release(self, dataset, random_state=None) -> list[bool]:
        """Batch interface: ``dataset`` is ``(data, queries)``; runs the
        stream until exhaustion or halt and returns the answer list."""
        data, queries = dataset
        self.start(random_state=random_state)
        answers: list[bool] = []
        for query_fn in queries:
            if self._halted:
                break
            answers.append(self.query(float(query_fn(data))))
        return answers

    def _release_many(self, dataset, n, rng) -> list[list[bool]]:
        """Batch kernel: ``n`` answer streams, draw for draw the serial loop.

        Each query is evaluated once per batch, so queries must be pure
        functions of ``data``. A release consumes one Laplace draw for
        the threshold and one per query answered, up to the halting
        positive. The kernel draws enough unit Laplace values for the
        longest batch in one call (``s·laplace(1)`` equals
        ``laplace(s)`` bit for bit), walks them, then rewinds the
        generator and redraws exactly the count consumed, so it ends
        where ``n`` sequential releases leave it. The draws take memory
        of the order of the largest possible output, ``n·(1 + queries)``
        values. The mechanism's state is that of the last release.
        """
        data, queries = dataset
        values = [float(query_fn(data)) for query_fn in queries]
        threshold_scale = self._threshold_noise.scale
        query_scale = self._query_noise.scale
        unit_noise = LaplaceNoise(scale=1.0)
        start = rng.bit_generator.state
        unit = unit_noise.sample(
            size=n * (1 + len(values)), random_state=rng
        ).tolist()
        answers = []
        offset = 0
        for _ in range(n):
            threshold = self.threshold + threshold_scale * unit[offset]
            offset += 1
            row = []
            positives = 0
            for value in values:
                above = value + query_scale * unit[offset] >= threshold
                offset += 1
                row.append(above)
                if above:
                    positives += 1
                    if positives >= self.max_positives:
                        break
            answers.append(row)
        rng.bit_generator.state = start
        unit_noise.sample(size=offset, random_state=rng)
        self._rng = rng
        self._noisy_threshold = threshold
        self._positives_used = positives
        self._halted = positives >= self.max_positives
        return answers


def above_threshold(
    data,
    queries: Sequence[Callable],
    threshold: float,
    epsilon: float,
    *,
    sensitivity: float = 1.0,
    random_state=None,
) -> int | None:
    """Convenience: index of the first query above ``threshold``, ε-DP.

    Returns None if no query fired before the stream ended.

    Parameters
    ----------
    data:
        Dataset every query is evaluated on.
    queries:
        Stream of callables ``query(data) -> float``.
    threshold:
        Public threshold the noisy answers are compared against.
    epsilon:
        Total privacy budget of the scan.
    sensitivity:
        Global sensitivity shared by all queries.
    random_state:
        Seed or Generator for the threshold and query noise.
    """
    epsilon = check_positive(epsilon, name="epsilon")
    sensitivity = check_positive(sensitivity, name="sensitivity")
    mechanism = SparseVector(threshold, sensitivity, epsilon, max_positives=1)
    mechanism.start(random_state=random_state)
    for index, query_fn in enumerate(queries):
        if mechanism.query(float(query_fn(data))):
            return index
    return None
