"""Speedup smoke: a ``GridLoss`` kernel beats the per-record loss path.

At the E10 ridge size (49 lattice points × 600 records) the vectorized
``loss_matrix`` must make ``empirical_risks`` at least 5x faster than the
same grid driven by the plain per-record loss. It lands well over 50x,
so the margin survives shared-runner noise. Both paths run in the same
process, so the ratio does not depend on the machine's speed.
"""

from __future__ import annotations

import time

import numpy as np

from repro.learning import PredictorGrid
from repro.private_learning.regression import GibbsRidgeRegression

MIN_SPEEDUP = 5.0


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_ridge_kernel_is_at_least_5x_faster(benchmark):
    n = 600
    model = GibbsRidgeRegression(2, 1.0, n, radius=1.5, points_per_axis=7)
    kernel_grid = model.estimator.gibbs.grid
    assert len(kernel_grid) == 49
    per_record_grid = PredictorGrid(
        kernel_grid.thetas, kernel_grid.loss.loss, loss_bounds=kernel_grid.loss_bounds
    )
    rng = np.random.default_rng(0)
    sample = model._as_sample(rng.normal(size=(n, 2)), rng.normal(size=n))

    benchmark.pedantic(
        lambda: kernel_grid.empirical_risks(sample), rounds=3, iterations=1
    )
    kernel_seconds = _best_of(lambda: kernel_grid.empirical_risks(sample))
    per_record_seconds = _best_of(lambda: per_record_grid.empirical_risks(sample))
    np.testing.assert_array_equal(
        kernel_grid.empirical_risks(sample), per_record_grid.empirical_risks(sample)
    )

    speedup = per_record_seconds / kernel_seconds
    assert speedup >= MIN_SPEEDUP, (
        f"ridge: kernel {kernel_seconds * 1e3:.2f}ms vs per-record "
        f"{per_record_seconds * 1e3:.1f}ms — only {speedup:.1f}x, "
        f"need >= {MIN_SPEEDUP}x"
    )
