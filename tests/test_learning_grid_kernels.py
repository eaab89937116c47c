"""Batch-loss contract: ``PredictorGrid.loss_matrix`` ≡ stacked ``losses_on``.

Every :class:`~repro.learning.GridLoss` kernel promises element-by-element
identity with its per-record loss, so the kernel path and the per-record
path give bit-identical loss matrices (signed zeros included), and
``empirical_risks`` adds the rows in sample order exactly as the old
``total += losses_on(z)`` loop did. Cases cover the five kernels over
several seeds and sizes, n = 1, the uniform density candidate (where
``-log 1.0 = -0.0``) and sample points on bin edges.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.learning import BernoulliTask, GaussianThresholdTask, PredictorGrid
from repro.learning.erm import pairwise_dot
from repro.private_learning.density import GibbsDensityEstimator
from repro.private_learning.exponential_learner import ExponentialMechanismLearner
from repro.private_learning.regression import GibbsRidgeRegression

SEEDS = [0, 1, 2]
SIZES = [1, 17, 400]


def _bernoulli(rng, n):
    task = BernoulliTask(p=0.3)
    return PredictorGrid.linspace(task.loss, 0.0, 1.0, 9), list(task.sample(n, rng))


def _threshold(rng, n):
    task = GaussianThresholdTask(mu=1.0, sigma=1.0)
    x, y = task.sample(n, random_state=rng)
    grid = PredictorGrid(np.linspace(-2.0, 2.0, 41), task.record_loss)
    return grid, list(zip(x, y))


def _density(rng, n):
    estimator = GibbsDensityEstimator(1.0, n, bins=16)
    data = list(rng.uniform(size=n))
    # Bin edges, including both ends of [0, 1].
    edges = [0.5, 0.0, 1.0, 0.25, 0.0625]
    data[: len(edges)] = edges[:n]
    return estimator.estimator.gibbs.grid, data


def _ridge(rng, n, dimension=2, points_per_axis=7):
    model = GibbsRidgeRegression(
        dimension, 1.0, n, radius=1.5, points_per_axis=points_per_axis
    )
    x = rng.normal(size=(n, dimension))
    y = 2.0 * rng.normal(size=n)
    return model.estimator.gibbs.grid, model._as_sample(x, y)


def _exponential(rng, n, dimension=2):
    learner = ExponentialMechanismLearner(dimension, 1.0, n, resolution=32)
    x = rng.normal(size=(n, dimension))
    y = rng.choice([-1, 1], size=n)
    return learner.estimator.gibbs.grid, learner._as_sample(x, y)


KERNELS = {
    "bernoulli": _bernoulli,
    "threshold": _threshold,
    "density": _density,
    "ridge": _ridge,
    "ridge-d3": lambda rng, n: _ridge(rng, n, dimension=3, points_per_axis=4),
    "exponential": _exponential,
    "exponential-d40": lambda rng, n: _exponential(rng, n, dimension=40),
}


def _assert_bit_identical(got, expected):
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_loss_matrix_equals_stacked_losses_on(name, seed, n):
    grid, sample = KERNELS[name](np.random.default_rng(seed), n)
    matrix = grid.loss_matrix(sample)
    assert matrix.shape == (n, len(grid))
    _assert_bit_identical(matrix, np.array([grid.losses_on(z) for z in sample]))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_empirical_risks_equal_sequential_loop(name, n):
    grid, sample = KERNELS[name](np.random.default_rng(9), n)
    total = np.zeros(len(grid))
    for z in sample:
        total += grid.losses_on(z)
    _assert_bit_identical(grid.empirical_risks(sample), total / len(sample))


def test_uniform_density_candidate_gives_negative_zero():
    grid, sample = _density(np.random.default_rng(0), 5)
    uniform = [
        j for j, probs in enumerate(grid.thetas) if np.all(np.asarray(probs) == 1 / 16)
    ]
    assert uniform
    column = grid.loss_matrix(sample)[:, uniform[0]]
    assert np.all(column == 0.0) and np.all(np.signbit(column))


@pytest.mark.parametrize("dimension", [1, 2, 3, 17, 64])
def test_pairwise_dot_matches_scalar_dot(dimension):
    rng = np.random.default_rng(dimension)
    rows = rng.normal(size=(30, dimension))
    thetas = rng.normal(size=(11, dimension))
    expected = np.array([[row @ theta for theta in thetas] for row in rows])
    _assert_bit_identical(pairwise_dot(rows, thetas), expected)


def test_single_predictor_reduction_is_sequential():
    # With one column a whole-axis numpy sum switches to pairwise
    # summation; the risk must still add records one at a time.
    task = BernoulliTask(p=0.5)
    grid = PredictorGrid([1 / 3], task.loss)
    sample = list(np.random.default_rng(5).uniform(size=1000))
    total = np.zeros(1)
    for z in sample:
        total += grid.losses_on(z)
    _assert_bit_identical(grid.empirical_risks(sample), total / len(sample))
