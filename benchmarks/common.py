"""Shared instance builders for the benchmark harness.

Every experiment runs on exactly-solvable finite instances built from the
Bernoulli prediction task (closed-form risks) so measured numbers are
estimation-noise-free wherever the paper's claims are deterministic.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.distributions import DiscreteDistribution
from repro.learning import BernoulliTask, PredictorGrid, empirical_risk_matrix


def bernoulli_instance(
    p: float = 0.7, grid_size: int = 5, n: int = 2
) -> dict:
    """A finite learning universe: Bernoulli(p) data, θ-grid on [0, 1].

    Returns the task, grid, every ordered dataset in {0,1}^n, the product-law
    source vector over datasets, and the exact empirical-risk matrix.
    """
    task = BernoulliTask(p=p)
    grid = PredictorGrid.linspace(task.loss, 0.0, 1.0, grid_size)
    datasets = list(itertools.product([0, 1], repeat=n))
    risk_matrix = empirical_risk_matrix(
        lambda theta, z: abs(theta - z),
        grid.thetas,
        [list(d) for d in datasets],
    )
    source = np.array(
        [
            np.prod([p if z == 1 else 1 - p for z in dataset])
            for dataset in datasets
        ]
    )
    data_law = DiscreteDistribution([0, 1], [1 - p, p])
    return {
        "task": task,
        "grid": grid,
        "datasets": datasets,
        "risk_matrix": risk_matrix,
        "source": source,
        "data_law": data_law,
        "n": n,
    }


def mean_accuracy(make, train, test, seeds, seed=0) -> float:
    """Mean test accuracy of ``make()`` fitted once per seed in
    ``seed, ..., seed + seeds - 1``."""
    (x, y), (x_test, y_test) = train, test
    accuracies = [
        make().fit(x, y, random_state=fit_seed).accuracy(x_test, y_test)
        for fit_seed in range(seed, seed + seeds)
    ]
    return float(np.mean(accuracies))


def print_header(experiment_id: str, claim: str) -> None:
    """Uniform banner so bench output reads as the experiment index."""
    bar = "=" * 72
    print(f"\n{bar}\n{experiment_id}: {claim}\n{bar}")
