"""E19 (ROADMAP: DJW local model): locally-private SGD learning curves.

Linear classification where each client privatizes their per-example
gradient through the ℓ2 sampling mechanism before the server sees it
(`repro.local_privacy.PrivateSGDClassifier`), against the non-private
logistic baseline and the central-DP output-perturbation learner on the
same two-Gaussian task. The local learner pays the DJW ``√(d/(nε²))``
excess-risk factor, so its accuracy trails central DP at every ε but
recovers with both ε and n — the learning-theoretic face of the E18
rate gap. The locally-private median estimator rides along on a 1-d
sweep.

Expected shape (asserted): accuracy improves with ε for both private
learners; central DP dominates local DP at every ε; the local learner's
accuracy rises with n at fixed ε; the private median converges to the
truth as ε grows.
"""

import numpy as np

from benchmarks.common import mean_accuracy, print_header
from repro.experiments import ResultTable
from repro.learning import LogisticLoss, LogisticRegressionModel, TwoGaussiansTask
from repro.local_privacy import PrivateSGDClassifier, locally_private_median
from repro.private_learning import OutputPerturbationClassifier

EPSILONS = [0.5, 1.0, 2.0, 4.0, 8.0]
SEEDS = 4
N_TRAIN = 2_000
DIMENSION = 4
REGULARIZATION = 0.05
BATCH_SIZE = 20


def build_data(n_train=N_TRAIN):
    mean = np.zeros(DIMENSION)
    mean[0], mean[1] = 1.1, 0.5
    task = TwoGaussiansTask(mean, clip_features=True)
    x_train, y_train = task.sample(n_train, random_state=0)
    x_test, y_test = task.sample(4_000, random_state=999)
    return (x_train, y_train), (x_test, y_test)


def local_sgd(epsilon):
    return PrivateSGDClassifier(
        LogisticLoss(), REGULARIZATION, epsilon, batch_size=BATCH_SIZE
    )


def learner_accuracies(train, test, epsilon, seeds, seed=0):
    """Mean test accuracy of central (output-perturbation) and local SGD."""
    learners = {
        "accuracy_central": lambda: OutputPerturbationClassifier(
            LogisticLoss(), REGULARIZATION, epsilon
        ),
        "accuracy_local_sgd": lambda: local_sgd(epsilon),
    }
    return {
        key: mean_accuracy(make, train, test, seeds, seed)
        for key, make in learners.items()
    }


def median_error(epsilon, seed):
    """|error| of the 1-bit private median on 3 000 uniform values."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(-0.6, 0.8, size=3_000)
    median = locally_private_median(values, epsilon, random_state=rng)
    return float(abs(median - np.median(values)))


def sample_complexity_sweep(epsilon=2.0, sizes=(250, 1_000, 4_000), seeds=SEEDS):
    """Local-SGD accuracy vs n at fixed ε (the n-axis of the rate)."""
    _, test = build_data()
    return [
        {
            "n": n,
            "local": mean_accuracy(
                lambda: local_sgd(epsilon), build_data(n_train=n)[0], test, seeds
            ),
        }
        for n in sizes
    ]


def bench_case(epsilon, seeds=2, seed=0):
    """Engine entry point: learner accuracies plus the median error at
    one ε."""
    return {
        **learner_accuracies(*build_data(), epsilon, seeds, seed),
        "median_absolute_error": median_error(epsilon, seed),
    }


BENCH_SPEC = {
    "case": bench_case,
    "grid": {"epsilon": EPSILONS},
    "fixed": {"seeds": 2, "seed": 0},
    "seed_param": "seed",
}


def test_e19_accuracy_vs_epsilon(benchmark):
    train, test = build_data()
    baseline = LogisticRegressionModel(REGULARIZATION).fit(*train).accuracy(*test)
    rows = benchmark.pedantic(
        lambda: [
            {"epsilon": eps, **learner_accuracies(train, test, eps, SEEDS)}
            for eps in EPSILONS
        ],
        rounds=1,
        iterations=1,
    )

    print_header(
        "E19 / locally-private SGD",
        f"d={DIMENSION} accuracy vs ε (n={N_TRAIN}, {SEEDS} seeds)",
    )
    table = ResultTable(
        ["epsilon", "central (output-pert)", "local SGD", "non-private"],
        title=f"test accuracy, two-Gaussian task in R^{DIMENSION}",
    )
    central, local = "accuracy_central", "accuracy_local_sgd"
    for row in rows:
        table.add_row(row["epsilon"], row[central], row[local], baseline)
    print(table)

    for row in rows:
        # Trust buys accuracy: the curator model dominates the local one
        # at every ε (small Monte-Carlo slack).
        assert row[central] >= row[local] - 0.02, row
    # The local learner climbs steeply with ε (it starts deep in the
    # noise-dominated regime); central DP, already near the baseline at
    # ε=0.5 for this n, must merely not degrade.
    local_values = [row[local] for row in rows]
    assert local_values[-1] >= local_values[0] + 0.05, local_values
    central_values = [row[central] for row in rows]
    assert central_values[-1] >= central_values[0] - 0.005, central_values
    assert rows[-1][central] >= baseline - 0.03
    assert rows[-1][local] >= baseline - 0.12


def test_e19_accuracy_vs_sample_size(benchmark):
    rows = benchmark.pedantic(
        sample_complexity_sweep, rounds=1, iterations=1
    )
    table = ResultTable(
        ["n", "local SGD accuracy"], title="local SGD at ε=2 vs sample size"
    )
    for row in rows:
        table.add_row(row["n"], row["local"])
    print(table)
    values = [row["local"] for row in rows]
    # More clients buy back the privacy noise: accuracy rises with n.
    assert values[-1] >= values[0] + 0.02, values


def test_e19_private_median_converges(benchmark):
    """The 1-bit median protocol tightens around the truth as ε grows."""

    errors = benchmark.pedantic(
        lambda: {eps: median_error(eps, 3) for eps in EPSILONS},
        rounds=1,
        iterations=1,
    )
    table = ResultTable(["epsilon", "median |error|"])
    for eps, err in errors.items():
        table.add_row(eps, err)
    print(table)
    assert errors[EPSILONS[-1]] < 0.05, errors
    assert all(err < 0.5 for err in errors.values()), errors
