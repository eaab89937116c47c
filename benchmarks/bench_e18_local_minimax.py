"""E18 (ROADMAP: DJW local model): minimax-rate gap of local privacy.

Mean estimation in R^8 under three trust models — non-private, central
ε-DP (one Gamma-norm release by a trusted curator), and local ε-DP (each
record privatized by the DJW ℓ2/ℓ∞ sampling mechanisms before
transmission). The measured MSEs exhibit the DJW rate gap: the local
error tracks the closed-form prediction ``B²/n ≍ d/(nε²)`` while the
central error stays within a constant of the non-private ``1/n``, so the
degradation factor grows like ``d/ε²`` as ε shrinks.

Alongside the rates, the information-theoretic cause is verified
numerically on every swept configuration: the k-RR local channel at the
same ε contracts KL and TV between any two input laws, with the
symmetrized output KL below DJW Theorem 1's ``4(e^ε-1)²·TV²`` bound.

Expected shape (asserted): local MSE within a band of the closed-form
prediction at every ε and monotone decreasing in ε; local/central
degradation ≥ 5× everywhere on the grid; every DPI verdict true.
"""

import numpy as np

from benchmarks.common import print_header
from repro.experiments import ResultTable
from repro.local_privacy import (
    L2SamplingMechanism,
    LInfSamplingMechanism,
    central_private_mean,
    dpi_report,
    locally_private_mean,
    nonprivate_rate,
)
from repro.privacy import KRandomizedResponse
from repro.utils.validation import check_random_state

EPSILONS = [0.25, 0.5, 1.0, 2.0, 4.0]
DIMENSION = 8
N_RECORDS = 2_000
REPEATS = 6
#: Input laws for the channel-contraction check (well-separated pair).
DPI_P = np.array([0.70, 0.10, 0.10, 0.10])
DPI_Q = np.array([0.10, 0.10, 0.10, 0.70])
DPI_CATEGORIES = ("a", "b", "c", "d")

#: True mean of the synthetic record law (first coordinate only).
MEAN_SHIFT = 0.3
NOISE_RADIUS = 0.5


def sample_records(n, rng):
    """Records with known mean: μ + uniform-ball noise, ‖x‖₂ ≤ 0.8 < 1."""
    mean = np.zeros(DIMENSION)
    mean[0] = MEAN_SHIFT
    directions = check_random_state(rng).normal(size=(n, DIMENSION))
    directions /= np.sqrt((directions * directions).sum(axis=1))[:, None]
    radii = check_random_state(rng).uniform(size=(n, 1)) ** (1.0 / DIMENSION)
    return mean, mean + NOISE_RADIUS * radii * directions


def mean_squared_errors(epsilon, n, repeats, seed=0):
    """Measured MSE of the four estimators at ε on fresh datasets, plus
    the closed-form ℓ2 prediction."""
    l2 = L2SamplingMechanism(DIMENSION, epsilon)
    linf = LInfSamplingMechanism(DIMENSION, epsilon)
    errors = {"nonprivate": [], "central": [], "local_l2": [], "local_linf": []}
    for repeat in range(repeats):
        rng = np.random.default_rng(seed * 10_000 + repeat)
        mean, records = sample_records(n, rng)
        estimates = {
            "nonprivate": records.mean(axis=0),
            "central": central_private_mean(records, epsilon, random_state=rng),
            "local_l2": locally_private_mean(records, l2, random_state=rng),
            "local_linf": locally_private_mean(records, linf, random_state=rng),
        }
        for key, estimate in estimates.items():
            errors[key].append(float(((estimate - mean) ** 2).sum()))
    row = {f"mse_{key}": float(np.mean(values)) for key, values in errors.items()}
    row["predicted_local_l2"] = l2.predicted_mean_squared_error(n)
    return row


def dpi_verdicts(epsilon):
    """DJW Theorem-1 report for the k-RR channel at ε."""
    mechanism = KRandomizedResponse(DPI_CATEGORIES, epsilon)
    return dpi_report(mechanism.channel_matrix(), DPI_P, DPI_Q, epsilon)


def bench_case(epsilon, n=N_RECORDS, repeats=4, seed=0):
    """Engine entry point: rate gap + DPI verdicts at one ε."""
    mse = mean_squared_errors(epsilon, n, repeats, seed)
    dpi = dpi_verdicts(epsilon)
    return {
        **mse,
        "degradation_vs_central": mse["mse_local_l2"] / mse["mse_central"],
        "predicted_degradation": mse["predicted_local_l2"]
        / nonprivate_rate(DIMENSION, n),
        "dpi_kl_contracts": float(dpi["kl_contracts"]),
        "dpi_tv_contracts": float(dpi["tv_contracts"]),
        "dpi_bound_holds": float(dpi["bound_holds"]),
    }


BENCH_SPEC = {
    "case": bench_case,
    "grid": {"epsilon": EPSILONS},
    "fixed": {"n": N_RECORDS, "repeats": 4, "seed": 0},
    "seed_param": "seed",
}


def test_e18_minimax_rate_gap(benchmark):
    rows = benchmark.pedantic(
        lambda: [
            {"epsilon": eps, **mean_squared_errors(eps, N_RECORDS, REPEATS)}
            for eps in EPSILONS
        ],
        rounds=1,
        iterations=1,
    )

    print_header(
        "E18 / local-privacy minimax rates",
        f"mean estimation in R^{DIMENSION}, n={N_RECORDS}, {REPEATS} repeats",
    )
    table = ResultTable(
        [
            "epsilon",
            "non-private",
            "central DP",
            "local ℓ2",
            "local ℓ∞",
            "predicted ℓ2 (B²/n)",
        ],
        title="mean-estimation MSE by trust model",
    )
    for row in rows:
        table.add_row(
            row["epsilon"],
            row["mse_nonprivate"],
            row["mse_central"],
            row["mse_local_l2"],
            row["mse_local_linf"],
            row["predicted_local_l2"],
        )
    print(table)

    for row in rows:
        # The local model pays its d/ε² factor at every ε on the grid.
        assert row["mse_local_l2"] >= 5.0 * row["mse_central"], row
        # Measured local error tracks the closed-form B²/n prediction —
        # this is "degrades by the predicted factor", not just "worse".
        ratio = row["mse_local_l2"] / row["predicted_local_l2"]
        assert 0.5 <= ratio <= 1.5, row
    # Errors decrease as ε grows (the trend the DJW rate predicts).
    local = [row["mse_local_l2"] for row in rows]
    assert all(a > b for a, b in zip(local, local[1:])), local


def test_e18_dpi_holds_on_every_configuration(benchmark):
    rows = benchmark.pedantic(
        lambda: [{"epsilon": eps, **dpi_verdicts(eps)} for eps in EPSILONS],
        rounds=1,
        iterations=1,
    )

    table = ResultTable(
        ["epsilon", "KL in", "KL out", "TV in", "TV out", "sym KL out", "DJW bound"],
        title="divergence contraction through the k-RR channel",
    )
    for row in rows:
        table.add_row(
            row["epsilon"],
            row["input_kl"],
            row["output_kl"],
            row["input_tv"],
            row["output_tv"],
            row["symmetrized_output_kl"],
            row["djw_bound"],
        )
    print(table)

    for row in rows:
        assert row["kl_contracts"], row
        assert row["tv_contracts"], row
        assert row["bound_holds"], row
        # Strict contraction away from the trivial channel.
        assert row["output_kl"] < row["input_kl"]


def test_e18_clipped_frequency_estimates_are_distributions(benchmark):
    """The clip_and_renormalize post-processing keeps finite-n frequency
    estimates on the simplex without hurting consistency."""

    def run():
        rng = np.random.default_rng(5)
        results = []
        for eps in EPSILONS:
            mechanism = KRandomizedResponse(DPI_CATEGORIES, eps)
            records = rng.choice(DPI_CATEGORIES, p=DPI_P, size=4_000)
            reports = mechanism.privatize_many(records, random_state=rng)
            clipped = mechanism.estimate_frequencies(reports, clip=True)
            results.append((eps, clipped))
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    for eps, clipped in results:
        assert np.all(clipped >= 0.0)
        assert abs(float(clipped.sum()) - 1.0) < 1e-9
        assert float(np.abs(clipped - DPI_P).sum()) / 2.0 < 0.25, (eps, clipped)


def test_e18_privatize_many_throughput(benchmark):
    """The vectorized ℓ2 kernel privatizes 50k records in one RNG block."""
    mechanism = L2SamplingMechanism(DIMENSION, 1.0)
    rng = np.random.default_rng(11)
    _, records = sample_records(50_000, rng)

    reports = benchmark(
        lambda: mechanism.privatize_many(records, random_state=rng)
    )
    assert np.asarray(reports).shape == (50_000, DIMENSION)
