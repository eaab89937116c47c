"""Empirical risk machinery over finite predictor grids.

The paper's Gibbs estimator lives on a measure over Θ. On a finite grid Θ
everything becomes exact: the empirical-risk *matrix* ``R̂[i, j]`` (risk of
predictor j on dataset i) is simultaneously the PAC-Bayes bound input, the
exponential-mechanism quality table, and the distortion matrix of the
rate–distortion formulation of Theorem 4.2. :class:`PredictorGrid` packages
a grid with its per-sample loss function; a loss wrapped in :class:`GridLoss`
also carries a batch kernel that fills the whole ``(n, |Θ|)`` loss matrix of
a sample in one vectorized call.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np

from repro.exceptions import ValidationError


def empirical_risk(
    loss: Callable[[object, object], float], theta, sample: Sequence
) -> float:
    """``R̂_sample(θ) = (1/n) Σ loss(θ, zᵢ)``."""
    sample = list(sample)
    if not sample:
        raise ValidationError("sample must not be empty")
    return float(np.mean([float(loss(theta, z)) for z in sample]))


def empirical_risk_matrix(
    loss: Callable[[object, object], float],
    thetas: Sequence,
    datasets: Sequence[Sequence],
) -> np.ndarray:
    """Risk matrix ``R̂[i, j]`` of predictor ``thetas[j]`` on ``datasets[i]``.

    This is the distortion matrix ``d(Ẑ, θ)`` of Theorem 4.2's
    rate–distortion view, computed exactly.
    """
    thetas = list(thetas)
    datasets = [list(ds) for ds in datasets]
    if not thetas or not datasets:
        raise ValidationError("thetas and datasets must be nonempty")
    matrix = np.empty((len(datasets), len(thetas)))
    for i, dataset in enumerate(datasets):
        for j, theta in enumerate(thetas):
            matrix[i, j] = empirical_risk(loss, theta, dataset)
    return matrix


def erm_minimizer(
    loss: Callable[[object, object], float], thetas: Sequence, sample: Sequence
):
    """The grid predictor with the smallest empirical risk (first wins ties)."""
    thetas = list(thetas)
    if not thetas:
        raise ValidationError("thetas must not be empty")
    risks = [empirical_risk(loss, theta, sample) for theta in thetas]
    return thetas[int(np.argmin(risks))]


def pairwise_dot(rows, thetas) -> np.ndarray:
    """Matrix ``out[i, j] = rows[i] @ thetas[j]``, bit for bit.

    Each entry comes from the same vector·vector routine as the scalar
    ``rows[i] @ thetas[j]`` (one batched ``(1, d) @ (d, 1)`` matmul per
    pair). Neither a matrix product ``rows @ thetas.T`` (blocked
    differently for long vectors) nor a term-by-term numpy sum (no fused
    multiply-add, which an optimized BLAS dot may use) reproduces that
    rounding.
    """
    rows = np.asarray(rows, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    return np.matmul(rows[:, None, None, :], thetas[None, :, :, None])[:, :, 0, 0]


class GridLoss:
    """A per-record loss that also carries a batch kernel.

    ``GridLoss(loss, matrix)`` is called like ``loss(theta, z)``. Its
    ``matrix(thetas, sample)`` returns the ``(len(sample), len(thetas))``
    array whose ``[i, j]`` entry is, element by element, the same IEEE
    computation as ``loss(thetas[j], sample[i])``. :class:`PredictorGrid`
    uses the kernel in :meth:`PredictorGrid.loss_matrix`; any other caller
    sees a plain loss.
    """

    def __init__(
        self,
        loss: Callable[[object, object], float],
        matrix: Callable[[Sequence, Sequence], np.ndarray],
    ) -> None:
        self.loss = loss
        self.matrix = matrix

    def __call__(self, theta, z):
        return self.loss(theta, z)


class PredictorGrid:
    """A finite predictor space Θ with its per-sample loss.

    Parameters
    ----------
    thetas:
        The grid of candidate predictors.
    loss:
        ``loss(theta, z) -> float``; must take values in ``loss_bounds``.
        A :class:`GridLoss` also supplies the batch kernel behind
        :meth:`loss_matrix`.
    loss_bounds:
        ``(lo, hi)`` bound on the loss — gives the empirical risk its
        ``(hi-lo)/n`` sensitivity.
    """

    def __init__(
        self,
        thetas: Sequence,
        loss: Callable[[object, object], float],
        *,
        loss_bounds: tuple[float, float] = (0.0, 1.0),
    ) -> None:
        self.thetas = tuple(thetas)
        if not self.thetas:
            raise ValidationError("thetas must not be empty")
        lo, hi = float(loss_bounds[0]), float(loss_bounds[1])
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValidationError("loss_bounds must be finite")
        if not lo < hi:
            raise ValidationError("loss_bounds must satisfy lo < hi")
        self.loss = loss
        self.loss_bounds = (lo, hi)

    def __len__(self) -> int:
        return len(self.thetas)

    @property
    def loss_range(self) -> float:
        """Width ``hi - lo`` of the loss bounds."""
        return self.loss_bounds[1] - self.loss_bounds[0]

    def risk_sensitivity(self, n: int) -> float:
        """Sensitivity of ``R̂`` on size-n samples: ``loss_range / n``."""
        if n < 1:
            raise ValidationError("n must be >= 1")
        return self.loss_range / float(n)

    def _within_bounds(self, values: np.ndarray) -> np.ndarray:
        # Written as "all inside" so that NaN and ±inf fail too.
        lo, hi = self.loss_bounds
        if not np.all((values >= lo - 1e-12) & (values <= hi + 1e-12)):
            raise ValidationError(
                "loss left its declared bounds; sensitivity math would be wrong"
            )
        return values

    def losses_on(self, z) -> np.ndarray:
        """Vector of ``loss(θ, z)`` over the grid, validated against bounds."""
        values = [float(self.loss(theta, z)) for theta in self.thetas]
        return self._within_bounds(np.asarray(values, dtype=float))

    def loss_matrix(self, sample: Sequence) -> np.ndarray:
        """Matrix ``L[i, j] = loss(thetas[j], sample[i])``, validated against bounds.

        A :class:`GridLoss` fills it with its batch kernel and the bounds
        check runs once over the whole matrix; any other loss stacks the
        :meth:`losses_on` rows.
        """
        sample = list(sample)
        if not sample:
            raise ValidationError("sample must not be empty")
        if not isinstance(self.loss, GridLoss):
            return np.array([self.losses_on(z) for z in sample])
        values = np.asarray(self.loss.matrix(self.thetas, sample), dtype=float)
        if values.shape != (len(sample), len(self.thetas)):
            raise ValidationError(
                f"loss kernel returned shape {values.shape}, expected "
                f"{(len(sample), len(self.thetas))}"
            )
        return self._within_bounds(values)

    def empirical_risks(self, sample: Sequence) -> np.ndarray:
        """Vector ``R̂(θ)`` over the grid for one sample."""
        losses = self.loss_matrix(sample)
        # One row at a time, in sample order: a whole-axis numpy sum can
        # switch to pairwise summation, which rounds differently.
        total = np.zeros(len(self.thetas))
        for row in losses:
            total += row
        return total / len(losses)

    def erm(self, sample: Sequence):
        """Grid ERM: the θ minimizing the empirical risk."""
        risks = self.empirical_risks(sample)
        return self.thetas[int(np.argmin(risks))]

    @classmethod
    def linspace(
        cls,
        loss: Callable[[float, object], float],
        low: float,
        high: float,
        size: int,
        *,
        loss_bounds: tuple[float, float] = (0.0, 1.0),
    ) -> "PredictorGrid":
        """Uniform 1-D grid of ``size`` predictors on ``[low, high]``."""
        if size < 2:
            raise ValidationError("size must be >= 2")
        if not low < high:
            raise ValidationError("low must be < high")
        return cls(np.linspace(low, high, size), loss, loss_bounds=loss_bounds)
