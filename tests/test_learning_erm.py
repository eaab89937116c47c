"""Unit tests for the finite-grid ERM machinery."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.learning import (
    BernoulliTask,
    GridLoss,
    PredictorGrid,
    empirical_risk,
    empirical_risk_matrix,
    erm_minimizer,
)


def absolute_loss(theta, z):
    return abs(theta - z)


class TestEmpiricalRisk:
    def test_mean_of_losses(self):
        assert empirical_risk(absolute_loss, 0.5, [0, 1]) == pytest.approx(0.5)

    def test_rejects_empty_sample(self):
        with pytest.raises(ValidationError):
            empirical_risk(absolute_loss, 0.5, [])

    def test_matrix_shape_and_values(self):
        matrix = empirical_risk_matrix(
            absolute_loss, thetas=[0.0, 1.0], datasets=[[0, 0], [1, 1]]
        )
        assert matrix.shape == (2, 2)
        assert matrix == pytest.approx(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_erm_minimizer(self):
        theta = erm_minimizer(absolute_loss, [0.0, 0.5, 1.0], [1, 1, 1, 0])
        assert theta == 1.0

    def test_erm_tie_break_first(self):
        theta = erm_minimizer(absolute_loss, [0.0, 1.0], [0, 1])
        assert theta == 0.0


class TestPredictorGrid:
    def test_linspace(self):
        grid = PredictorGrid.linspace(absolute_loss, 0.0, 1.0, 5)
        assert len(grid) == 5
        assert grid.thetas[0] == 0.0
        assert grid.thetas[-1] == 1.0

    def test_risk_sensitivity(self):
        grid = PredictorGrid.linspace(absolute_loss, 0.0, 1.0, 3)
        assert grid.risk_sensitivity(10) == pytest.approx(0.1)

    def test_empirical_risks_vector(self):
        grid = PredictorGrid([0.0, 1.0], absolute_loss)
        risks = grid.empirical_risks([0, 0, 1])
        assert risks == pytest.approx([1 / 3, 2 / 3])

    def test_grid_erm(self):
        task = BernoulliTask(p=0.9)
        grid = PredictorGrid.linspace(task.loss, 0.0, 1.0, 11)
        sample = task.sample(500, random_state=0)
        assert grid.erm(list(sample)) == pytest.approx(1.0)

    def test_loss_bound_violation_detected(self):
        grid = PredictorGrid([0.0], lambda t, z: 5.0, loss_bounds=(0.0, 1.0))
        with pytest.raises(ValidationError, match="bounds"):
            grid.losses_on(0)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValidationError):
            PredictorGrid([0.0], absolute_loss, loss_bounds=(1.0, 0.0))

    def test_rejects_empty_sample(self):
        grid = PredictorGrid([0.0], absolute_loss)
        with pytest.raises(ValidationError):
            grid.empirical_risks([])

    def test_rejects_empty_grid(self):
        with pytest.raises(ValidationError):
            PredictorGrid([], absolute_loss)

    def test_loss_range(self):
        grid = PredictorGrid([0.0], absolute_loss, loss_bounds=(0.5, 2.5))
        assert grid.loss_range == pytest.approx(2.0)


def _per_record(value):
    return lambda theta, z: value


def _kernel(value):
    return GridLoss(
        lambda theta, z: value,
        lambda thetas, sample: np.full((len(sample), len(thetas)), value),
    )


@pytest.mark.parametrize("make", [_per_record, _kernel], ids=["per-record", "kernel"])
class TestBoundsCheck:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_loss_rejected(self, make, value):
        grid = PredictorGrid([0.0, 1.0], make(value))
        with pytest.raises(ValidationError, match="bounds"):
            grid.empirical_risks([0, 1])
        with pytest.raises(ValidationError, match="bounds"):
            grid.erm([0, 1])

    @pytest.mark.parametrize(
        "bounds", [(0.0, float("inf")), (-float("inf"), 1.0), (0.0, float("nan"))]
    )
    def test_non_finite_bounds_rejected(self, make, bounds):
        with pytest.raises(ValidationError, match="finite"):
            PredictorGrid([0.0], make(0.5), loss_bounds=bounds)

    def test_out_of_bounds_loss_rejected(self, make):
        grid = PredictorGrid([0.0, 1.0], make(1.5))
        with pytest.raises(ValidationError, match="bounds"):
            grid.loss_matrix([0])


class TestLossMatrix:
    def test_plain_loss_stacks_losses_on_rows(self):
        grid = PredictorGrid([0.0, 0.25, 1.0], absolute_loss)
        sample = [0, 1, 1]
        expected = np.array([grid.losses_on(z) for z in sample])
        np.testing.assert_array_equal(grid.loss_matrix(sample), expected)

    def test_kernel_is_used(self):
        grid = PredictorGrid(
            [0.0, 1.0],
            GridLoss(absolute_loss, lambda thetas, sample: np.zeros((len(sample), 2))),
        )
        np.testing.assert_array_equal(grid.empirical_risks([0, 1, 1]), [0.0, 0.0])

    def test_kernel_shape_checked(self):
        grid = PredictorGrid(
            [0.0, 1.0],
            GridLoss(absolute_loss, lambda thetas, sample: np.zeros((len(sample), 3))),
        )
        with pytest.raises(ValidationError, match="shape"):
            grid.loss_matrix([0, 1])

    def test_rejects_empty_sample(self):
        grid = PredictorGrid([0.0], BernoulliTask(0.5).loss)
        with pytest.raises(ValidationError):
            grid.loss_matrix([])
