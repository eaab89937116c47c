"""Unit tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.exceptions import NotNormalizedError, ValidationError
from repro.utils.validation import (
    check_array,
    check_in_range,
    check_positive,
    check_probability_vector,
    check_random_state,
)


class TestCheckRandomState:
    def test_none_gives_generator(self):
        assert isinstance(check_random_state(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = check_random_state(42).uniform()
        b = check_random_state(42).uniform()
        assert a == b

    def test_generator_passes_through(self):
        gen = np.random.default_rng(0)
        assert check_random_state(gen) is gen

    def test_legacy_random_state_is_bridged(self):
        legacy = np.random.RandomState(0)
        assert isinstance(check_random_state(legacy), np.random.Generator)

    def test_bad_seed_raises(self):
        with pytest.raises(ValidationError):
            check_random_state("not a seed")

    @pytest.mark.parametrize("seed", [True, False, np.True_])
    def test_bool_is_not_a_seed(self, seed):
        with pytest.raises(ValidationError, match="random generator"):
            check_random_state(seed)

    @pytest.mark.parametrize("seed", [-1, np.int64(-7)])
    def test_negative_seed_raises_validation_error(self, seed):
        with pytest.raises(ValidationError, match="nonnegative"):
            check_random_state(seed)


class TestCheckArray:
    def test_coerces_lists(self):
        arr = check_array([1, 2, 3])
        assert arr.dtype == float
        assert arr.shape == (3,)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValidationError, match="2-dimensional"):
            check_array([1.0, 2.0], ndim=2)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="finite"):
            check_array([1.0, np.nan])

    def test_rejects_inf(self):
        with pytest.raises(ValidationError, match="finite"):
            check_array([np.inf])

    def test_rejects_empty_by_default(self):
        with pytest.raises(ValidationError, match="empty"):
            check_array([])

    def test_allows_empty_when_asked(self):
        assert check_array([], allow_empty=True).size == 0


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(2.5) == 2.5

    def test_rejects_zero_when_strict(self):
        with pytest.raises(ValidationError):
            check_positive(0.0)

    def test_accepts_zero_when_not_strict(self):
        assert check_positive(0.0, strict=False) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_positive(-1.0, strict=False)

    def test_rejects_inf(self):
        with pytest.raises(ValidationError):
            check_positive(np.inf)

    def test_rejects_non_number(self):
        with pytest.raises(ValidationError):
            check_positive("three")

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            check_positive(np.nan)

    def test_rejects_nan_even_when_not_strict(self):
        with pytest.raises(ValidationError):
            check_positive(np.nan, strict=False)

    def test_rejects_negative_inf(self):
        with pytest.raises(ValidationError):
            check_positive(-np.inf)

    def test_rejects_none(self):
        with pytest.raises(ValidationError):
            check_positive(None)

    def test_rejects_bool_like_containers(self):
        with pytest.raises(ValidationError):
            check_positive([1.0])

    def test_error_message_names_the_parameter(self):
        with pytest.raises(ValidationError, match="epsilon"):
            check_positive(-1.0, name="epsilon")


class TestPrivacyParameterEdgeCases:
    """The ε/δ validation paths dplint rule DPL002 relies on."""

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_degenerate_epsilon_rejected(self, epsilon):
        with pytest.raises(ValidationError):
            check_positive(epsilon, name="epsilon")

    @pytest.mark.parametrize("epsilon", ["1.0", None, [1.0], object()])
    def test_non_numeric_epsilon_rejected(self, epsilon):
        with pytest.raises(ValidationError):
            check_positive(epsilon, name="epsilon")

    @pytest.mark.parametrize("delta", [-1e-9, 1.0 + 1e-9, np.nan, np.inf])
    def test_out_of_range_delta_rejected(self, delta):
        with pytest.raises(ValidationError):
            check_in_range(delta, name="delta", low=0.0, high=1.0)

    @pytest.mark.parametrize("delta", [0.0, 1.0])
    def test_boundary_delta_rejected_when_exclusive(self, delta):
        with pytest.raises(ValidationError):
            check_in_range(
                delta, name="delta", low=0.0, high=1.0, inclusive=False
            )

    def test_nan_delta_rejected_even_inclusive(self):
        # NaN compares false against every bound, so it must not slip
        # through either branch of the range check.
        with pytest.raises(ValidationError):
            check_in_range(np.nan, name="delta", low=0.0, high=1.0)

    @pytest.mark.parametrize("delta", ["0.1", None, [0.5]])
    def test_non_numeric_delta_rejected(self, delta):
        with pytest.raises(ValidationError):
            check_in_range(delta, name="delta", low=0.0, high=1.0)

    def test_valid_epsilon_returned_as_float(self):
        value = check_positive(np.float64(0.5), name="epsilon")
        assert isinstance(value, float)
        assert value == 0.5

    def test_valid_delta_returned_as_float(self):
        value = check_in_range(1e-6, name="delta", low=0.0, high=1.0)
        assert isinstance(value, float)
        assert value == 1e-6


class TestCheckInRange:
    def test_inclusive_endpoints(self):
        assert check_in_range(0.0, low=0.0, high=1.0) == 0.0
        assert check_in_range(1.0, low=0.0, high=1.0) == 1.0

    def test_exclusive_endpoints_rejected(self):
        with pytest.raises(ValidationError):
            check_in_range(0.0, low=0.0, high=1.0, inclusive=False)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            check_in_range(1.5, low=0.0, high=1.0)


class TestCheckProbabilityVector:
    def test_valid_vector_renormalized_exactly(self):
        out = check_probability_vector([0.25, 0.75])
        assert out.sum() == pytest.approx(1.0, abs=0)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            check_probability_vector([-0.1, 1.1])

    def test_rejects_not_summing_to_one(self):
        with pytest.raises(NotNormalizedError):
            check_probability_vector([0.5, 0.4])

    def test_accepts_within_tolerance(self):
        out = check_probability_vector([0.5, 0.5 + 1e-10])
        assert out.sum() == pytest.approx(1.0)
