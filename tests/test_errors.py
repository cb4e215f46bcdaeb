import numpy as np
import pytest

from qpland.errors import NonFiniteError, check_finite


class TestCheckFinite:
    def test_finite_values_pass(self):
        assert check_finite("w", np.ones((4, 3))) is None
        assert check_finite("w", 1.5) is None
        assert check_finite("w", np.empty((0, 3))) is None

    def test_index_is_the_first_bad_row_after_start(self):
        values = np.zeros((6, 3))
        values[4, 0] = np.inf
        values[2, 2] = np.nan
        with pytest.raises(NonFiniteError) as exc:
            check_finite("dyn loss residual", values, start=512)
        assert exc.value.index == 514
        assert str(exc.value) == "non-finite value in dyn loss residual, index 514"

    def test_rows_of_a_higher_dimensional_array(self):
        values = np.zeros((3, 2, 2))
        values[1, 1, 0] = -np.inf
        with pytest.raises(NonFiniteError) as exc:
            check_finite("w", values)
        assert exc.value.index == 1

    def test_one_entry_of_a_1d_array(self):
        with pytest.raises(NonFiniteError) as exc:
            check_finite("adam gradient", np.array([1.0, 2.0, -np.inf, np.nan]))
        assert exc.value.index == 2
        assert str(exc.value) == "non-finite value in adam gradient, index 2"

    def test_a_scalar_has_no_index(self):
        with pytest.raises(NonFiniteError) as exc:
            check_finite("training loss", float("nan"), step=7)
        assert exc.value.index is None and exc.value.step == 7
        assert str(exc.value) == "non-finite value in training loss, step 7"

    def test_step_and_cause_in_the_message(self):
        with pytest.raises(NonFiniteError) as exc:
            check_finite("trajectory generation", np.array([[0.0], [np.inf]]), step=3,
                         cause="dt too large")
        assert (exc.value.where, exc.value.step, exc.value.index) == (
            "trajectory generation", 3, 1)
        assert str(exc.value) == (
            "non-finite value in trajectory generation, step 3, index 1: dt too large")
