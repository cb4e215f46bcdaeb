import numpy as np
import pytest

from qpland.errors import NonFiniteError
from qpland.integrators import OdeField, rk2_step, rk4_step, rollout
from qpland.systems import make_system


def decayetc(x):
    return -x


class TestSteps:
    def test_zero_field_is_identity(self):
        x = np.array([1.0, -2.0])
        zero = OdeField(2, lambda s: np.zeros_like(s))
        assert np.array_equal(rk4_step(zero, x, 0.3), x)
        assert np.array_equal(rk2_step(zero, x, 0.3), x)

    def test_rk4_exponential_decay_hand_value(self):
        # stages for xdot=-x from 1 at dt=0.1: k = -1, -0.95, -0.9525, -0.90475
        x1 = rk4_step(decayetc, np.array([1.0]), 0.1)[0]
        assert x1 == pytest.approx(0.9048375, abs=1e-12)
        assert abs(x1 - np.exp(-0.1)) < 1e-6  # 4th-order accurate

    def test_rk2_exponential_decay_hand_value(self):
        # Heun: k1 = -1, k2 = -0.9 -> 1 + 0.05 (-1.9) = 0.905
        x1 = rk2_step(decayetc, np.array([1.0]), 0.1)[0]
        assert x1 == pytest.approx(0.905, abs=1e-15)

    def test_rk4_linear_field_equals_degree4_taylor(self, rng):
        for _ in range(5):
            a = rng.normal(0, 1, (2, 2))
            x = rng.normal(0, 1, 2)
            dt = 0.05
            one = rk4_step(lambda s: s @ a.T, x, dt)
            m = np.eye(2)
            taylor = np.eye(2)
            for k in range(1, 5):
                m = m @ (dt * a) / k
                taylor = taylor + m
            assert np.allclose(one, taylor @ x, rtol=0, atol=1e-14)

    def test_rk2_local_error_order_three(self):
        # embed time as a state; x(t) = t^3 has Heun one-step error 0.5 dt^3
        def field(s):
            out = np.empty_like(s)
            out[..., 0] = 1.0
            out[..., 1] = 3.0 * s[..., 0] ** 2
            return out

        errs = []
        dts = [0.1, 0.05, 0.025]
        for dt in dts:
            x1 = rk2_step(field, np.array([0.0, 0.0]), dt)
            errs.append(abs(x1[1] - dt**3))
        slopes = np.diff(np.log(errs)) / np.diff(np.log(dts))
        assert np.all(np.abs(slopes - 3.0) < 1e-6)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            rk4_step(decayetc, np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            rk2_step(decayetc, np.array([1.0]), -0.1)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_nonfinite_stage_reports_stage_index(self):
        def exploding(s):
            return np.exp(s)  # overflows to inf for large s

        with pytest.raises(NonFiniteError) as exc:
            rk4_step(exploding, np.array([1000.0]), 0.1)
        assert exc.value.stage == 1

        def second_stage_bad(s):
            return np.where(s > 1.5, np.inf, 1000.0) * np.ones_like(s)

        with pytest.raises(NonFiniteError) as exc:
            rk4_step(second_stage_bad, np.array([1.0]), 0.1)
        assert exc.value.stage == 2


class TestRollout:
    def test_zero_steps_returns_initial(self):
        out = rollout(decayetc, np.array([2.0, 3.0]), 0.1, 0)
        assert out.shape == (1, 2)
        assert np.array_equal(out[0], [2.0, 3.0])

    def test_brusselator_stable_state_is_fixed(self):
        system = make_system("brusselator", {"I": 9})
        x = system.extras["stable_state"]
        assert np.abs(system.field(x)).max() == 0.0
        out = rollout(system.field, x, 1e-4, 50)
        assert np.abs(out[-1] - x).max() == 0.0

    def test_bistable_converges_to_positive_attractor(self):
        system = make_system("bistable3d")
        x0 = np.array([0.1, 0.0, 0.0])
        coarse = rollout(system.field, x0, 1e-2, 500)[-1]
        fine = rollout(system.field, x0, 1e-3, 5000)[-1]
        assert np.abs(coarse - fine).max() < 1e-8  # integration error negligible
        assert np.abs(coarse - np.array([1.0, 0.0, 0.0])).max() < 1e-4

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_step_error_carries_step_index(self):
        def blowup(s):
            return s * s * 1e3

        with pytest.raises(NonFiniteError) as exc:
            rollout(blowup, np.array([10.0]), 1.0, 50)
        assert exc.value.step is not None

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            rollout(decayetc, np.array([1.0]), 0.1, -1)


class TestOrders:
    def test_empirical_convergence_orders(self):
        # global error on xdot = -x over [0, 1]
        exact = np.exp(-1.0)
        slopes = {}
        for method, expect in (("rk4", 4.0), ("rk2", 2.0)):
            errs = []
            dts = [0.1, 0.05, 0.025, 0.0125]
            for dt in dts:
                out = rollout(decayetc, np.array([1.0]), dt, int(round(1.0 / dt)), method)
                errs.append(abs(out[-1, 0] - exact))
            fit = np.polyfit(np.log(dts), np.log(errs), 1)[0]
            slopes[method] = fit
            assert abs(fit - expect) <= 0.1
        assert slopes["rk4"] > slopes["rk2"]

    def test_time_reversal_sanity(self):
        system = make_system("limitcycle2d")
        x0 = np.array([0.7, 2.0])
        fwd = rollout(system.field, x0, 1e-3, 1000)[-1]
        back = rollout(lambda s: -system.field(s), fwd, 1e-4, 10000)[-1]
        assert np.abs(back - x0).max() < 1e-6
