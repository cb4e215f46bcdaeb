import numpy as np
import pytest

from qpland.integrators import rk2_step, rk4_step
from qpland.nets import Workspace
from qpland.systems import make_system


def decayetc(x, out=None):
    return -x


def final_state(step, field, x0, dt, n_steps):
    x = x0
    for _ in range(n_steps):
        x = step(field, x, dt)
    return x


class TestSteps:
    def test_zero_field_is_identity(self):
        x = np.array([1.0, -2.0])
        def zero(s, out=None):
            return np.zeros_like(s)

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
            one = rk4_step(lambda s, out=None: s @ a.T, x, dt)
            m = np.eye(2)
            taylor = np.eye(2)
            for k in range(1, 5):
                m = m @ (dt * a) / k
                taylor = taylor + m
            assert np.allclose(one, taylor @ x, rtol=0, atol=1e-14)

    def test_rk2_local_error_order_three(self):
        # embed time as a state; x(t) = t^3 has Heun one-step error 0.5 dt^3
        def field(s, out=None):
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


def rk4_reference(field, x, dt):
    k1 = field(x)
    k2 = field(x + 0.5 * dt * k1)
    k3 = field(x + 0.5 * dt * k2)
    k4 = field(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk2_reference(field, x, dt):
    k1 = field(x)
    k2 = field(x + dt * k1)
    return x + 0.5 * dt * (k1 + k2)


class TestInPlaceStages:
    """The steps build their stages in place; they must round exactly as the
    textbook expressions do and never write into the state or a stage."""

    @pytest.mark.parametrize("name, field, x", [
        ("bistable3d", make_system("bistable3d").field,
         np.random.default_rng(1).uniform(-2.0, 2.0, (500, 3))),
        ("ginzburg_landau", make_system("ginzburg_landau", {"I": 11}).field,
         np.random.default_rng(2).uniform(-1.0, 1.0, (60, 10))),
        ("returns_its_argument", lambda s, out=None: s,
         np.random.default_rng(3).normal(0.0, 1.0, (40, 4))),
        ("single_state", decayetc, np.array([1.0, -0.5])),
    ], ids=[  # spelled out, so a case's name does not follow its field's __name__
        "bistable3d-field0-x0", "ginzburg_landau-field1-x1",
        "returns_its_argument-<lambda>-x2", "single_state-decayetc-x3"])
    @pytest.mark.parametrize("dt", [1e-3, 0.37])
    def test_bit_identical_to_reference(self, name, field, x, dt):
        before = x.copy()
        assert np.array_equal(rk4_step(field, x, dt), rk4_reference(field, before.copy(), dt))
        assert np.array_equal(rk2_step(field, x, dt), rk2_reference(field, before.copy(), dt))
        assert np.array_equal(x, before)


class TestWorkspaceStep:
    """Through a workspace, a step writes every stage into a buffer it keeps
    and passes that buffer to the field as ``out=``; the bits stay those of
    a step without one."""

    @pytest.mark.parametrize("name, field, x", [
        ("bistable3d", make_system("bistable3d").field,
         np.random.default_rng(1).uniform(-2.0, 2.0, (500, 3))),
        ("ginzburg_landau", make_system("ginzburg_landau", {"I": 11}).field,
         np.random.default_rng(2).uniform(-1.0, 1.0, (60, 10))),
        ("returns_its_argument", lambda s, out=None: s,
         np.random.default_rng(3).normal(0.0, 1.0, (40, 4))),
        ("single_state", lambda s, out=None: np.negative(s, out=out), np.array([1.0, -0.5])),
    ], ids=["bistable3d", "ginzburg_landau", "returns_its_argument", "single_state"])
    @pytest.mark.parametrize("dt", [1e-3, 0.37])
    def test_bit_identical_to_allocating_step_and_reuses_buffers(self, name, field, x, dt):
        before = x.copy()
        ws = Workspace()
        out = np.full_like(x, np.nan)
        got = rk4_step(field, x, dt, out=out, workspace=ws)
        assert got is out
        assert np.array_equal(got, rk4_step(field, before.copy(), dt))
        assert np.array_equal(x, before)
        first = got.copy()
        arrays = dict(ws._arrays)
        # one block: k1..k4, three stage inputs and 2 k3
        assert [a.shape for a in arrays.values()] == [(8, *x.shape)]

        # another state, into another array: the same buffers, no stale bits
        x2 = x[::-1].copy()
        out2 = np.full_like(x, np.nan)
        assert np.array_equal(rk4_step(field, x2, dt, out=out2, workspace=ws),
                              rk4_step(field, x2.copy(), dt))
        assert ws._arrays.keys() == arrays.keys()
        assert all(ws._arrays[k] is a for k, a in arrays.items())
        assert np.array_equal(out, first) and np.array_equal(x, before)

    @pytest.mark.parametrize("dt", [1e-3, 0.37])
    def test_rk2_same_bits_with_and_without_a_workspace(self, dt):
        # Heun's k1, k2 and stage input are three arrays kept under their
        # names and the state's width; a second step through the same
        # workspace, and one over fewer rows, reuses them, and each step
        # returns out
        cases = [
            (make_system("bistable3d").field,
             np.random.default_rng(1).uniform(-2.0, 2.0, (500, 3))),
            (make_system("ginzburg_landau", {"I": 11}).field,
             np.random.default_rng(2).uniform(-1.0, 1.0, (60, 10))),
            (lambda s, out=None: s, np.random.default_rng(3).normal(0.0, 1.0, (40, 4))),
            (lambda s, out=None: np.negative(s, out=out), np.array([1.0, -0.5])),
        ]
        for field, x in cases:
            before = x.copy()
            ws = Workspace()
            out = np.full_like(x, np.nan)
            assert rk2_step(field, x, dt, out=out, workspace=ws) is out
            assert out.tobytes() == rk2_step(field, before.copy(), dt).tobytes()
            assert out.tobytes() == rk2_reference(field, before.copy(), dt).tobytes()
            assert np.array_equal(x, before)
            arrays = dict(ws._arrays)
            assert {k: a.shape for k, a in arrays.items()} == {
                (name, *x.shape[1:]): x.shape for name in ("rk2.k1", "rk2.k2", "rk2.s2")}
            first = out.copy()
            x2 = x[::-1].copy()
            out2 = np.full_like(x, np.nan)
            assert rk2_step(field, x2, dt, out=out2, workspace=ws) is out2
            assert out2.tobytes() == rk2_step(field, x2.copy(), dt).tobytes()
            if x.ndim == 2:
                x3 = x2[: len(x) // 3]
                assert (rk2_step(field, x3, dt, out=np.empty_like(x3), workspace=ws).tobytes()
                        == rk2_step(field, x3.copy(), dt).tobytes())
            assert all(ws._arrays[k] is a for k, a in arrays.items())
            assert ws._arrays.keys() == arrays.keys() and np.array_equal(out, first)

    def test_without_a_workspace_same_bits_as_with_one(self):
        # without one, a step takes its buffers from a fresh workspace of its
        # own: the field still gets out=, and two steps share no buffer
        system = make_system("ginzburg_landau", {"I": 11})
        x = np.random.default_rng(4).uniform(-1.0, 1.0, (30, 10))
        outs = []

        def field(s, out=None):
            outs.append(out)
            return system.field(s, out=out)

        first = rk4_step(field, x, 0.01)
        assert len(outs) == 4 and all(out is not None for out in outs)
        assert np.array_equal(first, rk4_step(system.field, x, 0.01, workspace=Workspace()))
        kept = first.copy()
        rk4_step(field, x[::-1].copy(), 0.01)
        assert not any(np.shares_memory(a, b) for a in outs[:4] for b in outs[4:])
        assert np.array_equal(first, kept)

    def test_out_without_workspace(self):
        x = np.array([[1.0, -0.5], [0.25, 2.0]])
        out = np.empty_like(x)
        assert rk4_step(decayetc, x, 0.1, out=out) is out
        assert np.array_equal(out, rk4_step(decayetc, x, 0.1))


class TestRollout:
    def test_brusselator_stable_state_is_fixed(self):
        system = make_system("brusselator", {"I": 9})
        x = system.extras["stable_state"]
        assert np.abs(system.field(x)).max() == 0.0
        out = final_state(rk4_step, system.field, x, 1e-4, 50)
        assert np.abs(out - x).max() == 0.0

    def test_bistable_converges_to_positive_attractor(self):
        system = make_system("bistable3d")
        x0 = np.array([0.1, 0.0, 0.0])
        coarse = final_state(rk4_step, system.field, x0, 1e-2, 500)
        fine = final_state(rk4_step, system.field, x0, 1e-3, 5000)
        assert np.abs(coarse - fine).max() < 1e-8  # integration error negligible
        assert np.abs(coarse - np.array([1.0, 0.0, 0.0])).max() < 1e-4


class TestOrders:
    def test_empirical_convergence_orders(self):
        # global error on xdot = -x over [0, 1]
        exact = np.exp(-1.0)
        slopes = {}
        for step, expect in ((rk4_step, 4.0), (rk2_step, 2.0)):
            errs = []
            dts = [0.1, 0.05, 0.025, 0.0125]
            for dt in dts:
                out = final_state(step, decayetc, np.array([1.0]), dt, int(round(1.0 / dt)))
                errs.append(abs(out[0] - exact))
            fit = np.polyfit(np.log(dts), np.log(errs), 1)[0]
            slopes[step] = fit
            assert abs(fit - expect) <= 0.1
        assert slopes[rk4_step] > slopes[rk2_step]

    def test_time_reversal_sanity(self):
        system = make_system("limitcycle2d")
        x0 = np.array([0.7, 2.0])
        fwd = final_state(rk4_step, system.field, x0, 1e-3, 1000)
        back = final_state(rk4_step, lambda s, out=None: -system.field(s), fwd, 1e-4, 10000)
        assert np.abs(back - x0).max() < 1e-6
