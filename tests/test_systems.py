import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest

from qpland import systems
from qpland.datasets import generate
from qpland.errors import ConfigError, NonFiniteError, SamplingError
from qpland.integrators import rk4_step
from qpland.systems import (exact_decomposition_bistable3d, exact_u_limitcycle2d, gl_energy,
                            gl_stable_states, make_system, rhs_bistable3d, rhs_yeast3d)

YEAST_TEST_PARAMS = {
    "j1": 0.5, "j2": 0.5, "j3": 0.5, "k1": 0.3, "k2": 0.3, "k3": 0.3,
    "ki": 1.0, "ks": 1.0, "ka1": 0.5, "ka2": 0.5, "a0": 0.01,
}


class TestBistable3d:
    def test_equilibria(self):
        assert np.array_equal(rhs_bistable3d(np.zeros(3)), np.zeros(3))
        assert np.array_equal(rhs_bistable3d(np.array([1.0, 0, 0])), np.zeros(3))
        assert np.array_equal(rhs_bistable3d(np.array([-1.0, 0, 0])), np.zeros(3))

    def test_plug_in_arithmetic(self):
        out = rhs_bistable3d(np.array([0.5, 0.2, -0.1]))
        assert np.allclose(out, [0.65, -0.95, -0.65], rtol=0, atol=1e-15)

    def test_exact_decomposition_orthogonal(self, rng):
        pts = rng.uniform(-2, 2, (1000, 3))
        grad_v, g = exact_decomposition_bistable3d(pts)
        assert np.abs((grad_v * g).sum(axis=1)).max() <= 1e-12

    def test_exact_decomposition_reconstructs_rhs(self, rng):
        pts = rng.uniform(-2, 2, (200, 3))
        grad_v, g = exact_decomposition_bistable3d(pts)
        assert np.array_equal(g - grad_v, rhs_bistable3d(pts))

    def test_decomposition_vanishes_at_attractor(self):
        grad_v, g = exact_decomposition_bistable3d(np.array([1.0, 0.0, 0.0]))
        assert np.array_equal(grad_v, np.zeros(3))
        assert np.array_equal(g, np.zeros(3))

    def test_samples_lie_in_box(self):
        system = make_system("bistable3d")
        pts = system.sample(np.random.default_rng(3), 500)
        assert (pts[:, 0] >= -2).all() and (pts[:, 0] <= 2).all()
        assert (np.abs(pts[:, 1:]) <= 1.5).all()


class TestLimitCycle2d:
    def test_center_is_equilibrium_with_quarter_potential(self):
        system = make_system("limitcycle2d")
        center = np.array([1.0, 2.5])
        assert np.array_equal(system.field(center), np.zeros(2))
        assert exact_u_limitcycle2d(center) == 0.25

    def test_u_vanishes_on_ellipse(self, rng):
        a, b = 1.0, 2.5
        phi = rng.uniform(0, 2 * np.pi, 200)
        u = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        q_dir = u[:, 0] ** 2 + u[:, 0] * u[:, 1] + u[:, 1] ** 2
        pts = np.array([a, b]) + np.sqrt(0.5 / q_dir)[:, None] * u
        assert np.abs(exact_u_limitcycle2d(pts)).max() <= 1e-25

    def test_rotation_orthogonal_to_grad_u(self, rng):
        system = make_system("limitcycle2d")
        pts = rng.uniform([-0.5, 1.0], [2.5, 4.0], (500, 2))
        grad_v, g = system.exact_grad_v(pts), system.exact_g(pts)
        assert np.abs((grad_v * g).sum(axis=1)).max() <= 1e-12
        assert np.array_equal(g - grad_v, system.field(pts))


class TestYeast3d:
    def test_missing_parameter_named(self):
        incomplete = {k: v for k, v in YEAST_TEST_PARAMS.items() if k != "ks"}
        with pytest.raises(ConfigError) as exc:
            make_system("yeast3d", incomplete)
        assert any("ks" in p for p in exc.value.problems)

    def test_all_missing_parameters_listed_at_once(self):
        with pytest.raises(ConfigError) as exc:
            make_system("yeast3d", {})
        assert len(exc.value.problems) == 11

    def test_axis_reduction_at_x_y_zero(self):
        p = YEAST_TEST_PARAMS
        z = 1.7
        out = rhs_yeast3d(np.array([0.0, 0.0, z]), p)
        assert out[0] == p["a0"]
        assert out[1] == 0.0
        assert out[2] == pytest.approx(p["ks"] * z**2 / (p["j3"] ** 2 + z**2) - p["k3"] * z, abs=1e-15)

    def test_sampler_respects_rejection_predicate(self):
        system = make_system("yeast3d", YEAST_TEST_PARAMS)
        pts = system.sample(np.random.default_rng(11), 300)
        assert pts.shape == (300, 3)
        assert (pts >= 0).all() and (pts <= 5).all()
        assert np.abs(system.field(pts)).max(axis=1).max() < 5.0

    def test_sampler_rejection_overflow_raises(self):
        # impossible predicate: huge a0 makes ||f||_inf >= 5 everywhere
        bad = dict(YEAST_TEST_PARAMS, a0=100.0)
        system = make_system("yeast3d", bad)
        with pytest.raises(SamplingError):
            system.sample(np.random.default_rng(0), 10, _max_draws=2000)


class TestGinzburgLandau:
    def test_energy_at_zero_state(self):
        system = make_system("ginzburg_landau", {"I": 51, "delta": 0.1})
        assert system.dim == 50
        assert system.energy(np.zeros(50)) == pytest.approx(127.5, abs=1e-10)

    def test_field_is_negative_energy_gradient(self, rng):
        system = make_system("ginzburg_landau", {"I": 13, "delta": 0.1})
        u = rng.uniform(-1, 1, system.dim)
        fd = np.empty(system.dim)
        for i in range(system.dim):
            e = np.zeros(system.dim)
            e[i] = 1e-6
            fd[i] = (system.energy(u + e) - system.energy(u - e)) / 2e-6
        f = system.field(u)
        assert np.abs(f + fd).max() / np.abs(fd).max() <= 1e-6

    def test_two_minima_exist_and_are_symmetric(self):
        system = make_system("ginzburg_landau", {"I": 21, "delta": 0.1})
        u_minus, u_plus = gl_stable_states(system, dt=1e-3, tol=1e-8)
        assert np.abs(system.field(u_minus)).max() <= 1e-8
        assert np.abs(system.field(u_plus)).max() <= 1e-8
        assert u_plus.max() > 0.5 and u_minus.min() < -0.5
        assert np.abs(u_plus + u_minus).max() < 1e-6  # u -> -u symmetry
        # so U = 2E, pinned to 0 at u_-, vanishes at u_+ too
        assert abs(2.0 * system.energy(u_plus) - 2.0 * system.energy(u_minus)) < 1e-6

    def test_relaxation_blow_up_is_located_at_its_step(self):
        # at 4 times the stable step the relaxation overflows within a few
        # steps; a NaN never meets tol, so unchecked it would run max_steps
        system = make_system("ginzburg_landau", {"I": 21, "delta": 0.1})
        dt = 4.0 * system.extras["rk4_dt_limit"]
        with pytest.raises(NonFiniteError) as exc:
            gl_stable_states(system, dt=dt)
        assert str(exc.value) == "non-finite value in ginzburg_landau relaxation, step 3, index 0"

    def test_sampler_normalization_is_exact(self):
        system = make_system("ginzburg_landau", {"I": 21, "delta": 0.1})
        rng = np.random.default_rng(5)
        pts = system.sample(rng, 100)
        # reproduce the amplitude draws to compare against the peak
        rng2 = np.random.default_rng(5)
        rng2.uniform(-1.0, 1.0, size=(100, 4))
        amps = rng2.uniform(0.0, 1.5, size=(100, 1))[:, 0]
        assert np.array_equal(np.abs(pts).max(axis=1), amps)

    def test_energy_batched(self, rng):
        vals = gl_energy(rng.uniform(-1, 1, (7, 20)), 21, 0.1)
        assert vals.shape == (7,)


def gl_gradient_on_the_padded_chain(u, n_cells, delta):
    """The gradient as written on the chain padded with its pinned ends, in
    the order of operations ``gl_energy_gradient`` keeps."""
    up = np.concatenate([np.zeros((*u.shape[:-1], 1)), u, np.zeros((*u.shape[:-1], 1))],
                        axis=-1)
    lap = (-2.0 * up[..., 1:-1] + up[..., :-2]) + up[..., 2:]
    return lap / (1.0 / n_cells) ** 2 * -delta + (u * u * u - u) / delta


class TestGinzburgLandauGradient:
    @pytest.mark.parametrize("n_cells", [2, 3, 11, 51])
    @pytest.mark.parametrize("lead", [(), (1,), (37,), (2, 3)])
    def test_bit_identical_to_the_padded_chain(self, n_cells, lead, rng):
        # signed zeros and +-1, where -0.0 and 0.0 could part ways
        u = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 1e-300], size=(*lead, n_cells - 1))
        u = np.where(rng.random(u.shape) < 0.5, u, rng.normal(0.0, 1.0, u.shape))
        want = gl_gradient_on_the_padded_chain(u, n_cells, 0.1)
        assert systems.gl_energy_gradient(u, n_cells, 0.1).tobytes() == want.tobytes()
        fortran = np.asfortranarray(u)
        assert systems.gl_energy_gradient(fortran, n_cells, 0.1).tobytes() == want.tobytes()
        strided = np.full((*u.shape, 2), np.nan)[..., 0]
        assert systems.gl_energy_gradient(u, n_cells, 0.1, out=strided) is strided
        assert np.ascontiguousarray(strided).tobytes() == want.tobytes()


def brusselator_rhs_on_slices(x, n_cells, alpha, a_param):
    """The right-hand side built from per-field slices, in the order of
    operations ``rhs_brusselator`` keeps."""
    m = n_cells + 1
    u, v = x[..., :m], x[..., m:]

    def lap(w):
        out = np.empty_like(w)
        out[..., 1:-1] = w[..., :-2] - 2.0 * w[..., 1:-1] + w[..., 2:]
        out[..., 0] = 2.0 * (w[..., 1] - w[..., 0])
        out[..., -1] = 2.0 * (w[..., -2] - w[..., -1])
        return out / (1.0 / n_cells) ** 2

    uu_v = u * u * v
    return np.concatenate([(lap(u) + 1.0 + uu_v - (1.0 + a_param) * u) / alpha,
                           lap(v) + a_param * u - uu_v], axis=-1)


class TestBrusselator:
    @pytest.mark.parametrize("n_cells", [2, 3, 19])
    @pytest.mark.parametrize("lead", [(), (1,), (37,), (2, 3)])
    def test_bit_identical_to_the_slices(self, n_cells, lead, rng):
        # signed zeros and +-1, where -0.0 and 0.0 could part ways
        x = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 1e-300],
                       size=(*lead, 2 * (n_cells + 1)))
        x = np.where(rng.random(x.shape) < 0.5, x, rng.normal(0.0, 1.0, x.shape))
        want = brusselator_rhs_on_slices(x, n_cells, 0.1, 0.5)
        assert systems.rhs_brusselator(x, n_cells, 0.1, 0.5).tobytes() == want.tobytes()
        fortran = np.asfortranarray(x)
        assert systems.rhs_brusselator(fortran, n_cells, 0.1, 0.5).tobytes() == want.tobytes()
        strided = np.full((*x.shape, 2), np.nan)[..., 0]
        assert systems.rhs_brusselator(x, n_cells, 0.1, 0.5, out=strided) is strided
        assert np.ascontiguousarray(strided).tobytes() == want.tobytes()

    def test_dimension_for_default_grid(self):
        system = make_system("brusselator")
        assert system.params["I"] == 19
        assert system.dim == 40

    def test_stable_state_zero_field(self):
        system = make_system("brusselator", {"I": 9})
        assert np.abs(system.field(system.extras["stable_state"])).max() == 0.0

    def test_constant_state_reduces_to_reaction_terms(self):
        system = make_system("brusselator", {"I": 7, "alpha": 0.2, "A": 0.4})
        c1, c2 = 1.3, 0.6
        x = np.concatenate([np.full(8, c1), np.full(8, c2)])
        f = system.field(x)
        du = (1.0 + c1 * c1 * c2 - 1.4 * c1) / 0.2
        dv = 0.4 * c1 - c1 * c1 * c2
        assert np.allclose(f[:8], du, rtol=0, atol=1e-14)
        assert np.allclose(f[8:], dv, rtol=0, atol=1e-14)

    def test_sampler_ranges(self):
        system = make_system("brusselator", {"I": 9})
        pts = system.sample(np.random.default_rng(9), 400)
        m = 10
        u, v = pts[:, :m], pts[:, m:]
        assert (u >= 0.5 - 1e-12).all() and (u <= 1.5 + 1e-12).all()
        assert (v >= -1e-12).all() and (v <= 1.0 + 1e-12).all()

    def test_relaxes_to_stable_state(self):
        system = make_system("brusselator", {"I": 9})
        x = system.sample(np.random.default_rng(2), 1)[0]
        for _ in range(40000):
            x = rk4_step(system.field, x, 1e-4)
        assert np.abs(x - system.extras["stable_state"]).max() < 1e-4


class TestOutArgument:
    @pytest.mark.parametrize("name, params", [
        ("bistable3d", {}), ("limitcycle2d", {}), ("yeast3d", YEAST_TEST_PARAMS),
        ("ginzburg_landau", {"I": 11}), ("brusselator", {"I": 9}),
    ])
    @pytest.mark.parametrize("rows", [None, 37])
    def test_field_writes_into_out_with_the_same_bits(self, name, params, rows):
        system = make_system(name, params)
        x = system.sample(np.random.default_rng(5), rows or 1)
        if rows is None:
            x = x[0]
        before = x.copy()
        buf = np.full_like(x, np.nan)
        assert system.field(x, out=buf) is buf
        assert buf.tobytes() == system.field(x).tobytes()
        assert np.array_equal(x, before)


def rhs_out_params(source):
    """Names of the ``rhs_*`` functions defined in ``source``, each with
    whether it takes an ``out`` parameter."""
    return {node.name: "out" in [a.arg for a in node.args.args + node.args.kwonlyargs]
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.name.startswith("rhs_")}


class TestRhsTakeOut:
    def test_every_rhs_takes_out(self):
        takes_out = rhs_out_params(Path(systems.__file__).read_text(encoding="utf-8"))
        assert len(takes_out) == len(systems.SYSTEM_NAMES)
        assert all(takes_out.values()), takes_out

    def test_guard_flags_an_rhs_without_out(self):
        source = Path(systems.__file__).read_text(encoding="utf-8")
        dropped = source.replace("def rhs_yeast3d(x, params, out=None):",
                                 "def rhs_yeast3d(x, params):")
        assert dropped != source
        takes_out = rhs_out_params(dropped)
        assert [name for name, ok in takes_out.items() if not ok] == ["rhs_yeast3d"]


class TestStepLimit:
    # 2.785 h^2 / (4 delta) and 2.785 alpha h^2 / 4, h = 1 / I
    @pytest.mark.parametrize("name, params, limit, rounded", [
        ("ginzburg_landau", {"I": 51}, 2.785 / (51**2 * 4 * 0.1), 2.68e-3),
        ("brusselator", {"I": 19, "alpha": 0.1}, 2.785 * 0.1 / (19**2 * 4), 1.93e-4),
    ])
    def test_limit_is_the_linear_rk4_bound(self, name, params, limit, rounded):
        got = make_system(name, params).extras["rk4_dt_limit"]
        assert got == pytest.approx(limit, rel=1e-12)
        assert float(f"{got:.3g}") == rounded


class TestMakeSystem:
    def test_unknown_system_rejected(self):
        with pytest.raises(ConfigError):
            make_system("pendulum")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError):
            make_system("bistable3d", {"gamma": 1.0})
        with pytest.raises(ConfigError):
            make_system("ginzburg_landau", {"depth": 3})

    def test_every_unknown_or_non_numeric_parameter_is_named_at_once(self):
        with pytest.raises(ConfigError) as exc:
            make_system("brusselator", {"I": "x", "depth": 3, "alpha": True, "A": 0.5})
        assert exc.value.problems == ["brusselator: unknown parameter 'depth'",
                                      "brusselator: parameter 'I' must be a number, got 'x'",
                                      "brusselator: parameter 'alpha' must be a number, got True"]

    @pytest.mark.parametrize("name, value, kind", [("ginzburg_landau", 6.5, "an integer"),
                                                   ("brusselator", 5.9, "an integer"),
                                                   ("ginzburg_landau", True, "a number")])
    def test_non_integer_cell_count_named_with_every_other_problem(self, name, value, kind):
        # I counts grid cells, so a fractional value has no meaning to round
        with pytest.raises(ConfigError) as exc:
            make_system(name, {"I": value, "depth": 3})
        assert exc.value.problems == [f"{name}: unknown parameter 'depth'",
                                      f"{name}: parameter 'I' must be {kind}, got {value!r}"]


# sha256 of the float64 bytes of a tiny dataset's x and x_next, recorded with
# NumPy 2.4.6. The right-hand sides use only + - * /, so these do not depend
# on the host's vector unit; the Ginzburg-Landau sampler's sines and 4-term
# matmul are the only library arithmetic in them.
PINNED_GENERATE_SHA256 = {
    "bistable3d": ("6ec1f7ed0962c5803956acb64120f2d39c9882fe106f3989e2bc7e1a4b0b15c7",
                   "d95f1b77890d59c6a0adb19df701f286e2c4f8db253bb23192f84efcf68a7da5"),
    "ginzburg_landau": ("b3caf8690a50a2a3b35bcd33f37c22ae8037d28d730c95c2c2d927a9718bf74a",
                        "2a57abbe8c879ca37c69d12b8f673f52e88e4bb6af46156d8ff19c296100e68c"),
    "brusselator": ("b1d394b66edae9cd04a709878b3099d552df538d6c8d47d3e02efc9926a8f10c",
                    "64400eee0f6abb234bb88ac4eff4bff9576d3719a9f37d5022619a976402efa8"),
}


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


class TestGeneratedBytes:
    # the Ginzburg-Landau run is large enough that, with NumPy 2.4.6 on an
    # AVX-512 x86_64 CPU, u**3 in place of the product cube changes its digests
    @pytest.mark.parametrize("name, params, n, dt, pairs", [
        ("bistable3d", {}, 4, 1e-2, 3),
        ("ginzburg_landau", {"I": 6, "delta": 0.1}, 8, 1e-3, 20),
        ("brusselator", {"I": 5}, 8, 1e-3, 20),
    ])
    def test_generated_pairs_match_pinned_bytes(self, name, params, n, dt, pairs):
        dataset = generate(make_system(name, params), n, dt, 2 * pairs * dt, 2, seed=11)
        assert dataset.n_pairs == n * pairs
        assert (_sha256(dataset.x), _sha256(dataset.x_next)) == PINNED_GENERATE_SHA256[name]


def non_square_powers(source):
    """(line, text) of each ``a ** b`` or ``np.power(a, b)`` in ``source``
    whose exponent is not the literal 2 and whose base is not a number
    literal: cubes of arrays are written as products (see rhs_bistable3d)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            base, exponent = node.left, node.right
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("power", "float_power") and len(node.args) == 2):
            base, exponent = node.args
        else:
            continue
        if isinstance(exponent, ast.Constant) and exponent.value == 2:
            continue
        if isinstance(base, ast.Constant) and isinstance(base.value, (int, float)):
            continue
        found.append((node.lineno, ast.get_source_segment(source, node)))
    return sorted(found)


class TestCubesAreProducts:
    def test_systems_raise_arrays_to_no_power_but_two(self):
        source = Path(systems.__file__).read_text(encoding="utf-8")
        assert non_square_powers(source) == []

    def test_guard_flags_a_cube(self):
        source = ("def f(u, x, p):\n"
                  "    a = u**3 - u + x[..., 0] ** 2 + 10**6 + p['j'] ** 2\n"
                  "    return a + np.power(x, 3) + np.power(x, 2)\n")
        assert non_square_powers(source) == [(2, "u**3"), (3, "np.power(x, 3)")]
