import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate

from bayesinv import forward_ops as fo


@pytest.fixture
def unit_grid():
    return fo.Grid(0.0, 1.0, 50)


class TestGrid:
    def test_nodes_left_endpoint(self):
        g = fo.Grid(0.0, 1.0, 4)
        assert_allclose(g.nodes, [0.0, 0.25, 0.5, 0.75])
        assert g.spacing == 0.25

    def test_nodes_increasing_constant_spacing(self):
        g = fo.Grid(-2.0, 3.0, 17)
        d = np.diff(g.nodes)
        assert np.all(d > 0)
        assert_allclose(d, d[0])

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            fo.Grid(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            fo.Grid(1.0, 0.0, 5)


class TestGaussianBlur:
    def test_corner_entry_n2(self):
        op = fo.make_gaussian_blur(fo.Grid(0.0, 1.0, 2), psi=1.0)
        assert_allclose(op.matrix[0, 0], (1.0 / math.sqrt(2.0 * math.pi)) / 2.0, rtol=1e-12)

    def test_flat_limit_large_psi(self):
        def rel_spread(psi):
            row = fo.make_gaussian_blur(fo.Grid(0.0, 1.0, 20), psi).matrix[3]
            return (row.max() - row.min()) / row.max()

        assert rel_spread(1e4) < 1e-7
        assert rel_spread(1e4) < 1e-4 * rel_spread(10.0)

    def test_interior_row_sums_match_quadrature(self, unit_grid):
        # oracle: adaptive quadrature of the Gaussian density over [0, 1]
        psi = 0.05
        op = fo.make_gaussian_blur(unit_grid, psi)
        dens = lambda t, x: math.exp(-((x - t) ** 2) / (2 * psi**2)) / math.sqrt(2 * math.pi * psi**2)
        for i in range(10, 40):
            x = unit_grid.nodes[i]
            oracle, _ = integrate.quad(dens, 0.0, 1.0, args=(x,))
            assert abs(op.matrix[i].sum() - oracle) < 1e-3
            assert abs(op.matrix[i].sum() - 1.0) < 1e-3

    def test_rejects_nonpositive_psi(self, unit_grid):
        with pytest.raises(ValueError, match="psi"):
            fo.make_gaussian_blur(unit_grid, 0.0)

    def test_entries_are_kernel_times_spacing(self, unit_grid):
        psi = 0.1
        op = fo.make_gaussian_blur(unit_grid, psi)
        rng = np.random.default_rng(0)
        for _ in range(20):
            i, j = rng.integers(0, 50, 2)
            d = (i - j) * unit_grid.spacing  # the exact lag x_i - t_j
            k = math.exp(-(d**2) / (2 * psi**2)) / math.sqrt(2 * math.pi * psi**2)
            assert_allclose(op.matrix[i, j], k * unit_grid.spacing, rtol=1e-14)


class TestTravelTime:
    def test_constant_slowness(self):
        g = fo.Grid(0.0, 1.0, 100)
        op = fo.make_travel_time(g)
        pred = fo.apply(op, np.ones(100))
        assert np.all(np.abs(pred - g.nodes) <= g.spacing + 1e-12)

    def test_linear_slowness_integrates_to_square(self):
        # oracle: integral of 2u from 0 to 1 is 1
        g = fo.Grid(0.0, 1.0, 100)
        op = fo.make_travel_time(g)
        pred = fo.apply(op, 2.0 * g.nodes)
        assert abs(pred[-1] - 1.0) <= 2.0 * g.spacing

    def test_zero_slowness(self):
        g = fo.Grid(0.0, 1.0, 10)
        op = fo.make_travel_time(g)
        assert_allclose(fo.apply(op, np.zeros(10)), 0.0)

    def test_lower_triangular(self):
        op = fo.make_travel_time(fo.Grid(0.0, 2.0, 12))
        assert_allclose(op.matrix, np.tril(op.matrix))


class TestGravity:
    def test_kernel_value_at_coincidence(self):
        g = fo.Grid(-5.0, 5.0, 40)
        op = fo.make_gravity(g, h=1.0)
        i = 10
        assert_allclose(op.matrix[i, i] / g.spacing, 1.0, rtol=1e-14)

    def test_even_in_separation(self):
        g = fo.Grid(-5.0, 5.0, 40)
        op = fo.make_gravity(g, h=2.0)
        assert_allclose(op.matrix, op.matrix.T, rtol=1e-13)

    def test_uniform_line_mass_at_origin(self):
        # oracle: antiderivative u/sqrt(u^2+h^2) gives 2*5/sqrt(26) on [-5, 5]
        g = fo.Grid(-5.0, 5.0, 2000)
        op = fo.make_gravity(g, h=1.0)
        pred = fo.apply(op, np.ones(2000))
        at_zero = pred[1000]
        assert g.nodes[1000] == 0.0
        exact = 2.0 * 5.0 / math.sqrt(26.0)
        assert abs(at_zero - exact) / exact < 0.01

    def test_rejects_bad_height(self):
        with pytest.raises(ValueError, match="h"):
            fo.make_gravity(fo.Grid(-1.0, 1.0, 10), h=-1.0)


class TestDiffraction:
    def test_opposite_angles_hit_sinc_peak(self):
        n = 16
        g = fo.Grid(-math.pi / 2, math.pi / 2, n)
        op = fo.make_diffraction(g)
        s = g.nodes
        for i in range(n):
            target = -s[i]
            js = np.where(np.abs(s + s[i]) < 1e-12)[0]
            for j in js:
                expect = (math.cos(s[i]) + math.cos(target)) ** 2 * g.spacing
                assert_allclose(op.matrix[i, j], expect, rtol=1e-12)

    def test_grazing_angles_vanish(self):
        # cos terms cancel when both angles are +-pi/2
        g = fo.Grid(-math.pi / 2, math.pi / 2, 8)
        mat = fo.make_diffraction(fo.Grid(-math.pi / 2, math.pi / 2, 8)).matrix
        s = g.nodes
        val = (math.cos(s[0]) + math.cos(-s[0])) ** 2
        assert val > 0  # interior check that the construction is alive
        # exact pi/2 evaluation via direct kernel formula
        z = math.pi * (math.sin(math.pi / 2) + math.sin(math.pi / 2))
        entry = (math.cos(math.pi / 2) + math.cos(math.pi / 2)) ** 2 * (math.sin(z) / z) ** 2
        assert abs(entry) < 1e-30

    def test_matches_scalar_loop(self):
        # oracle: element-wise recomputation with plain math calls
        n = 64
        g = fo.Grid(-math.pi / 2, math.pi / 2, n)
        op = fo.make_diffraction(g)
        s = g.nodes
        for i in range(0, n, 7):
            for j in range(0, n, 5):
                arg = math.sin(s[i]) + math.sin(s[j])
                if arg == 0.0:
                    sinc2 = 1.0
                else:
                    sinc2 = (math.sin(math.pi * arg) / (math.pi * arg)) ** 2
                expect = (math.cos(s[i]) + math.cos(s[j])) ** 2 * sinc2 * g.spacing
                assert_allclose(op.matrix[i, j], expect, rtol=1e-12, atol=1e-300)

    def test_rejects_grid_outside_angles(self):
        with pytest.raises(ValueError, match="pi/2"):
            fo.make_diffraction(fo.Grid(-2.0, 2.0, 8))


class TestGroundwater:
    def test_causality(self):
        g = fo.Grid(0.0, 1.0, 30)
        op = fo.make_groundwater(g, D=0.5, nu=1.0, x_obs=1.0, T=1.0)
        assert_allclose(np.triu(op.matrix), 0.0)

    def test_first_passage_density_mass(self):
        # oracle: adaptive quadrature of f over (0, inf); should be 1 for nu > 0
        D, nu, x = 0.5, 1.0, 1.0
        f = lambda tau: x / (2 * math.sqrt(math.pi * D * tau**3)) * math.exp(
            -((x - nu * tau) ** 2) / (4 * D * tau)
        )
        mass, _ = integrate.quad(f, 0.0, np.inf)
        assert abs(mass - 1.0) < 1e-3
        g = fo.Grid(0.0, 40.0, 4000)
        op = fo.make_groundwater(g, D=D, nu=nu, x_obs=x, T=40.0)
        # row sums of a late observation approximate the same integral
        assert abs(op.matrix[-1].sum() - mass) < 1e-2

    def test_zero_input_history(self):
        g = fo.Grid(0.0, 1.0, 25)
        op = fo.make_groundwater(g, D=0.2, nu=0.5, x_obs=1.0, T=1.0)
        assert_allclose(fo.apply(op, np.zeros(25)), 0.0)

    def test_rejects_bad_parameters(self):
        g = fo.Grid(0.0, 1.0, 10)
        with pytest.raises(ValueError, match="D"):
            fo.make_groundwater(g, D=0.0, nu=1.0, x_obs=1.0, T=1.0)
        with pytest.raises(ValueError, match="T"):
            fo.make_groundwater(g, D=1.0, nu=1.0, x_obs=1.0, T=-1.0)
        with pytest.raises(ValueError, match="x_obs"):
            fo.make_groundwater(g, D=1.0, nu=1.0, x_obs=0.0, T=1.0)
        with pytest.raises(ValueError, match=r"grid must cover \[0, T\) = \[0, 2.0\)"):
            fo.make_groundwater(g, D=1.0, nu=1.0, x_obs=1.0, T=2.0)

    @pytest.mark.parametrize("D,x_obs", [(1e-320, 1.0), (1.0, 1e200)])
    def test_exponent_overflow_gives_finite_matrix_without_warnings(self, D, x_obs):
        # the exponent over- or underflows: exp gives 0 with no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            op = fo.make_groundwater(fo.Grid(0.0, 1.0, 5), D, 1.0, x_obs, 1.0)
        assert np.all(np.isfinite(op.matrix))


# the node-pair formulas each stationary maker replaced: entry (i, j) is the
# kernel at (x_i, t_j) times the spacing
def _blur_pairs(x, t, psi):
    return np.exp(-((x - t) ** 2) / (2.0 * psi * psi)) / math.sqrt(2.0 * math.pi * psi * psi)


def _groundwater_pairs(x, t, D, nu):
    tau = np.where(x > t, x - t, 1.0)
    val = (1.0 / (2.0 * np.sqrt(math.pi * D * tau**3))
           * np.exp(-((1.0 - nu * tau) ** 2) / (4.0 * D * tau)))
    return np.where(x > t, val, 0.0)


STATIONARY = {
    "blur": (lambda g, p: fo.make_gaussian_blur(g, p["psi"]),
             lambda x, t, p: _blur_pairs(x, t, p["psi"])),
    "travel_time": (lambda g, p: fo.make_travel_time(g), lambda x, t, p: (t <= x).astype(float)),
    "gravity": (lambda g, p: fo.make_gravity(g, p["h"]),
                lambda x, t, p: p["h"] / ((t - x) ** 2 + p["h"] * p["h"]) ** 1.5),
    "groundwater": (lambda g, p: fo.make_groundwater(g, p["D"], p["nu"], 1.0, 1.0),
                    lambda x, t, p: _groundwater_pairs(x, t, p["D"], p["nu"])),
}
WORKLOAD_PARAMS = {"psi": 0.05, "h": 1.0, "D": 0.5, "nu": 1.0}


def _grid_for(name, n):
    return fo.Grid(-5.0, 5.0, n) if name == "gravity" else fo.Grid(0.0, 1.0, n)


class TestStationary:
    @pytest.mark.parametrize("name", STATIONARY)
    @pytest.mark.parametrize("n", [2, 7, 100, 301])
    def test_every_diagonal_is_constant(self, name, n):
        mat = STATIONARY[name][0](_grid_for(name, n), WORKLOAD_PARAMS).matrix
        for k in range(1 - n, n):
            diag = np.diagonal(mat, -k)
            assert (diag == diag[0]).all(), (name, k)

    @pytest.mark.parametrize("name", STATIONARY)
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 1200), psi=st.floats(0.03, 0.07), h=st.floats(0.8, 1.2),
           D=st.floats(0.4, 0.6), nu=st.floats(0.8, 1.2))
    def test_matches_node_pair_formula(self, name, n, psi, h, D, nu):
        # the lag (i - j) h and the node difference x_i - t_j round differently;
        # in the parameter ranges the CLI and the benchmark use, the entries
        # agree to within a few ulps of the largest one
        params = {"psi": psi, "h": h, "D": D, "nu": nu}
        make, pairs = STATIONARY[name]
        grid = _grid_for(name, n)
        mat = make(grid, params).matrix
        ref = pairs(grid.nodes[:, None], grid.nodes[None, :], params) * grid.spacing
        assert np.max(np.abs(mat - ref)) <= 4e-15 * np.max(np.abs(ref))


class TestApply:
    def test_identity(self):
        g = fo.Grid(0.0, 1.0, 7)
        op = fo.make_identity(g)
        theta = np.arange(7.0)
        assert_allclose(fo.apply(op, theta), theta)

    def test_zero_vector(self):
        op = fo.make_gaussian_blur(fo.Grid(0.0, 1.0, 6), 0.3)
        assert_allclose(fo.apply(op, np.zeros(6)), 0.0)

    def test_matches_double_loop(self):
        # oracle: naive matrix multiply
        rng = np.random.default_rng(42)
        op = fo.make_gaussian_blur(fo.Grid(0.0, 1.0, 5), 0.2)
        theta = rng.standard_normal(5)
        out = fo.apply(op, theta)
        for i in range(5):
            acc = 0.0
            for j in range(5):
                acc += op.matrix[i, j] * theta[j]
            assert_allclose(out[i], acc, rtol=1e-13)

    def test_shape_mismatch(self):
        op = fo.make_identity(fo.Grid(0.0, 1.0, 4))
        with pytest.raises(ValueError, match="shape"):
            fo.apply(op, np.zeros(5))

    @settings(max_examples=50)
    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6),
        st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6),
        st.floats(-10, 10),
        st.floats(-10, 10),
    )
    def test_linearity(self, t1, t2, a, b):
        op = fo.make_gaussian_blur(fo.Grid(0.0, 1.0, 6), 0.25)
        t1, t2 = np.array(t1), np.array(t2)
        lhs = fo.apply(op, a * t1 + b * t2)
        rhs = a * fo.apply(op, t1) + b * fo.apply(op, t2)
        assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-9)


class TestSimulateData:
    def test_noiseless(self):
        op = fo.make_travel_time(fo.Grid(0.0, 1.0, 20))
        theta = np.linspace(0, 1, 20)
        assert_allclose(fo.simulate_data(op, theta, 0.0, seed=3), fo.apply(op, theta))

    def test_seed_determinism(self):
        op = fo.make_identity(fo.Grid(0.0, 1.0, 10))
        theta = np.ones(10)
        a = fo.simulate_data(op, theta, 0.5, seed=11)
        b = fo.simulate_data(op, theta, 0.5, seed=11)
        assert_allclose(a, b)
        c = fo.simulate_data(op, theta, 0.5, seed=12)
        assert not np.allclose(a, c)

    def test_noise_variance_monte_carlo(self):
        # oracle: pooled empirical variance over 1e5 residuals
        g = fo.Grid(0.0, 1.0, 100)
        op = fo.make_identity(g)
        theta = np.sin(2 * math.pi * g.nodes)
        clean = fo.apply(op, theta)
        sigma = 0.7
        resid = np.concatenate(
            [fo.simulate_data(op, theta, sigma, seed=s) - clean for s in range(1000)]
        )
        assert resid.size == 100000
        assert abs(resid.var() - sigma**2) / sigma**2 < 0.02

    def test_rejects_negative_sigma(self):
        op = fo.make_identity(fo.Grid(0.0, 1.0, 4))
        with pytest.raises(ValueError, match="sigma"):
            fo.simulate_data(op, np.zeros(4), -0.1, seed=0)


def test_serialization_roundtrip(tmp_path):
    op = fo.make_gravity(fo.Grid(-5.0, 5.0, 12), h=1.5)
    base = str(tmp_path / "op")
    fo.save_operator(op, base)
    back = fo.load_operator(base)
    assert back.kernel_tag == op.kernel_tag
    assert back.params == op.params
    assert back.row_grid == op.row_grid
    assert_allclose(back.matrix, op.matrix, rtol=0, atol=0)
