from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import linalg

from bayesinv import fd_priors as fp


class TestSmoothInterior:
    def test_kills_affine_sequences(self):
        root = fp.build_smooth_interior(12)
        i = np.arange(12.0)
        assert_allclose(root.matrix @ (3.0 * i - 2.0), 0.0, atol=1e-12)
        assert_allclose(root.matrix @ np.ones(12), 0.0, atol=1e-12)

    def test_single_bump(self):
        root = fp.build_smooth_interior(3)
        assert root.matrix.shape == (1, 3)
        assert_allclose(root.matrix @ np.array([0.0, 1.0, 0.0]), [1.0])

    def test_rank_is_n_minus_2_rows(self):
        # (n-2) x n with independent rows: all singular values positive,
        # so the induced n x n Gram has rank n-2 (affine null space)
        root = fp.build_smooth_interior(9)
        svals = np.linalg.svd(root.matrix, compute_uv=False)
        assert svals.min() > 1e-12
        gram_eigs = np.sort(np.linalg.eigvalsh(root.matrix.T @ root.matrix))
        assert gram_eigs[0] < 1e-12 and gram_eigs[1] < 1e-12
        assert gram_eigs[2] > 1e-12

    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="n must be an integer >= 3"):
            fp.build_smooth_interior(2)


class TestSmoothZeroBoundary:
    def test_constant_input_boundary_rows(self):
        root = fp.build_smooth_zero_boundary(4)
        out = root.matrix @ np.ones(4)
        assert_allclose(out[0], 0.5)
        assert_allclose(out[-1], 0.5)
        assert_allclose(out[1:-1], 0.0, atol=1e-15)

    def test_symmetric(self):
        mat = fp.build_smooth_zero_boundary(9).matrix
        assert_allclose(mat, mat.T)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_positive_determinant(self, n):
        # oracle: direct determinant computation
        assert np.linalg.det(fp.build_smooth_zero_boundary(n).matrix) > 0


class TestSmoothSoftBoundary:
    def test_boundary_deltas_equal(self):
        root = fp.build_smooth_soft_boundary(20)
        delta = root.params["delta"]
        assert_allclose(root.matrix[0, 0], delta)
        assert_allclose(root.matrix[-1, -1], delta)
        assert_allclose(root.matrix[0, 1:], 0.0)
        assert_allclose(root.matrix[-1, :-1], 0.0)

    def test_n3_matrix_by_hand(self):
        # oracle: hand evaluation from the zero-boundary 3x3 variant
        lz = np.array([[1.0, -0.5, 0.0], [-0.5, 1.0, -0.5], [0.0, -0.5, 1.0]])
        mid_var = np.linalg.inv(lz.T @ lz)[1, 1]
        delta = 1.0 / np.sqrt(mid_var)
        expect = np.array([[delta, 0.0, 0.0], [-0.5, 1.0, -0.5], [0.0, 0.0, delta]])
        assert_allclose(fp.build_smooth_soft_boundary(3).matrix, expect, rtol=1e-13)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_delta_matches_exact_rational_inverse(self, n):
        # oracle: Gauss-Jordan on Fractions for column mid of (Lz^T Lz)^(-1)
        lz = [[Fraction(1) if i == j else Fraction(-1, 2) if abs(i - j) == 1 else Fraction(0)
               for j in range(n)] for i in range(n)]
        mid = n // 2
        aug = [[sum(lz[k][i] * lz[k][j] for k in range(n)) for j in range(n)] + [Fraction(i == mid)]
               for i in range(n)]
        for c in range(n):
            aug[c] = [v / aug[c][c] for v in aug[c]]
            for r in range(n):
                if r != c:
                    aug[r] = [a - aug[r][c] * b for a, b in zip(aug[r], aug[c])]
        delta = fp.build_smooth_soft_boundary(n).params["delta"]
        assert delta == 1.0 / np.sqrt(float(aug[mid][n]))

    @pytest.mark.parametrize("n", [600, 1200, 2000])
    def test_delta_matches_banded_solves(self, n):
        # oracle: (Lz^T Lz)^(-1) = 4 T^(-2), T = tridiag(-1, 2, -1), by two
        # banded Cholesky solves; measured agreement 5.2e-13 at n = 2000
        ab = np.vstack([np.r_[0.0, -np.ones(n - 1)], np.full(n, 2.0)])
        e_mid = np.zeros(n)
        e_mid[n // 2] = 1.0
        mid_var = 4.0 * linalg.solveh_banded(ab, linalg.solveh_banded(ab, e_mid))[n // 2]
        delta = fp.build_smooth_soft_boundary(n).params["delta"]
        assert abs(delta * np.sqrt(mid_var) - 1.0) <= 1e-12

    def test_boundary_variance_matches_mid_variance(self):
        # oracle: Var[theta_0] from (Lhat^T Lhat)^(-1) against the mid-grid
        # variance under the zero-boundary prior; an approximation, not an
        # identity, hence the wide band
        n = 100
        hat = fp.build_smooth_soft_boundary(n).matrix
        tilde = fp.build_smooth_zero_boundary(n).matrix
        var_hat_0 = np.linalg.inv(hat.T @ hat)[0, 0]
        var_tilde_mid = np.linalg.inv(tilde.T @ tilde)[n // 2, n // 2]
        assert abs(var_hat_0 - var_tilde_mid) / var_tilde_mid < 0.25


class TestNonSmooth:
    def test_constant_hits_first_row_only(self):
        root = fp.build_nonsmooth(8)
        out = root.matrix @ (4.0 * np.ones(8))
        assert_allclose(out[0], 2.0)
        assert_allclose(out[1:], 0.0, atol=1e-15)

    def test_linear_ramp_increments(self):
        root = fp.build_nonsmooth(6)
        out = root.matrix @ np.arange(6.0)
        assert_allclose(out[1:], 0.5)

    def test_nonsingular_up_to_100(self):
        # oracle: smallest singular value stays positive
        for n in (2, 10, 50, 100):
            svals = np.linalg.svd(fp.build_nonsmooth(n).matrix, compute_uv=False)
            assert svals.min() > 1e-6

    def test_lower_bidiagonal(self):
        mat = fp.build_nonsmooth(7).matrix
        assert_allclose(mat, np.tril(mat))
        assert_allclose(mat, np.triu(mat, -1))


class TestJump:
    def test_empty_jump_list_is_nonsmooth(self):
        assert_allclose(fp.build_jump(9, []).matrix, fp.build_nonsmooth(9).matrix)
        assert fp.build_jump(9, []).variant == fp.NONSMOOTH

    def test_single_jump_scales_one_row(self):
        base = fp.build_nonsmooth(10).matrix
        root = fp.build_jump(10, [(4, 0.3)])
        assert root.variant == fp.SINGLE_JUMP
        assert_allclose(root.matrix[3], 0.3 * base[3])
        rest = [i for i in range(10) if i != 3]
        assert_allclose(root.matrix[rest], base[rest])

    def test_multi_jump_variant(self):
        root = fp.build_jump(10, [(2, 0.5), (7, 0.25)])
        assert root.variant == fp.MULTI_JUMP

    def test_increment_variance_from_block_inverse(self):
        # oracle: full covariance inversion; the variance of the increment
        # theta_l - theta_(l-1) under the prior with diagonal entry d at row l
        # is 4 tilde_sigma^2 / d^2 (the 1/2 prefactor contributes the 4)
        n, ell, d, ts = 6, 4, 0.09, 1.3  # d = xi^2 with xi = 0.3
        root = fp.build_jump(n, [(ell, d)], tilde_sigma=ts)
        prec = root.matrix.T @ root.matrix / ts**2
        cov = np.linalg.inv(prec)
        pick = np.zeros(n)
        pick[ell - 1] = 1.0
        pick[ell - 2] = -1.0
        var_inc = pick @ cov @ pick
        assert_allclose(var_inc, 4.0 * ts**2 / d**2, rtol=1e-9)

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            fp.build_jump(5, [(2, 1.5)])
        with pytest.raises(ValueError, match="index"):
            fp.build_jump(5, [(0, 0.5)])
        with pytest.raises(ValueError, match="duplicate"):
            fp.build_jump(5, [(2, 0.5), (2, 0.4)])


class TestPriorLogDensity:
    def test_zero_vector(self):
        root = fp.build_smooth_zero_boundary(5)
        assert fp.prior_log_density(root, np.zeros(5)) == 0.0

    @settings(max_examples=50)
    @given(st.floats(-100, 100))
    def test_quadratic_scaling(self, c):
        root = fp.build_nonsmooth(6, tilde_sigma=0.7)
        theta = np.array([0.3, -1.2, 0.5, 2.0, -0.1, 0.9])
        base = fp.prior_log_density(root, theta)
        assert_allclose(fp.prior_log_density(root, c * theta), c**2 * base, rtol=1e-9, atol=1e-12)

    def test_matches_norm_loop(self):
        # oracle: naive row-by-row accumulation
        rng = np.random.default_rng(7)
        root = fp.build_smooth_soft_boundary(10, tilde_sigma=2.0)
        theta = rng.standard_normal(10)
        acc = 0.0
        for row in root.matrix:
            acc += float(row @ theta) ** 2
        assert_allclose(fp.prior_log_density(root, theta), -acc / (2 * 4.0), rtol=1e-12)

    def test_nonpositive_and_zero_only_on_null_space(self):
        root = fp.build_smooth_interior(10)
        rng = np.random.default_rng(1)
        for _ in range(25):
            theta = rng.standard_normal(10)
            val = fp.prior_log_density(root, theta)
            assert val <= 0.0
        # affine input achieves exactly zero
        assert fp.prior_log_density(root, 2.0 + 3.0 * np.arange(10.0)) == 0.0

    def test_shape_error(self):
        root = fp.build_nonsmooth(4)
        with pytest.raises(ValueError, match="shape"):
            fp.prior_log_density(root, np.zeros(5))


def test_laplacian_scaling_invariant():
    # the second-difference rows recover f'' at rate n^(-2): the exact
    # relation is f''(x_j) ~ -2 n^2 (L theta)_j for the displayed L
    errs = {}
    for n in (50, 200):
        grid = np.arange(n) / n
        theta = np.sin(2 * np.pi * grid)
        root = fp.build_smooth_interior(n)
        approx = -2.0 * n**2 * (root.matrix @ theta)
        exact = -4.0 * np.pi**2 * np.sin(2 * np.pi * grid[1:-1])
        errs[n] = np.abs(approx - exact).max()
    assert errs[200] < errs[50] / 8.0


def test_serialization_roundtrip(tmp_path):
    root = fp.build_jump(8, [(3, 0.4)], tilde_sigma=1.5)
    base = str(tmp_path / "prior")
    fp.save_precision_root(root, base)
    back = fp.load_precision_root(base)
    assert back.variant == root.variant
    assert back.tilde_sigma == root.tilde_sigma
    assert back.params == root.params
    assert_allclose(back.matrix, root.matrix, rtol=0, atol=0)


@pytest.mark.parametrize("tilde_sigma", [0.0, -1.0, float("nan")])
def test_nonpositive_or_nan_tilde_sigma_rejected(tilde_sigma):
    with pytest.raises(ValueError, match="tilde_sigma must be positive"):
        fp.PrecisionRoot(np.eye(3), "custom", tilde_sigma)


def scatter_band(band, n):
    """The dense symmetric matrix whose diagonals k and -k are band[k]."""
    dense = np.zeros((n, n))
    idx = np.arange(n)
    for k, diag in band.items():
        dense[idx[: n - k], idx[k:]] = diag
        dense[idx[k:], idx[: n - k]] = diag
    return dense


@st.composite
def banded_roots(draw, values):
    """PrecisionRoots with random shape and offsets -3..3, some diagonals zero."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    mat = np.zeros((rows, cols))
    for a in range(-3, 4):
        size = np.diagonal(mat, a).size
        if size and draw(st.booleans()):
            r = np.arange(size) + max(0, -a)
            mat[r, r + a] = draw(st.lists(values, min_size=size, max_size=size))
    return fp.PrecisionRoot(mat, "custom")


# multiples of 1/16 up to 4: every product and sum of up to 7 of them is exact
DYADIC = st.integers(-64, 64).map(lambda v: v / 16)
FINITE = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
# builders whose entries are 0, +-0.5 and 1, so M^T M is exact in any order
EXACT_BUILDERS = (fp.build_smooth_interior, fp.build_smooth_zero_boundary, fp.build_nonsmooth)


def any_builder(n, which, xis):
    builders = EXACT_BUILDERS + (
        fp.build_smooth_soft_boundary,
        lambda n: fp.build_jump(n, [(1 + (n - 1) // 2, xis[0])]),
        lambda n: fp.build_jump(n, [(2, xis[0]), (3, xis[1]), (n, xis[2])]),
    )
    return builders[which](n)


class TestGramBand:
    @settings(max_examples=200, deadline=None)
    @given(banded_roots(DYADIC))
    def test_exact_entries_equal_dense_product(self, root):
        mat = root.matrix
        assert np.array_equal(scatter_band(root.gram_band(), root.n), mat.T @ mat)

    @settings(max_examples=200, deadline=None)
    @given(banded_roots(FINITE))
    def test_any_entries_within_one_dot_product_rounding(self, root):
        # each side sums at most 7 products, so lies within ~7u |M|^T |M| of
        # the exact value (u = eps/2); the BLAS fuses multiply-adds and the
        # band does not, so the two can differ by up to 14u = 7 eps
        mat = root.matrix
        bound = 7 * np.finfo(float).eps * (np.abs(mat).T @ np.abs(mat)) + np.finfo(float).tiny
        assert np.all(np.abs(scatter_band(root.gram_band(), root.n) - mat.T @ mat) <= bound)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 60), st.integers(0, 5),
           st.lists(st.floats(0.01, 0.99), min_size=3, max_size=3))
    def test_every_builder(self, n, which, xis):
        root = any_builder(n, which, xis)
        band = root.gram_band()
        assert min(band) == 0 and max(band) <= 2
        dense, banded = root.matrix.T @ root.matrix, scatter_band(band, n)
        if which < len(EXACT_BUILDERS):
            assert np.array_equal(banded, dense)
        else:
            # delta and xi entries round: a two-term sum may differ by the
            # one rounding a fused multiply-add skips
            np.testing.assert_array_max_ulp(banded, dense, maxulp=1)

    def test_zero_matrix_has_empty_band(self):
        assert fp.PrecisionRoot(np.zeros((3, 4)), "custom").gram_band() == {}

    def test_band_survives_round_trip(self, tmp_path):
        for root in (fp.build_jump(9, [(4, 0.3), (7, 0.55)], 1.5), fp.build_smooth_interior(9)):
            base = str(tmp_path / root.variant)
            fp.save_precision_root(root, base)
            back = fp.load_precision_root(base)
            band, back_band = root.gram_band(), back.gram_band()
            assert band.keys() == back_band.keys()
            assert all(np.array_equal(band[k], back_band[k]) for k in band)


@pytest.mark.parametrize("n", range(3, 30))
def test_builders_equal_dense_diagonal_sums(n):
    # oracle: the sums of np.diag matrices the builders used to form
    zero = np.diag(np.full(n, 1.0)) + np.diag(np.full(n - 1, -0.5), 1) + np.diag(np.full(n - 1, -0.5), -1)
    nonsmooth = np.diag(np.full(n, 0.5)) + np.diag(np.full(n - 1, -0.5), -1)
    interior = np.zeros((n - 2, n))
    for i in range(n - 2):
        interior[i, i : i + 3] = [-0.5, 1.0, -0.5]
    assert np.array_equal(fp.build_smooth_zero_boundary(n).matrix, zero)
    assert np.array_equal(fp.build_nonsmooth(n).matrix, nonsmooth)
    assert np.array_equal(fp.build_smooth_interior(n).matrix, interior)
