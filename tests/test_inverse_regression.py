import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate, optimize, stats

from bayesinv import inverse_regression as ir


def hand_dataset():
    return ir.make_calibration_data([-1.0, 0.0, 1.0], [0.0, 1.0, 2.0], [2.0])


class TestCalibrationData:
    def test_centering(self):
        data = ir.make_calibration_data([1.0, 2.0, 6.0], [0.0, 1.0, 2.0], [1.0])
        assert abs(data.x.sum()) < 1e-10
        assert_allclose(data.x_shift, 3.0)

    def test_size_validation(self):
        with pytest.raises(ValueError, match="n >= 3"):
            ir.make_calibration_data([0.0, 1.0], [0.0, 1.0], [1.0])
        with pytest.raises(ValueError, match="new response"):
            ir.make_calibration_data([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [])

    @pytest.mark.parametrize("name", ["x", "y", "y_new"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_rejected(self, name, bad):
        args = {"x": [0.0, 1.0, 2.0], "y": [0.0, 1.0, 2.5], "y_new": [1.0]}
        args[name] = [bad] + args[name][1:]
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            ir.make_calibration_data(**args)


class TestFitCalibration:
    def test_hand_computed_line(self):
        # oracle: hand evaluation of the least-squares displays
        est = ir.fit_calibration(hand_dataset())
        assert_allclose(est.beta_hat, 1.0)
        assert_allclose(est.alpha_hat, 1.0)
        assert_allclose(est.delta_hat, 1.0)
        assert_allclose(est.gamma_hat, -1.0)
        assert_allclose(est.x_classical, 1.0)
        assert_allclose(est.x_inverse, 1.0)
        assert est.sigma2_1 == 0.0
        assert math.isinf(est.f_stat)

    def test_mean_new_response_maps_to_zero(self):
        data = ir.simulate_calibration(12, 1, 0.5, 2.0, 0.4, 1.0, seed=4)
        forced = ir.CalibrationData(data.x, data.y, np.array([data.y.mean()]))
        est = ir.fit_calibration(forced)
        assert abs(est.x_classical) < 1e-12

    def test_pooled_variance_with_multiple_new_responses(self):
        data = ir.simulate_calibration(10, 4, 0.0, 1.5, 0.8, 0.3, seed=9)
        est = ir.fit_calibration(data)
        n, m = 10, 4
        expect = ((n - 2) * est.sigma2_1 + (m - 1) * est.sigma2_2) / (n - 2 + m - 1)
        assert_allclose(est.sigma2_pooled, expect, rtol=1e-12)
        assert est.sigma2_2 is not None

    def test_m1_has_no_second_variance(self):
        est = ir.fit_calibration(ir.simulate_calibration(10, 1, 0.0, 1.5, 0.8, 0.3, seed=2))
        assert est.sigma2_2 is None
        assert_allclose(est.sigma2_pooled, est.sigma2_1)

    @settings(max_examples=40)
    @given(st.integers(0, 10_000))
    def test_slope_product_is_squared_correlation(self, seed):
        # algebraic identity: delta_hat * beta_hat = r^2
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(8)
        y = rng.standard_normal(8) + 0.5 * x
        if np.var(x) < 1e-3 or np.var(y) < 1e-3:
            return
        data = ir.make_calibration_data(x, y, [0.0])
        est = ir.fit_calibration(data)
        r2 = np.corrcoef(data.x, data.y)[0, 1] ** 2
        assert_allclose(est.delta_hat * est.beta_hat, r2, rtol=1e-9, atol=1e-12)

    @settings(max_examples=40)
    @given(st.integers(0, 10_000), st.sampled_from([1, 3]), st.integers(3, 12), st.integers(1, 6))
    def test_batch_fit_equals_single_fits(self, seed, m, n, k):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        y = 0.7 * x + rng.standard_normal((k, n))
        y_new = rng.standard_normal((k, m))
        rows = ir._rows(ir._fit_rows(x, y, y_new))
        assert rows == [ir.fit_calibration(ir.CalibrationData(x, y[r], y_new[r])) for r in range(k)]
        assert all(type(v) in (float, int) for est in rows for v in vars(est).values() if v is not None)

    def test_degenerate_row_in_batch_raises(self):
        x = ir.standardized_design(5)
        y = np.vstack([x, np.ones(5)])
        with pytest.raises(ValueError, match="zero variance in the responses y"):
            ir._fit_rows(x, y, np.zeros((2, 1)))

    def test_degenerate_data(self):
        with pytest.raises(ValueError, match="covariates"):
            ir.fit_calibration(ir.CalibrationData(np.zeros(4), np.arange(4.0), np.array([1.0])))
        with pytest.raises(ValueError, match="responses"):
            ir.fit_calibration(ir.CalibrationData(np.arange(4.0), np.ones(4), np.array([1.0])))
        with pytest.raises(ValueError, match="zero estimated slope"):
            ir.fit_calibration(ir.make_calibration_data([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.5]))


class TestConfidenceSet:
    def test_small_f_gives_whole_line(self):
        est = ir.fit_calibration(ir.simulate_calibration(15, 1, 0.0, 0.01, 5.0, 0.5, seed=3))
        assert est.f_stat < 1.0
        cset = ir.confidence_set(est, 0.05)
        assert cset.kind == "whole_line"
        assert cset.uninformative
        assert cset.contains(123.4)

    def test_strong_slope_symmetric_interval(self):
        # with x_classical = 0 the displayed bounds are symmetric about zero
        data = ir.simulate_calibration(20, 1, 0.0, 5.0, 0.5, 0.0, seed=6)
        forced = ir.CalibrationData(data.x, data.y, np.array([data.y.mean()]))
        est = ir.fit_calibration(forced)
        assert abs(est.x_classical) < 1e-12
        cset = ir.confidence_set(est, 0.05)
        assert cset.kind == "interval"
        assert_allclose(cset.lower, -cset.upper, atol=1e-10)
        assert not cset.uninformative

    def test_complement_case_reachable(self):
        found = False
        for seed in range(400):
            est = ir.fit_calibration(ir.simulate_calibration(10, 1, 0.0, 0.6, 1.0, 1.0, seed=seed))
            cset = ir.confidence_set(est, 0.05)
            if cset.kind == "complement":
                found = True
                assert cset.lower < cset.upper
                assert not cset.contains(0.5 * (cset.lower + cset.upper))
                assert cset.contains(cset.upper + 1.0)
                break
        assert found

    def test_coverage_smoke(self):
        # small-replication version of the coverage study
        res = ir.coverage_experiment(
            n_reps=1500, beta_true=5.0, sigma=1.0, n=30, alpha=0.05, x_true=1.0, seed=77
        )
        assert 0.93 <= res.coverage <= 0.97

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.5])
    def test_critical_value_is_the_f_quantile(self, alpha):
        # F exactly at the critical value gives the whole line; one ulp off it
        # gives an interval or an interval's complement
        for n in range(3, 200, 7):
            fcrit = float(stats.f.ppf(1.0 - alpha, 1, n - 2))
            est = ir.CalibrationEstimates(0, 1, 0, 0, 0.3, 0.2, 1.0, None, 1.0, fcrit, n, 1)
            assert ir.confidence_set(est, alpha).kind == "whole_line", (n, alpha)

    def test_alpha_validation(self):
        est = ir.fit_calibration(ir.simulate_calibration(10, 1, 0.0, 2.0, 1.0, 0.5, seed=0))
        with pytest.raises(ValueError, match="alpha"):
            ir.confidence_set(est, 1.5)

    def test_requires_single_new_response(self):
        est = ir.fit_calibration(ir.simulate_calibration(10, 3, 0.0, 2.0, 1.0, 0.5, seed=0))
        with pytest.raises(ValueError, match="m = 1"):
            ir.confidence_set(est, 0.05)


class TestHoadleyPosterior:
    @pytest.fixture
    def data(self):
        return ir.simulate_calibration(15, 1, 1.0, 2.0, 1.0, 0.7, seed=0)

    def test_likelihood_positive_and_continuous(self, data):
        est = ir.fit_calibration(data)
        log_lik, _ = ir._hoadley_log_likelihood(est)
        xs = np.linspace(-30, 30, 301)
        vals = np.array([log_lik(float(v)) for v in xs])
        assert np.all(np.isfinite(vals))
        assert np.abs(np.diff(vals)).max() < 1.0  # no jumps on a fine grid

    def test_flat_prior_not_normalizable(self, data):
        with pytest.raises(ValueError, match="normalization failed"):
            ir.hoadley_posterior(data, ir.flat_prior)

    def test_flat_prior_reported_not_integrable(self, data):
        with pytest.raises(ValueError, match="not integrable"):
            ir.hoadley_posterior(data, ir.flat_prior)

    @pytest.mark.parametrize("mu", [40.0, 8.0, -25.0])
    def test_prior_far_from_likelihood_finds_the_mode(self, data, mu):
        # N(mu, 0.1^2) underflows to zero on the whole first scan around
        # x ~ 0.7; the widened scan must find its mode
        prior = lambda x: float(stats.norm.pdf(x, mu, 0.1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            mean = ir.hoadley_posterior(data, prior).mean()
        assert not [w for w in caught if issubclass(w.category, integrate.IntegrationWarning)]
        # oracle: quad over mu +- 20 sd, split at mu
        log_lik, _ = ir._hoadley_log_likelihood(ir.fit_calibration(data))
        dens = lambda x: math.exp(log_lik(x) - log_lik(mu)) * prior(x)
        halves = [(mu - 2.0, mu), (mu, mu + 2.0)]
        mass = sum(integrate.quad(dens, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                   for a, b in halves)
        first = sum(integrate.quad(lambda x: x * dens(x), a, b, epsabs=0.0, epsrel=1e-13,
                                   limit=200)[0] for a, b in halves)
        assert abs(mean - first / mass) < 1e-9

    def test_perfectly_linear_data_rejected(self):
        # zero residual variance: the F statistic is infinite
        data = ir.make_calibration_data([-1.0, 0.0, 1.0, 2.0], [1.0, 3.0, 5.0, 7.0], [4.0])
        est = ir.fit_calibration(data)
        assert est.f_stat == math.inf
        with pytest.raises(ValueError, match="infinite F"):
            ir.hoadley_posterior(data, ir.hoadley_informative_prior(4))
        with pytest.raises(ValueError, match="infinite F"):
            ir.hoadley_t_posterior(est, 4)

    def test_likelihood_argmax_is_finite(self, data):
        # oracle: numerical maximization of L(x)
        est = ir.fit_calibration(data)
        log_lik, center = ir._hoadley_log_likelihood(est)
        res = optimize.minimize_scalar(lambda t: -log_lik(t), bounds=(-50, 50), method="bounded")
        assert np.isfinite(res.x)
        assert abs(res.x) < 45.0
        assert abs(res.x - center) < 2.0

    def test_informative_prior_posterior_is_proper(self, data):
        post = ir.hoadley_posterior(data, ir.hoadley_informative_prior(15))
        lo, hi = post.window
        mass, _ = integrate.quad(post.pdf, lo, hi, limit=300)
        assert abs(mass - 1.0) < 1e-6

    def test_posterior_mean_is_inverse_estimator(self, data):
        est = ir.fit_calibration(data)
        post = ir.hoadley_posterior(data, ir.hoadley_informative_prior(15))
        assert abs(post.mean() - est.x_inverse) < 1e-6


class TestHoadleyTPosterior:
    def test_location_scale_df(self):
        data = ir.simulate_calibration(15, 1, 1.0, 2.0, 1.0, 0.7, seed=1)
        est = ir.fit_calibration(data)
        loc, scale, df = ir.hoadley_t_posterior(est, 15)
        assert loc == est.x_inverse
        assert scale > 0
        assert df == 13

    def test_quantiles_match_quadrature(self):
        # oracle: quadrature quantiles of the Theorem-style density
        for seed in (0, 1):
            data = ir.simulate_calibration(15, 1, 1.0, 2.0, 1.0, 0.7, seed=seed)
            est = ir.fit_calibration(data)
            post = ir.hoadley_posterior(data, ir.hoadley_informative_prior(15))
            loc, scale, df = ir.hoadley_t_posterior(est, 15)
            for p in (0.05, 0.25, 0.5, 0.75, 0.95):
                expect = loc + scale * stats.t.ppf(p, df)
                assert abs(post.quantile(p) - expect) < 1e-4

    def test_requires_single_new_response(self):
        data = ir.simulate_calibration(12, 3, 0.0, 2.0, 1.0, 0.5, seed=5)
        est = ir.fit_calibration(data)
        with pytest.raises(ValueError, match="m = 1"):
            ir.hoadley_t_posterior(est, 12)

    def test_zero_f_rejected(self):
        est = ir.CalibrationEstimates(0, 0, 0, 0, 0, 0, 1.0, None, 1.0, 0.0, 10, 1)
        with pytest.raises(ValueError, match="F = 0"):
            ir.hoadley_t_posterior(est, 10)

    def test_mismatched_n_rejected(self):
        est = ir.fit_calibration(ir.simulate_calibration(15, 1, 1.0, 2.0, 1.0, 0.7, seed=1))
        with pytest.raises(ValueError, match="n = 14"):
            ir.hoadley_t_posterior(est, 14)


class TestPoissonXval:
    def make_instance(self, seed, n=30, theta=1.0):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(0.5, 1.5, n)
        ys = rng.poisson(theta * xs)
        return xs, ys

    def test_closed_form_mean_matches_quadrature(self):
        xs, ys = self.make_instance(3)
        post = ir.poisson_xval_posterior(xs, ys, 9)
        s = xs.sum() - xs[9]
        n_total, y_i = ys.sum(), ys[9]
        assert_allclose(post.exact_mean, s * (y_i + 1) / (n_total - y_i - 1), rtol=1e-12)
        assert abs(post.mean() - post.exact_mean) / post.exact_mean < 1e-8

    def test_normalizer_matches_closed_form(self):
        xs, ys = self.make_instance(11)
        post = ir.poisson_xval_posterior(xs, ys, 4)
        rel = math.exp(post.log_normalizer - post.exact_log_normalizer) - 1.0
        assert abs(rel) < 1e-8

    @pytest.mark.parametrize("n", [100, 1000, 10000, 100000])
    @pytest.mark.parametrize("seed", range(3))
    def test_log_normalizer_exact_to_rounding(self, n, seed):
        # the counts make B(a + 1, q) = a! / (q (q + 1) ... (q + a)), a ratio of
        # integers whose logs Python takes to one rounding each
        xs, ys = self.make_instance(seed, n=n)
        held = seed
        post = ir.poisson_xval_posterior(xs, ys, held)
        a, q = int(ys[held]), int(ys.sum() - ys[held])
        exact = ((a + 1) * math.log(xs.sum() - xs[held]) + math.log(math.factorial(a))
                 - math.log(math.prod(range(q, q + a + 1))))
        assert abs(post.exact_log_normalizer - exact) < 1e-12
        assert abs(post.log_normalizer - post.exact_log_normalizer) < 1e-12

    def test_fifty_random_instances(self):
        # quadrature and beta-prime closed forms across many datasets
        count = 0
        for seed in range(200):
            xs, ys = self.make_instance(seed, n=20)
            held = seed % 20
            if ys.sum() - ys[held] <= 2:
                continue
            post = ir.poisson_xval_posterior(xs, ys, held)
            assert abs(post.mean() - post.exact_mean) / post.exact_mean < 1e-8
            var_q = post.variance()
            assert abs(var_q - post.exact_variance) / post.exact_variance < 1e-6
            count += 1
            if count == 50:
                break
        assert count == 50

    def test_zero_count_monotone_decreasing(self):
        xs = np.linspace(0.5, 1.5, 15)
        ys = np.ones(15, dtype=int)
        ys[4] = 0
        post = ir.poisson_xval_posterior(xs, ys, 4)
        grid = np.linspace(0.01, 10.0, 200)
        dens = post.pdf(grid)
        assert np.all(np.diff(dens) < 0)

    def test_heavy_tail_mean_matches_exact_mean(self):
        # x p(x) decays like x^-2 here, so ~1e-5 of the mean lies beyond the
        # window; the mapped tail panel must carry it
        post = ir.poisson_xval_posterior([1.0, 1.0, 1.0], [1, 1, 1], 0)
        assert post.exact_mean == 4.0
        assert abs(post.mean() - post.exact_mean) <= 1e-12 * post.exact_mean

    def test_two_spare_counts_give_infinite_variance(self):
        # sum(y) - y[held] = 2: the mean exists, the variance does not
        post = ir.poisson_xval_posterior([1.0, 1.0, 1.0], [1, 1, 1], 0)
        assert post.exact_variance == math.inf
        assert post.exact_mean == 2.0 * 2.0 / 1.0

    def test_non_normalizable_rejected(self):
        xs = np.array([1.0, 1.0, 1.0])
        ys = np.array([5, 0, 1])
        with pytest.raises(ValueError, match="normalizable"):
            ir.poisson_xval_posterior(xs, ys, 0)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="positive"):
            ir.poisson_xval_posterior([-1.0, 1.0, 1.0], [1, 1, 1], 0)
        with pytest.raises(ValueError, match="integers"):
            ir.poisson_xval_posterior([1.0, 1.0, 1.0], [0.5, 1, 1], 0)
        with pytest.raises(ValueError, match=r"held_out must be an integer in \[0, 2\]"):
            ir.poisson_xval_posterior([1.0, 1.0, 1.0], [1, 1, 1], 3)


class TestInconsistencyExperiment:
    def test_deterministic_per_seed(self):
        a = ir.inconsistency_experiment(1.0, [100, 1000], seed=5)
        b = ir.inconsistency_experiment(1.0, [100, 1000], seed=5)
        assert [r.posterior_sd for r in a] == [r.posterior_sd for r in b]

    def test_sd_finite_positive(self):
        rows = ir.inconsistency_experiment(1.0, [100, 1000, 10000], seed=0)
        for row in rows:
            assert math.isfinite(row.posterior_sd)
            assert row.posterior_sd > 0
        assert rows[-1].posterior_sd >= 0.5 * rows[0].posterior_sd

    @pytest.mark.parametrize("seed", range(6))
    def test_table_moments_match_closed_forms_to_rounding(self, seed):
        # the `inconsistency` posteriors (the golden run draws seed 1): the
        # table's mean and variance equal the beta-prime forms to a few ulp
        for row in ir.inconsistency_experiment(1.0, [100, 1000], seed):
            post = row.posterior
            assert abs(post.mean() / post.exact_mean - 1.0) < 1e-14
            assert abs(post.variance() / post.exact_variance - 1.0) < 1e-14

    def test_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            ir.inconsistency_experiment(1.0, [100, 100], seed=0)
        with pytest.raises(ValueError, match="n_values must be an integer >= 3"):
            ir.inconsistency_experiment(1.0, [2, 100], seed=0)
        with pytest.raises(ValueError, match="theta"):
            ir.inconsistency_experiment(-1.0, [100], seed=0)


def test_density_with_no_finite_point_names_center_hint():
    # the widened scan finds nothing: the mode error, not an integration failure
    with pytest.raises(ValueError, match="could not locate the mode") as exc:
        ir.Density1D(lambda x: -math.inf, (-math.inf, math.inf))
    assert "center_hint" in str(exc.value)


def test_density_recovers_from_bad_center_hint():
    # the normalizer must recenter when the hint misses the mass entirely
    dens = ir.Density1D(lambda x: -2.0 * (x - 40.0) ** 2, (-math.inf, math.inf), center_hint=0.0)
    assert abs(dens.mean() - 40.0) < 1e-8
    assert abs(dens.sd() - 0.5) < 1e-8


def test_classical_estimator_consistent_in_small_noise():
    hits = 0
    trials = 300
    for seed in range(trials):
        data = ir.simulate_calibration(10, 1, 0.3, 1.5, 1e-4, 0.8, seed=seed)
        est = ir.fit_calibration(data)
        hits += abs(est.x_classical - 0.8) < 1e-2
    assert hits / trials >= 0.99


def test_standardized_design_moments():
    x = ir.standardized_design(23)
    assert abs(x.sum()) < 1e-10
    assert_allclose(np.sum(x * x), 23.0, rtol=1e-12)


def reference_replicates(design, beta_true, sigma, x_true, n_reps, seed):
    """The per-replicate loop the batched harnesses replaced: draw with
    alpha_true = 0 (n training noises, then one new-response noise, from the
    stream (seed, rep)), fit, and build the confidence set, one replicate at
    a time."""
    n = design.size
    sets, xc, xi = [], np.empty(n_reps), np.empty(n_reps)
    for rep in range(n_reps):
        rng = np.random.default_rng([seed, rep])
        y = 0.0 + beta_true * design + sigma * rng.standard_normal(n)
        y_new = 0.0 + beta_true * x_true + sigma * rng.standard_normal(1)
        est = ir.fit_calibration(ir.make_calibration_data(design, y, y_new))
        sets.append(ir.confidence_set(est, 0.05))
        xc[rep], xi[rep] = est.x_classical, est.x_inverse
    return sets, xc, xi


@pytest.mark.parametrize("seed,n,n_reps", [(123, 30, 400), (7, 5, 250), (2024, 20, 300), (0, 3, 50)])
def test_coverage_experiment_matches_per_replicate_loop(seed, n, n_reps):
    sets, xc, xi = reference_replicates(ir.standardized_design(n), 2.0, 1.0, 0.4, n_reps, seed)
    res = ir.coverage_experiment(n_reps, 2.0, 1.0, n, 0.05, 0.4, seed)
    covered = np.array([cset.contains(0.4) for cset in sets])
    assert res.covered.tobytes() == covered.tobytes()
    assert res.x_classical.tobytes() == xc.tobytes()
    assert res.x_inverse.tobytes() == xi.tobytes()
    assert res.coverage == covered.mean()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**130), k=st.integers(1, 40), size=st.integers(0, 40))
# seeds of more than three words run the loop over entropy words past the pool
@example(seed=2**96 + 12345, k=3, size=5)
@example(seed=2**200 + 1, k=2, size=4)
def test_replicate_normals_equal_default_rng_streams(seed, k, size):
    # the bulk seeding copies numpy's SeedSequence and PCG64 seeding: this
    # catches numpy changing either
    expected = np.stack([np.random.default_rng([seed, r]).standard_normal(size) for r in range(k)])
    assert ir._replicate_normals(seed, k, size).tobytes() == expected.tobytes()


def _set_batch(n, rows):
    """A ``_fit_rows``-shaped batch of (F, x_classical) rows with m = 1."""
    f, xc = (np.array(col, dtype=float) for col in zip(*rows))
    zero = np.zeros(f.size)
    return ir.CalibrationEstimates(zero, zero, zero, zero, xc, xc, zero, None, zero, f, n, 1)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 200), alpha=st.sampled_from([0.01, 0.05, 0.1, 0.5]),
       drawn=st.lists(st.tuples(st.one_of(st.floats(0.0, 3.0), st.sampled_from([1.0, math.inf])),
                                st.floats(-30.0, 30.0)), max_size=20),
       x=st.floats(-60.0, 60.0))
def test_array_inversion_equals_scalar_confidence_sets(n, alpha, drawn, x):
    fcrit = float(stats.f.ppf(1.0 - alpha, 1, n - 2))
    # rows are (F / fcrit, x_classical): F = fcrit, F = inf, an interval, a
    # complement (F just below fcrit, x_classical large) and the whole line
    fixed = [(1.0, 0.3), (math.inf, -0.7), (4.0, 1.5), (1.0 - 1e-9, 1e4), (0.1, 0.2)]
    batch = _set_batch(n, [(r * fcrit, xc) for r, xc in fixed + drawn])
    kind, lower, upper = ir._invert(batch, alpha)
    sets = [ir.confidence_set(est, alpha) for est in ir._rows(batch)]
    assert [s.kind for s in sets[:5]] == ["whole_line", "interval", "interval", "complement",
                                          "whole_line"]
    assert kind.tolist() == [s.kind for s in sets]
    nan = math.nan
    assert lower.tobytes() == np.array([nan if s.lower is None else s.lower for s in sets]).tobytes()
    assert upper.tobytes() == np.array([nan if s.upper is None else s.upper for s in sets]).tobytes()
    for point in [x, *lower[np.isfinite(lower)], *upper[np.isfinite(upper)]]:
        assert ir._covers(kind, lower, upper, point).tolist() == [s.contains(point) for s in sets]


@pytest.mark.parametrize("seed,n,n_reps", [(2024, 20, 400), (5, 4, 300), (11, 9, 120)])
def test_risk_experiment_matches_per_replicate_loop(seed, n, n_reps):
    design = np.linspace(-0.5, 0.5, n)
    design = design - design.mean()
    _, xc, xi = reference_replicates(design, 1.0, 1.0, 0.5, n_reps, seed)
    res = ir.estimator_risk_experiment(n_reps, 1.0, 1.0, n, 0.5, seed)
    assert res.x_classical.tobytes() == xc.tobytes()
    assert res.x_inverse.tobytes() == xi.tobytes()
    assert res.mse_inverse_full == float(np.mean((xi - 0.5) ** 2))


@pytest.mark.parametrize("m", [1, 3])
def test_simulate_calibration_draws_training_then_new_noise(m):
    x = ir.standardized_design(9)
    rng = np.random.default_rng(31)
    y = 0.2 + 1.5 * x + 0.8 * rng.standard_normal(9)
    y_new = 0.2 + 1.5 * 0.6 + 0.8 * rng.standard_normal(m)
    data = ir.simulate_calibration(9, m, 0.2, 1.5, 0.8, 0.6, 31)
    assert data.y.tobytes() == y.tobytes() and data.y_new.tobytes() == y_new.tobytes()
    assert data.x.tobytes() == ir.make_calibration_data(x, y, y_new).x.tobytes()


def test_coverage_experiment_rejects_no_replicates():
    with pytest.raises(ValueError, match="n_reps"):
        ir.coverage_experiment(0, 5.0, 1.0, 30, 0.05, 1.0, 0)


@pytest.mark.parametrize("n_reps", [0, 1])
def test_risk_experiment_needs_two_replicates(n_reps):
    with pytest.raises(ValueError, match="n_reps"):
        ir.estimator_risk_experiment(n_reps, 1.0, 1.0, 20, 0.5, 0)


def test_removed_parameters_rejected():
    with pytest.raises(TypeError, match="x_design"):
        ir.simulate_calibration(10, 1, 0.0, 1.0, 1.0, 0.5, 0, x_design=np.linspace(-1, 1, 10))
    with pytest.raises(TypeError, match="alpha_true"):
        ir.coverage_experiment(10, 5.0, 1.0, 30, 0.05, 1.0, 0, alpha_true=0.0)
    with pytest.raises(TypeError, match="alpha_true"):
        ir.estimator_risk_experiment(10, 1.0, 1.0, 20, 0.5, 0, alpha_true=0.0)


# ---------------------------------------------------------------------------
# the informative prior and Density1D.quantile against exact forms
# ---------------------------------------------------------------------------

LEVELS = (0.001, 0.1, 0.5, 0.9, 0.999)


def scipy_informative_prior(n, x):
    scale = math.sqrt((n + 1) / (n - 3))
    return float(stats.t.pdf(x / scale, n - 3) / scale)


@settings(max_examples=200)
@given(st.integers(4, 400), st.floats(-1e6, 1e6))
def test_informative_prior_equals_scipy_t_pdf(n, x):
    assert ir.hoadley_informative_prior(n)(x) == scipy_informative_prior(n, x)


@pytest.mark.parametrize("n", [4, 5, 15, 30, 31, 100, 400])
def test_informative_prior_equals_scipy_t_pdf_on_grid(n):
    prior = ir.hoadley_informative_prior(n)
    xs = [*np.linspace(-30.0, 30.0, 401).tolist(), -1e6, -1e3, 1e3, 1e6, -0.0]
    assert [prior(x) for x in xs] == [scipy_informative_prior(n, x) for x in xs]


@pytest.fixture(scope="module")
def criterion_08_quantiles():
    """[(estimates, posterior, {p: (quantile, prior calls)})] on the
    criterion-08 datasets, the prior wrapped in a call counter."""
    base = ir.hoadley_informative_prior(15)
    calls = [0]

    def prior(x):
        calls[0] += 1
        return base(x)

    cases = []
    for seed in range(20):
        data = ir.simulate_calibration(15, 1, 1.0, 2.0, 1.0, 0.7, seed=seed)
        post = ir.hoadley_posterior(data, prior)
        quantiles = {}
        for p in LEVELS:
            calls[0] = 0
            quantiles[p] = (post.quantile(p), calls[0])
        cases.append((ir.fit_calibration(data), post, quantiles))
    return cases


def test_quantile_matches_t_form_on_criterion_08_inputs(criterion_08_quantiles):
    for est, _, quantiles in criterion_08_quantiles:
        loc, scale, df = ir.hoadley_t_posterior(est, 15)
        for p, (q, _) in quantiles.items():
            assert abs(q - (loc + scale * stats.t.ppf(p, df))) < 1e-11


def test_quantile_integrates_only_the_remaining_gap(criterion_08_quantiles):
    # integrating from the window's left edge at every root-finding step took
    # up to 4,326 log-density evaluations per quantile on these inputs
    for _, _, quantiles in criterion_08_quantiles:
        for p, (_, calls) in quantiles.items():
            assert calls <= 1500, f"quantile({p}) evaluated the log-density {calls} times"


@pytest.mark.parametrize("n", [100, 1000, 100_000])
def test_quantile_matches_beta_form_on_poisson_posterior(n):
    # the stock `inconsistency` draws (theta = 1, seed 0, index 9 held out);
    # x / (x + s) is Beta(y_i + 1, N - y_i) under this posterior
    rng = np.random.default_rng([0, n])
    x = rng.uniform(0.5, 1.5, n)
    y = rng.poisson(x)
    post = ir.poisson_xval_posterior(x, y, 9)
    s, total, y_i = float(x.sum() - x[9]), int(y.sum()), int(y[9])
    for p in LEVELS:
        u = stats.beta.ppf(p, y_i + 1, total - y_i)
        expect = s * u / (1 - u)
        assert abs(post.quantile(p) - expect) < 1e-8 * expect


def test_poisson_quantile_at_full_precision_for_large_n():
    # c and s are near 1e5 here: c*log(x + s) carries ~2e-10 of absolute
    # rounding error, enough for ~1e-8 relative in the quantiles; the
    # log-density must keep full precision through log1p(x/s)
    n = 100_000
    rng = np.random.default_rng([0, n])
    x = rng.uniform(0.5, 1.5, n)
    y = rng.poisson(x)
    post = ir.poisson_xval_posterior(x, y, 9)
    s, total, y_i = float(x.sum() - x[9]), int(y.sum()), int(y[9])
    for p in (0.5, 0.9, 0.999):
        u = stats.beta.ppf(p, y_i + 1, total - y_i)
        expect = s * u / (1 - u)
        assert abs(post.quantile(p) - expect) < 1e-12 * expect


def test_cdf_matches_t_form_on_criterion_08_inputs(criterion_08_quantiles):
    for est, post, _ in criterion_08_quantiles:
        loc, scale, df = ir.hoadley_t_posterior(est, 15)
        for x in np.linspace(loc - 4 * scale, loc + 4 * scale, 9):
            assert abs(post.cdf(x) - stats.t.cdf((x - loc) / scale, df)) < 1e-12


def test_pdf_and_mean_match_t_form_on_criterion_08_inputs(criterion_08_quantiles):
    # the curve `calibrate` writes: the pdf on a grid across the window
    for est, post, _ in criterion_08_quantiles:
        loc, scale, df = ir.hoadley_t_posterior(est, 15)
        grid = np.linspace(*post.window, 201)
        exact = stats.t.pdf((grid - loc) / scale, df) / scale
        assert np.abs(post.pdf(grid) - exact).max() < 1e-13 * exact.max()
        assert abs(post.mean() - loc) < 1e-14 * scale


def test_window_leaves_out_under_1e_10_of_the_t_mass(criterion_08_quantiles):
    # the window ends at the first doubling shell that holds under 1e-10 of
    # the mass, so the closed form puts no more than that outside it
    for est, post, _ in criterion_08_quantiles:
        loc, scale, df = ir.hoadley_t_posterior(est, 15)
        lo, hi = post.window
        assert stats.t.cdf((lo - loc) / scale, df) + stats.t.sf((hi - loc) / scale, df) < 1e-10


def test_cdf_inverts_quantile(criterion_08_quantiles):
    for _, post, quantiles in criterion_08_quantiles:
        for p, (q, _) in quantiles.items():
            assert abs(post.cdf(q) - p) < 1e-12


def test_cdf_is_zero_and_one_outside_the_window(criterion_08_quantiles):
    _, post, _ = criterion_08_quantiles[0]
    left, right = post.window
    assert post.cdf(left - 1.0) == post.cdf(left) == 0.0
    assert post.cdf(right) == post.cdf(right + 1.0) == 1.0


def test_quantile_non_decreasing_in_level(criterion_08_quantiles):
    _, post, _ = criterion_08_quantiles[0]
    poisson = ir.inconsistency_experiment(1.0, [1000], seed=0)[0].posterior
    levels = np.linspace(0.001, 0.999, 61).tolist()
    for dens in (post, poisson):
        qs = [dens.quantile(p) for p in levels]
        assert all(a <= b for a, b in zip(qs, qs[1:]))


@pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5, math.nan])
def test_quantile_level_outside_unit_interval_rejected(p):
    dens = ir.Density1D(lambda x: -0.5 * x * x, (-math.inf, math.inf))
    with pytest.raises(ValueError, match="quantile level"):
        dens.quantile(p)


# ---------------------------------------------------------------------------
# Density1D against closed forms over random parameters: the moments and
# quantiles within 1e-9 in units of the scale, the cdf within 1e-12
# ---------------------------------------------------------------------------

def check_against(dens, dist, scale, variance=True):
    assert abs(dens.mean() - dist.mean()) < 1e-9 * scale
    if variance:
        assert abs(dens.variance() - dist.var()) < 1e-9 * scale**2
    for p in LEVELS:
        x = dist.ppf(p)
        assert abs(dens.quantile(p) - x) < 1e-9 * scale
        assert abs(dens.cdf(x) - dist.cdf(x)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(-1e3, 1e3), st.floats(0.01, 100.0), st.floats(1.5, 200.0))
def test_student_t_table_matches_scipy(loc, scale, df):
    log_t = lambda x: -0.5 * (df + 1.0) * np.log1p(((x - loc) / scale) ** 2 / df)
    dens = ir.Density1D(log_t, (-math.inf, math.inf), center_hint=loc)
    # the variance exists for df > 2, but below df = 4 the single mapped tail
    # panel resolves x^2 p(x) ~ |x|^(1 - df) only to ~1e-3 (df = 2.5)
    check_against(dens, stats.t(df, loc, scale), scale, variance=df >= 4.0)


@settings(max_examples=40, deadline=None)
@given(st.floats(4.0, 200.0), st.floats(0.01, 100.0))
def test_gamma_table_matches_scipy(shape, scale):
    # shape >= 4: a Gauss-Legendre panel ending at 0 resolves x^(shape - 1)
    # to 1e-9 only when the power is smooth enough (shape 2.5 gives ~1e-7)
    log_gamma = lambda x: (shape - 1.0) * np.log(x) - x / scale
    dens = ir.Density1D(log_gamma, (0.0, math.inf), center_hint=shape * scale)
    check_against(dens, stats.gamma(shape, scale=scale), scale)
