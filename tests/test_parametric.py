"""Parametric MNL Newton fitter against closed forms and oracles."""

import numpy as np
import pytest

from semilogit import (
    Dataset,
    DGPSpec,
    InsufficientDataError,
    NonIdentifiedError,
    NumericalFailureError,
    ShapeError,
    fit_parametric,
    fitted_probabilities,
    oracle_mle,
    simulate,
    small_hsiao,
    standard_errors,
)
from semilogit import iia, profile
from semilogit.core import dataset_log_likelihood, linear_predictors, softmax_probabilities
from semilogit.parametric import (
    _loglik_gain,
    _score_and_information,
    design_matrix,
)
from conftest import make_dgp


def intercept_only_data(counts, K):
    y = np.concatenate([np.full(c, k + 1) for k, c in enumerate(counts)])
    n = len(y)
    return Dataset(y=y, x=np.zeros((n, 0)), t=np.zeros((n, 0)), n_categories=K)


class TestClosedForms:
    def test_intercept_only_log_count_ratios(self):
        data = intercept_only_data([50, 30, 20], 3)
        fit = fit_parametric(data, reference=3)
        np.testing.assert_allclose(
            fit.coefficients.ravel(),
            [0.91629073187415506518, 0.40546510810816438198], atol=1e-8)
        assert fit.converged

    def test_binary_matches_generic_maximiser(self, small_binary_data):
        fit = fit_parametric(small_binary_data)
        theta = oracle_mle(small_binary_data)
        np.testing.assert_allclose(fit.coefficients, theta, atol=1e-6)

    def test_missing_category_rejected(self):
        data = intercept_only_data([50, 30, 20], 3)
        y = data.y.copy()
        y[y == 2] = 1
        broken = Dataset(y=y, x=data.x, t=data.t, n_categories=3)
        with pytest.raises(InsufficientDataError):
            fit_parametric(broken)

    def test_collinear_covariates_not_identified(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(80, 1))
        data = Dataset(y=rng.integers(1, 3, size=80),
                       x=np.hstack([x, 2.0 * x]), t=np.zeros((80, 0)),
                       n_categories=2)
        with pytest.raises(NonIdentifiedError):
            fit_parametric(data)


class TestFitProperties:
    def test_likelihood_ascent(self):
        for seed in range(5):
            data = simulate(make_dgp(K=3, n=300, seed=seed))
            fit = fit_parametric(data)
            diffs = np.diff(fit.loglik_trace)
            assert np.all(diffs >= -1e-12)

    def test_score_tolerance_met(self):
        data = simulate(make_dgp(K=4, n=400, seed=3))
        fit = fit_parametric(data, tol=1e-10)
        assert fit.converged and fit.score_max < 1e-10

    def test_reference_invariance(self):
        data = simulate(make_dgp(K=3, n=300, seed=9))
        fit_a = fit_parametric(data, reference=3)
        fit_b = fit_parametric(data, reference=1)
        # the difference beta_2 - beta_1 is reference-free: under ref 3 it
        # is a row difference, under ref 1 it is the beta_2 row itself
        d_a = fit_a.coefficients[fit_a.row_of(2)] - fit_a.coefficients[fit_a.row_of(1)]
        d_b = fit_b.coefficients[fit_b.row_of(2)]
        np.testing.assert_allclose(d_a, d_b, atol=1e-6)
        np.testing.assert_allclose(fitted_probabilities(fit_a, data),
                                   fitted_probabilities(fit_b, data), atol=1e-8)

    @pytest.mark.parametrize("k", [3, 0, 4])
    def test_row_of_reference_or_unknown_category_is_a_shape_error(self, k):
        fit = fit_parametric(simulate(make_dgp(K=3, n=200, seed=9)), reference=3)
        assert fit.row_of(2) == 1
        with pytest.raises(ShapeError, match=f"category {k} "):
            fit.row_of(k)

    def test_estimates_near_truth_large_sample(self):
        spec = DGPSpec(
            n_categories=3, n=20_000, seed=12,
            beta=[[0.8, -0.5], [0.3, 0.6]],
            smooth=({"kind": "linear", "intercept": 0.2, "slopes": 0.5},
                    {"kind": "linear", "intercept": -0.3, "slopes": -0.4}),
            x_laws=({"kind": "normal"}, {"kind": "bernoulli", "p": 0.5}),
            t_laws=({"kind": "uniform", "lo": -1, "hi": 1},))
        data = simulate(spec)
        fit = fit_parametric(data)
        truth = np.array([[0.2, 0.8, -0.5, 0.5], [-0.3, 0.3, 0.6, -0.4]])
        z = np.abs(fit.coefficients - truth) / fit.std_errors
        assert z.max() < 3.0

    def test_nonconvergence_is_flagged_not_raised(self):
        data = simulate(make_dgp(K=3, n=300, seed=2))
        fit = fit_parametric(data, max_iter=1, tol=1e-12)
        assert not fit.converged

    def test_step_gain_matches_loglik_difference(self):
        data = simulate(make_dgp(K=3, n=300, seed=6))
        fit = fit_parametric(data)
        Z = design_matrix(data)
        eta = linear_predictors(fit.coefficients, 0.0, Z, fit.reference)
        step = 0.3 * np.ones_like(fit.coefficients)
        delta = linear_predictors(step, 0.0, Z, fit.reference)
        gain = _loglik_gain(softmax_probabilities(eta), delta, data.y)
        expected = (dataset_log_likelihood(data, eta + delta)
                    - dataset_log_likelihood(data, eta))
        assert gain < 0.0
        assert gain == pytest.approx(expected, rel=1e-10)

    def test_converges_where_loglik_totals_round_away_the_gain(self, monkeypatch):
        # Small-Hsiao's restricted refit on this draw (n=7475) sits at a
        # score of 2e-8 > tol with a Newton gain far below the rounding of
        # the log-likelihood total; judged on totals, every step was halved
        # away and the fit ran to max_iter unconverged.
        spec = DGPSpec.from_dict({
            "n_categories": 4, "n": 20000, "seed": 1596810412,
            "beta": [[0.8, -0.5], [-0.6, 0.4], [0.3, 0.9]],
            "smooth": [{"kind": "linear", "intercept": 0.2, "slopes": 0.5},
                       {"kind": "linear", "intercept": -0.3, "slopes": -0.4},
                       {"kind": "linear", "intercept": 0.1, "slopes": 0.2}],
            "x_laws": [{"kind": "normal"}, {"kind": "bernoulli", "p": 0.4}],
            "t_laws": [{"kind": "uniform", "lo": -2.0, "hi": 2.0}]})
        fits = []

        def recording_fit(*args, **kwargs):
            fits.append(fit_parametric(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(iia, "fit_parametric", recording_fit)
        small_hsiao(simulate(spec), 1, seed=1596810411)
        restricted = fits[-1]
        assert restricted.n_obs == 7475
        assert restricted.converged and restricted.iterations < 20
        assert np.all(np.diff(restricted.loglik_trace) >= -1e-12)

    def test_vcov_symmetric_psd(self):
        data = simulate(make_dgp(K=3, n=300, seed=4))
        fit = fit_parametric(data)
        np.testing.assert_allclose(fit.vcov, fit.vcov.T, atol=1e-12)
        eigs = np.linalg.eigvalsh(fit.vcov)
        assert eigs.min() > -1e-8
        assert np.all(fit.std_errors > 0)


class TestWhereTheLoopStops:
    """Every stop reports the state it returns: the score, the SEs and,
    when the line search gives up, a warning."""

    def test_max_iter_0_returns_the_start(self):
        data = simulate(make_dgp(K=3, n=300, seed=2))
        fit = fit_parametric(data, max_iter=0)
        assert not fit.converged and fit.iterations == 0
        assert np.array_equal(fit.coefficients, np.zeros((2, 4)))
        assert len(fit.loglik_trace) == 1
        assert np.all(np.isfinite(fit.std_errors)) and np.all(fit.std_errors > 0)

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_score_and_standard_errors_are_at_the_returned_coefficients(
            self, max_iter):
        data = simulate(make_dgp(K=3, n=300, seed=2))
        fit = fit_parametric(data, max_iter=max_iter, tol=1e-12)
        assert not fit.converged and fit.iterations == max_iter
        assert len(fit.loglik_trace) == max_iter + 1
        Z = design_matrix(data)
        eta = linear_predictors(fit.coefficients, 0.0, Z, fit.reference)
        P = softmax_probabilities(eta)[:, fit.categories - 1]
        Y1h = (data.y[:, None] == fit.categories).astype(float)
        score, info = _score_and_information(Z, Y1h, P)
        assert fit.score_max == np.abs(score).max()
        se = np.sqrt(np.diag(np.linalg.inv(info))).reshape(fit.coefficients.shape)
        np.testing.assert_allclose(fit.std_errors, se, rtol=1e-12)

    def test_line_search_failure_is_reported(self):
        # x of order 1e160: the information overflows, and every trial
        # step's gain is NaN, so no halving is acceptable
        rng = np.random.default_rng(0)
        data = Dataset(y=rng.integers(1, 3, 100), x=rng.normal(size=(100, 1)) * 1e160,
                       t=np.zeros((100, 0)), n_categories=2)
        fit = fit_parametric(data)
        assert not fit.converged and fit.iterations == 1
        assert fit.warnings == ["line search found no acceptable step at iteration 1"]
        assert np.array_equal(fit.coefficients, np.zeros((1, 2)))
        assert len(fit.loglik_trace) == 1

    def test_overflowed_information_gives_nan_standard_errors(self):
        # the same draw: an SE of exactly 0 would claim perfect precision
        rng = np.random.default_rng(0)
        data = Dataset(y=rng.integers(1, 3, 100), x=rng.normal(size=(100, 1)) * 1e160,
                       t=np.zeros((100, 0)), n_categories=2)
        fit = fit_parametric(data)
        assert fit.std_errors.shape == (1, 2)
        assert np.isnan(fit.std_errors).all() and np.isnan(fit.vcov).all()

    def test_converged_fit_has_no_warning(self):
        fit = fit_parametric(simulate(make_dgp(K=3, n=300, seed=2)))
        assert fit.converged and fit.warnings == []


@pytest.mark.parametrize("K", [2, 3, 4])
def test_block_score_matches_the_profile_score_with_no_smooth(K):
    """The parametric block-form score and information are the profile's
    E_s form with J = 0 on a dataset whose x is the design matrix."""
    data = simulate(make_dgp(K=K, n=500, seed=K))
    fit = fit_parametric(data)
    theta = fit.coefficients + 0.2      # away from the optimum
    Z = design_matrix(data)
    P = softmax_probabilities(linear_predictors(theta, 0.0, Z, fit.reference))
    Y1h = (data.y[:, None] == fit.categories).astype(float)
    score, info = _score_and_information(Z, Y1h, P[:, fit.categories - 1])
    as_x = Dataset(y=data.y, x=Z, t=np.zeros((data.n, 0)), n_categories=K)
    state = profile.SmoothState(theta, np.zeros((K - 1, data.n)), fit.reference)
    J = np.zeros((K - 1, data.n, theta.size))
    profile_score, profile_info = profile._score_information(as_x, state, J)
    for block, E_s in ((score, profile_score), (info, profile_info)):
        np.testing.assert_allclose(E_s, block, rtol=0,
                                   atol=1e-12 * np.abs(block).max())


class TestStandardErrors:
    def test_identity(self):
        np.testing.assert_allclose(standard_errors(np.eye(4), (2, 2)),
                                   np.ones((2, 2)))

    def test_diagonal(self):
        np.testing.assert_allclose(
            standard_errors(np.diag([4.0, 9.0]), (1, 2)), [[2.0, 3.0]])

    def test_negative_diagonal_rejected(self):
        with pytest.raises(NumericalFailureError):
            standard_errors(np.diag([1.0, -1e-6]), (1, 2))

    def test_matches_finite_difference_hessian(self, small_binary_data):
        from semilogit.parametric import coefficient_log_likelihood
        data = small_binary_data
        fit = fit_parametric(data)
        theta = fit.coefficients
        pp = theta.shape[1]

        def ll_at(vec):
            return coefficient_log_likelihood(data, vec.reshape(1, pp), 2)

        h = 1e-5
        flat = theta.ravel()
        hess = np.empty((pp, pp))
        for a in range(pp):
            for b in range(pp):
                ea, eb = np.eye(pp)[a] * h, np.eye(pp)[b] * h
                hess[a, b] = (ll_at(flat + ea + eb) - ll_at(flat + ea - eb)
                              - ll_at(flat - ea + eb) + ll_at(flat - ea - eb)) / (4 * h * h)
        se_fd = np.sqrt(np.diag(np.linalg.inv(-hess)))
        np.testing.assert_allclose(fit.std_errors.ravel(), se_fd, atol=1e-4)
