"""Kernel-smoothed profile likelihood: local solves, gradients, fitting."""

import numpy as np
import pytest

from semilogit import (
    ConfigError,
    Dataset,
    DGPSpec,
    KernelConfig,
    NoLocalDataError,
    NumericalFailureError,
    SeparationError,
    ShapeError,
    SmoothState,
    bandwidth_from_scale,
    fit_parametric,
    fit_semiparametric,
    kernel_weight,
    linear_predictors,
    local_m_update,
    local_smoothed_score,
    m_gradient,
    oracle_local_solve,
    predict_probabilities,
    predict_surface,
    profile_scores,
    score_and_curvature,
    simulate,
    softmax_probabilities,
)
from semilogit.profile import _category_pass, _WeightCache
from conftest import cold_jacobian, cold_sweep, random_state_dataset, sine_dgp


def zero_state(data, K):
    return SmoothState(beta=np.zeros((K - 1, data.p)),
                       m=np.zeros((K - 1, data.n)), reference=K)


class TestLocalSmoothedScore:
    def test_uniform_weights_reduce_to_pooled_binomial(self):
        rng = np.random.default_rng(0)
        n = 60
        y = rng.integers(1, 3, size=n)
        data = Dataset(y=y, x=np.zeros((n, 0)), t=rng.normal(size=(n, 1)),
                       n_categories=2)
        kern = KernelConfig(bandwidths=[1e8])
        state = zero_state(data, 2)
        score, curv = local_smoothed_score(data, 1, [0.0], 0.0, state, kern)
        w = kernel_weight(kern, [0.0], [0.0])  # weights all ~equal to this
        n1 = int((y == 1).sum())
        assert score == pytest.approx(w * (n1 - n / 2), rel=1e-6)
        assert curv == pytest.approx(-w * n * 0.25, rel=1e-6)

    def test_single_observation_dominates(self):
        # observation spacing makes every other weight underflow
        t = np.arange(5.0)[:, None] * 500.0
        data = Dataset(y=[1, 2, 2, 2, 2], x=np.zeros((5, 0)), t=t,
                       n_categories=2)
        kern = KernelConfig(bandwidths=[1.0])
        state = zero_state(data, 2)
        score, curv = local_smoothed_score(data, 1, t[0], 0.0, state, kern)
        w = kernel_weight(kern, t[0], t[0])
        assert score == pytest.approx(w * 0.5, rel=1e-12)
        assert curv == pytest.approx(-w * 0.25, rel=1e-12)

    def test_zero_at_bisected_root(self):
        for seed in range(5):
            data, beta, m = random_state_dataset(seed)
            state = SmoothState(beta, m, reference=3)
            kern = bandwidth_from_scale(data.t, 0.8)
            tq = data.t[seed]
            root = oracle_local_solve(data, 1, tq, state, kern)
            score, _ = local_smoothed_score(data, 1, tq, root, state, kern)
            assert abs(score) < 1e-10

    def test_all_weights_zero_raises(self):
        data, beta, m = random_state_dataset(1)
        state = SmoothState(beta, m, reference=3)
        kern = KernelConfig(bandwidths=[0.01])
        with pytest.raises(NoLocalDataError):
            local_smoothed_score(data, 1, [1e6], 0.0, state, kern)


class TestLocalMUpdate:
    def test_fixed_point_unchanged(self):
        data, beta, m = random_state_dataset(3)
        state = SmoothState(beta, m, reference=3)
        kern = bandwidth_from_scale(data.t, 0.8)
        tq = data.t[4]
        root = oracle_local_solve(data, 1, tq, state, kern)
        assert local_m_update(data, 1, tq, root, state, kern) == pytest.approx(
            root, abs=1e-9)

    def test_uniform_weights_fixed_point_is_log_odds(self):
        rng = np.random.default_rng(4)
        n = 80
        y = np.where(rng.random(n) < 0.7, 1, 2)
        data = Dataset(y=y, x=np.zeros((n, 0)), t=rng.normal(size=(n, 1)),
                       n_categories=2)
        kern = KernelConfig(bandwidths=[1e8])
        state = zero_state(data, 2)
        mu = 0.0
        for _ in range(60):
            mu = local_m_update(data, 1, [0.0], mu, state, kern)
        n1 = int((y == 1).sum())
        assert mu == pytest.approx(np.log(n1 / (n - n1)), abs=1e-10)

    def test_one_sided_likelihood_diverges_under_guards(self):
        # a single effective observation with y = k: the local maximiser
        # runs to +inf.  Starting far below the data the Newton step is
        # 1/p(mu) >> 5, so the cap clips it to exactly +5; closer in, the
        # steps stay ~1 and the iterate keeps growing without bound.
        t = np.arange(4.0)[:, None] * 500.0
        data = Dataset(y=[1, 2, 2, 2], x=np.zeros((4, 0)), t=t, n_categories=2)
        kern = KernelConfig(bandwidths=[1.0])
        state = zero_state(data, 2)
        mu = -20.0
        for _ in range(3):
            new = local_m_update(data, 1, t[0], mu, state, kern)
            assert new == pytest.approx(mu + 5.0)
            mu = new
        for _ in range(25):
            mu = local_m_update(data, 1, t[0], mu, state, kern)
        assert mu > 15.0 and np.isfinite(mu)
        # past saturation p rounds to 1.0 and the curvature guard fires
        with pytest.raises(NumericalFailureError):
            for _ in range(40):
                mu = local_m_update(data, 1, t[0], mu, state, kern)
        with pytest.raises(SeparationError):
            oracle_local_solve(data, 1, t[0], state, kern)


class TestMGradient:
    def test_constant_covariates_give_negative_constant(self):
        rng = np.random.default_rng(5)
        n = 30
        x = np.tile([0.7, -1.2], (n, 1))
        data = Dataset(y=rng.integers(1, 3, size=n), x=x,
                       t=rng.normal(size=(n, 1)), n_categories=2)
        state = zero_state(data, 2)
        kern = bandwidth_from_scale(data.t, 0.8)
        grad = m_gradient(data, 1, data.t[0], 0.0, state, kern)
        np.testing.assert_allclose(grad, [-0.7, 1.2], atol=1e-12)

    def test_dominating_weight_gives_that_row(self):
        rng = np.random.default_rng(6)
        t = np.arange(6.0)[:, None] * 500.0
        x = rng.normal(size=(6, 2))
        data = Dataset(y=rng.integers(1, 3, size=6), x=x, t=t, n_categories=2)
        state = zero_state(data, 2)
        kern = KernelConfig(bandwidths=[1.0])
        grad = m_gradient(data, 1, t[2], 0.0, state, kern)
        np.testing.assert_allclose(grad, -x[2], atol=1e-8)

    def test_components_in_convex_hull_of_negated_covariates(self):
        data, beta, m = random_state_dataset(7)
        state = SmoothState(beta, m, reference=3)
        kern = bandwidth_from_scale(data.t, 0.8)
        grad = m_gradient(data, 2, data.t[3], float(m[1, 3]), state, kern)
        for d in range(data.p):
            lo, hi = (-data.x[:, d]).min(), (-data.x[:, d]).max()
            assert lo - 1e-12 <= grad[d] <= hi + 1e-12

    def test_implicit_function_finite_difference_oracle(self):
        for seed in range(8):
            data, beta, m = random_state_dataset(seed, n=35)
            state = SmoothState(beta.copy(), m.copy(), reference=3)
            kern = bandwidth_from_scale(data.t, 0.7)
            tq = data.t[seed % data.n]
            root = oracle_local_solve(data, 1, tq, state, kern)
            state.m[0, seed % data.n] = root
            grad = m_gradient(data, 1, tq, root, state, kern)
            fd = np.zeros(data.p)
            for d in range(data.p):
                for sign in (1.0, -1.0):
                    pert = SmoothState(beta.copy(), state.m.copy(), reference=3)
                    pert.beta[0, d] += sign * 1e-5
                    val = oracle_local_solve(data, 1, tq, pert, kern)
                    fd[d] += sign * val / (2e-5)
            np.testing.assert_allclose(grad, fd, atol=1e-4)


class TestEngineMatchesPointOps:
    """The blocked sweeps must agree with the per-point contract ops."""

    def test_m_sweep_equals_pointwise_updates(self):
        data, beta, m = random_state_dataset(9, n=50)
        state = SmoothState(beta, m, reference=3)
        kern = bandwidth_from_scale(data.t, 0.8)
        cache = _WeightCache(kern, data.t)
        swept = cold_sweep(data, state, 0, cache)
        for i in range(data.n):
            manual = local_m_update(data, 1, data.t[i], float(m[0, i]),
                                    state, kern)
            assert swept[i] == pytest.approx(manual, rel=1e-9, abs=1e-12)

    def test_gradient_engine_equals_pointwise(self):
        data, beta, m = random_state_dataset(10, n=50)
        state = SmoothState(beta, m, reference=3)
        kern = bandwidth_from_scale(data.t, 0.8)
        cache = _WeightCache(kern, data.t)
        # a cold pass (J = 0): the beta_k block of its right-hand side is
        # -x, so that block of J[row] is dm_k/dbeta_k with the other
        # categories' curves held fixed
        J = cold_jacobian(data, state)
        _category_pass(data, state, 1, cache, J)
        grads = J[1][:, data.p:]
        for i in range(0, data.n, 7):
            manual = m_gradient(data, 2, data.t[i], float(m[1, i]), state, kern)
            np.testing.assert_allclose(grads[i], manual, rtol=1e-9, atol=1e-12)


class TestBetaUpdate:
    """Both factors of the profile-Newton step -s / B against sums over
    the oracles: the score s and the information -B."""

    def _solved_state(self, seed=11):
        data, beta, m = random_state_dataset(seed, n=20, p=1, q=1, K=2)
        state = SmoothState(beta, m, reference=2)
        kern = bandwidth_from_scale(data.t, 0.9)
        cache = _WeightCache(kern, data.t)
        for _ in range(80):
            mu = cold_sweep(data, state, 0, cache)
            if np.abs(mu - state.m[0]).max() < 1e-12:
                break
            state.m[0] = mu
        return data, state, kern

    def test_matches_direct_sum_evaluation(self):
        data, state, kern = self._solved_state()
        # independent accumulation of the two displayed sums, one
        # observation at a time
        s = 0.0
        B = 0.0
        for i in range(data.n):
            eta = linear_predictors(state.beta, state.m, data.x,
                                    state.reference)[i]
            lp, lpp = score_and_curvature(eta, int(data.y[i]), 1)
            u = data.x[i, 0] + m_gradient(data, 1, data.t[i],
                                          float(state.m[0, i]), state, kern)[0]
            s += lp * u
            B += lpp * u * u
        score = profile_scores(data, state, kern)
        assert score[0, 0] == pytest.approx(s, rel=1e-9)
        fit = fit_semiparametric(data, kern, start=state, max_iter=0, tol=1e-12)
        assert fit.beta_se[0, 0] == pytest.approx((-B) ** -0.5, rel=1e-9)


class TestFitSemiparametric:
    def test_uniform_bandwidth_collapse_small(self):
        spec = DGPSpec(n_categories=2, n=220, seed=14, beta=[[0.8]],
                       smooth=({"kind": "sine", "amplitude": 1.0,
                                "frequency": 1.0},),
                       x_laws=({"kind": "normal"},),
                       t_laws=({"kind": "normal"},))
        data = simulate(spec)
        kern = bandwidth_from_scale(data.t, 1e6)
        fit = fit_semiparametric(data, kern, tol=1e-8)
        par = fit_parametric(data, include_smooth=False)
        assert fit.converged
        np.testing.assert_allclose(fit.beta, par.coefficients[:, 1:],
                                   atol=1e-4)
        m_range = fit.smooth.m.max() - fit.smooth.m.min()
        assert m_range < 1e-4
        assert abs(fit.smooth.m.mean() - par.coefficients[0, 0]) < 1e-4

    def test_profile_and_local_stationarity_at_convergence(self):
        spec = DGPSpec(n_categories=2, n=260, seed=15, beta=[[0.5]],
                       smooth=({"kind": "linear", "intercept": 0.2,
                                "slopes": 0.6},),
                       x_laws=({"kind": "normal"},),
                       t_laws=({"kind": "uniform", "lo": -2, "hi": 2},))
        data = simulate(spec)
        kern = bandwidth_from_scale(data.t, 0.7)
        fit = fit_semiparametric(data, kern, tol=1e-10)
        assert fit.converged
        assert np.abs(profile_scores(data, fit.smooth, kern)).max() < 1e-6
        for i in range(0, data.n, 29):
            score, _ = local_smoothed_score(
                data, 1, data.t[i], float(fit.smooth.m[0, i]), fit.smooth, kern)
            assert abs(score) < 1e-8

    def test_trace_nondecreasing(self):
        spec = DGPSpec(n_categories=3, n=300, seed=5, beta=[[0.5], [-0.4]],
                       smooth=({"kind": "sine", "amplitude": 0.8,
                                "frequency": 1.0},
                               {"kind": "linear", "intercept": 0.2,
                                "slopes": 0.5}),
                       x_laws=({"kind": "bernoulli", "p": 0.5},),
                       t_laws=({"kind": "uniform", "lo": -2, "hi": 2},))
        data = simulate(spec)
        kern = bandwidth_from_scale(data.t, 0.6)
        fit = fit_semiparametric(data, kern)
        assert np.all(np.diff(fit.loglik_trace) >= -1e-8)

    def test_nonconvergence_flagged(self, small_binary_data):
        kern = bandwidth_from_scale(small_binary_data.t, 0.5)
        fit = fit_semiparametric(small_binary_data, kern, max_iter=1,
                                 tol=1e-14)
        assert not fit.converged
        assert any("convergence" in w for w in fit.warnings)

    def test_kernel_dimension_checked(self, small_binary_data):
        with pytest.raises(ShapeError):
            fit_semiparametric(small_binary_data,
                               KernelConfig(bandwidths=[1.0, 1.0]))

    def test_reference_row_structurally_zero(self, small_binary_data):
        kern = bandwidth_from_scale(small_binary_data.t, 0.7)
        fit = fit_semiparametric(small_binary_data, kern)
        eta = linear_predictors(fit.beta, fit.smooth.m, small_binary_data.x,
                                fit.reference)
        assert np.all(eta[:, fit.reference - 1] == 0.0)


class TestStartState:
    @pytest.fixture(scope="class")
    def reference_one_fit(self):
        data = sine_dgp(3, 200, seed=1)
        kern = bandwidth_from_scale(data.t, 0.5)
        fit = fit_semiparametric(data, kern, reference=1)
        assert fit.converged
        return data, kern, fit

    def test_reference_taken_from_start(self, reference_one_fit):
        data, kern, fit = reference_one_fit
        refit = fit_semiparametric(data, kern, start=fit.smooth)
        assert refit.converged
        assert refit.reference == refit.smooth.reference == 1
        assert refit.loglik == pytest.approx(fit.loglik, abs=1e-6)
        np.testing.assert_allclose(refit.beta, fit.beta, atol=1e-6)

    def test_conflicting_reference_rejected(self, reference_one_fit):
        data, kern, fit = reference_one_fit
        with pytest.raises(ConfigError):
            fit_semiparametric(data, kern, reference=3, start=fit.smooth)

    @pytest.mark.parametrize("beta_cols, m_cols, rows", [
        (2, 200, 2), (1, 150, 2), (1, 200, 1)])
    def test_start_shape_checked(self, reference_one_fit, beta_cols, m_cols, rows):
        data, kern, fit = reference_one_fit
        start = SmoothState(np.zeros((rows, beta_cols)), np.zeros((rows, m_cols)), 1)
        with pytest.raises(ShapeError):
            fit_semiparametric(data, kern, start=start, max_iter=0)


@pytest.fixture(scope="module")
def converged_fit():
    spec = DGPSpec(n_categories=2, n=240, seed=16, beta=[[0.7]],
                   smooth=({"kind": "sine", "amplitude": 0.8,
                            "frequency": 1.0},),
                   x_laws=({"kind": "bernoulli", "p": 0.5},),
                   t_laws=({"kind": "uniform", "lo": -2, "hi": 2},))
    data = simulate(spec)
    kern = bandwidth_from_scale(data.t, 0.6)
    fit = fit_semiparametric(data, kern, tol=1e-10)
    assert fit.converged
    return data, fit


class TestPredict:

    def test_matches_in_sample_probabilities(self, converged_fit):
        data, fit = converged_fit
        eta = linear_predictors(fit.beta, fit.smooth.m, data.x, fit.reference)
        P = softmax_probabilities(eta)
        for i in (0, 57, 123, 239):
            pr = predict_probabilities(fit, data, data.x[i], data.t[i])
            np.testing.assert_allclose(pr, P[i], atol=1e-8)

    def test_probabilities_normalized_anywhere(self, converged_fit):
        data, fit = converged_fit
        rng = np.random.default_rng(17)
        for _ in range(10):
            pr = predict_probabilities(fit, data, [float(rng.integers(0, 2))],
                                       rng.uniform(-2, 2, size=1))
            assert abs(pr.sum() - 1.0) < 1e-12
            assert np.all(pr > 0) and np.all(pr < 1)

    def test_dummy_flip_shifts_log_odds_by_beta(self, converged_fit):
        data, fit = converged_fit
        t0 = data.t[11]
        p0 = predict_probabilities(fit, data, [0.0], t0)
        p1 = predict_probabilities(fit, data, [1.0], t0)
        shift = np.log(p1[0] / p1[1]) - np.log(p0[0] / p0[1])
        assert shift == pytest.approx(fit.beta[0, 0], abs=1e-10)

    @pytest.mark.parametrize("x_fixed", [[0.0, 0.0], [[0.0]]])
    def test_surface_checks_x_shape(self, converged_fit, x_fixed):
        data, fit = converged_fit
        with pytest.raises(ShapeError):
            predict_surface(fit, data, [[0.0], [0.5]], x_fixed)


class TestOracleCrossChecks:
    def test_bisection_agrees_with_iterated_newton(self):
        for seed in range(10):
            data, beta, m = random_state_dataset(seed, n=45)
            state = SmoothState(beta, m, reference=3)
            kern = bandwidth_from_scale(data.t, 0.8)
            tq = data.t[(3 * seed) % data.n]
            root = oracle_local_solve(data, 2, tq, state, kern)
            mu = float(m[1, (3 * seed) % data.n])
            for _ in range(200):
                new = local_m_update(data, 2, tq, mu, state, kern)
                if abs(new - mu) < 1e-13:
                    break
                mu = new
            assert mu == pytest.approx(root, abs=1e-8)


class TestDummyCoefficientStability:
    def test_parametric_and_semiparametric_dummies_agree(self):
        # two parametric dummies plus a bivariate smooth block: the dummy
        # estimates from both models on the same data should differ by
        # less than 3 combined standard errors
        spec = DGPSpec(
            n_categories=3, n=1500, seed=30,
            beta=[[0.5, -0.4], [-0.3, 0.6]],
            smooth=({"kind": "ridge-interaction", "a": 0.6},
                    {"kind": "linear", "intercept": 0.3, "slopes": [0.5, -0.2]}),
            x_laws=({"kind": "bernoulli", "p": 0.5},
                    {"kind": "bernoulli", "p": 0.3}),
            t_laws=({"kind": "uniform", "lo": -2, "hi": 2},
                    {"kind": "uniform", "lo": -2, "hi": 2}))
        data = simulate(spec)
        par = fit_parametric(data)
        semi = fit_semiparametric(data, bandwidth_from_scale(data.t, 0.6))
        par_dummies = par.coefficients[:, 1:3]
        par_se = par.std_errors[:, 1:3]
        combined = np.sqrt(par_se ** 2 + semi.beta_se ** 2)
        z = np.abs(par_dummies - semi.beta) / combined
        assert z.max() < 3.0


class TestPureNonparametric:
    def test_fit_and_predict_without_parametric_block(self):
        spec = DGPSpec(
            n_categories=3, n=250, seed=6, beta=np.zeros((2, 0)),
            smooth=({"kind": "sine", "amplitude": 0.8, "frequency": 1.0},
                    {"kind": "linear", "intercept": 0.2, "slopes": 0.5}),
            x_laws=(),
            t_laws=({"kind": "uniform", "lo": -2, "hi": 2},
                    {"kind": "uniform", "lo": -2, "hi": 2}))
        data = simulate(spec)
        fit = fit_semiparametric(data, bandwidth_from_scale(data.t, 0.7))
        assert fit.converged
        assert fit.beta.shape == (2, 0)
        p = predict_probabilities(fit, data, np.zeros(0), [0.3, -0.2])
        assert abs(p.sum() - 1.0) < 1e-12
