"""The profile-Newton loop: exact K >= 3 score, full-information SEs, and
the loop's convergence contract."""

import numpy as np
import pytest

from semilogit import (
    SmoothState,
    bandwidth_from_scale,
    fit_parametric,
    fit_semiparametric,
    profile_loglik,
    profile_scores,
)
from semilogit import profile
from conftest import sine_dgp


@pytest.fixture
def recorder(monkeypatch):
    """Counts Jacobian passes; records the iterate at every Jacobian solve
    and every Newton step taken from it."""
    rec = {"passes": 0, "betas": [], "steps": []}
    one_pass, jacobian, newton = (profile._m_gradients_all,
                                  profile._profile_jacobian,
                                  profile._newton_step)

    def counted_pass(*args, **kwargs):
        rec["passes"] += 1
        return one_pass(*args, **kwargs)

    def recorded_jacobian(data, state, *args, **kwargs):
        rec["betas"].append(state.beta.copy())
        return jacobian(data, state, *args, **kwargs)

    def recorded_step(*args):
        rec["steps"].append(newton(*args))
        return rec["steps"][-1]

    monkeypatch.setattr(profile, "_m_gradients_all", counted_pass)
    monkeypatch.setattr(profile, "_profile_jacobian", recorded_jacobian)
    monkeypatch.setattr(profile, "_newton_step", recorded_step)
    return rec


class TestExactProfileScore:
    @pytest.mark.parametrize("K", [3, 4])
    def test_score_is_the_gradient_of_the_recorded_loglik(self, K):
        data = sine_dgp(K, 250, seed=2)
        kernel = bandwidth_from_scale(data.t, 0.5)
        fit = fit_semiparametric(data, kernel)
        assert fit.converged
        assert np.abs(profile_scores(data, fit.smooth, kernel)).max() < 1e-5
        # away from the optimum, where the score is of order 1
        beta = fit.beta + 0.3
        state = fit_semiparametric(data, kernel, max_iter=0, tol=1e-12,
                                   start=SmoothState(beta, fit.smooth.m, K)).smooth
        score = profile_scores(data, state, kernel)
        h = 1e-4
        fd = np.zeros_like(beta)
        for idx in np.ndindex(beta.shape):
            up, down = beta.copy(), beta.copy()
            up[idx] += h
            down[idx] -= h
            fd[idx] = (profile_loglik(data, kernel, up, state, tol=1e-12)
                       - profile_loglik(data, kernel, down, state, tol=1e-12)
                       ) / (2 * h)
        assert np.abs(score).min() > 1.0
        np.testing.assert_allclose(score, fd, rtol=0, atol=1e-6)

    def test_collapsed_kernel_reproduces_parametric_standard_errors(self):
        data = sine_dgp(3, 300, seed=1)
        fit = fit_semiparametric(data, bandwidth_from_scale(data.t, 1e6), tol=1e-8)
        par = fit_parametric(data, include_smooth=False)
        assert fit.converged
        np.testing.assert_allclose(fit.beta, par.coefficients[:, 1:], atol=1e-6)
        np.testing.assert_allclose(fit.beta_se, par.std_errors[:, 1:], rtol=1e-3)


class TestLoopContract:
    def test_k3_fit_converges_on_an_undamped_step(self, recorder):
        data = sine_dgp(3, 300, seed=4)
        fit = fit_semiparametric(data, bandwidth_from_scale(data.t, 0.5))
        assert fit.converged
        assert fit.warnings == []
        # the last Jacobian solve is the standard errors' at the result;
        # the one before it set the final direction, taken with lam = 1
        assert len(recorder["steps"]) == fit.iterations
        last_start = recorder["betas"][-2]
        assert np.array_equal(fit.beta, last_start + recorder["steps"][-1].reshape(
            fit.beta.shape))

    def test_one_jacobian_pass_per_direction_at_k2(self, recorder):
        data = sine_dgp(2, 300, seed=3)
        fit = fit_semiparametric(data, bandwidth_from_scale(data.t, 0.5))
        assert fit.converged
        assert len(recorder["steps"]) == fit.iterations
        # one pass per direction plus one for the standard errors
        assert recorder["passes"] == fit.iterations + 1

    @pytest.mark.parametrize("K, n, seed", [(3, 300, 4), (2, 400, 3)])
    def test_trial_solves_start_at_the_first_order_prediction(
            self, monkeypatch, K, n, seed):
        solves = []        # (start, result) of every curve solve
        resolve = profile._resolve_all_m

        def recorded(data, state, *args, **kwargs):
            start = state.m.copy()
            out = resolve(data, state, *args, **kwargs)
            solves.append((start, state.m.copy()))
            return out

        monkeypatch.setattr(profile, "_resolve_all_m", recorded)
        data = sine_dgp(K, n, seed)
        fit = fit_semiparametric(data, bandwidth_from_scale(data.t, 0.5))
        assert fit.converged
        # no halvings: one trial per step, each from the last solved curve
        assert len(solves) == fit.iterations + 1
        for (_, m_prev), (start, solved) in zip(solves, solves[1:]):
            moved = np.abs(m_prev - solved).max()
            assert np.abs(start - solved).max() <= max(0.1 * moved, 1e-8)


class TestProfileLoglik:
    @pytest.mark.parametrize("K, tol", [(2, 1e-6), (3, 1e-6), (3, 1e-12)])
    def test_is_the_first_trace_point_without_a_jacobian(self, recorder, K, tol):
        data = sine_dgp(K, 300, seed=4)
        kernel = bandwidth_from_scale(data.t, 0.5)
        start = profile.starting_state(data, 1)
        beta = start.beta + 0.2
        m_start = start.m.copy()
        ll = profile_loglik(data, kernel, beta, start, tol=tol)
        assert recorder["passes"] == 0
        assert np.array_equal(start.m, m_start)
        fit = fit_semiparametric(data, kernel, tol=tol, max_iter=0,
                                 start=SmoothState(beta, start.m, 1))
        assert ll == fit.loglik
