"""The profile-Newton loop: exact K >= 3 score, full-information SEs, and
the loop's convergence contract."""

import numpy as np
import pytest

from semilogit import (
    DGPSpec,
    SmoothState,
    bandwidth_from_scale,
    fit_parametric,
    fit_semiparametric,
    profile_loglik,
    profile_scores,
    simulate,
)
from semilogit import profile
from conftest import sine_dgp


@pytest.fixture
def recorder(monkeypatch):
    """Records the iterate at every Jacobian solve and every Newton step
    taken from it."""
    rec = {"betas": [], "steps": []}
    jacobian, newton = profile._profile_jacobian, profile._newton_step

    def recorded_jacobian(data, state, *args, **kwargs):
        rec["betas"].append(state.beta.copy())
        return jacobian(data, state, *args, **kwargs)

    def recorded_step(*args):
        rec["steps"].append(newton(*args))
        return rec["steps"][-1]

    monkeypatch.setattr(profile, "_profile_jacobian", recorded_jacobian)
    monkeypatch.setattr(profile, "_newton_step", recorded_step)
    return rec


def linear_q2_dgp(K, n, seed):
    """K categories with two smooth covariates t ~ (U(-2, 2), N(0, 1)):
    every smooth is 0.5 t1 - 0.3 t2, and beta is sine_dgp's."""
    return simulate(DGPSpec(
        n_categories=K, n=n, seed=seed, beta=[[1.0], [-0.5], [0.3]][:K - 1],
        smooth=tuple({"kind": "linear", "slopes": [0.5, -0.3]}
                     for _ in range(K - 1)),
        x_laws=({"kind": "normal"},),
        t_laws=({"kind": "uniform", "lo": -2.0, "hi": 2.0}, {"kind": "normal"})))


class TestExactProfileScore:
    @pytest.mark.parametrize("K, q", [(3, 1), (4, 1), (3, 2), (4, 2)],
                             ids=["3", "4", "3-q2", "4-q2"])
    def test_score_is_the_gradient_of_the_recorded_loglik(self, K, q):
        data = sine_dgp(K, 250, seed=2) if q == 1 else linear_q2_dgp(K, 250, seed=2)
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

    def test_no_separate_jacobian_pass_at_k2(self, recorder, pass_counts):
        data = sine_dgp(2, 300, seed=3)
        fit = fit_semiparametric(data, bandwidth_from_scale(data.t, 0.5))
        assert fit.converged
        assert len(recorder["steps"]) == fit.iterations
        # every direction and the standard errors take the closing curve
        # sweep's Jacobian pass, which is exact for one category; the
        # sweeps are as many as when each direction paid a pass of its own
        assert pass_counts == {"sweeps": 9, "jacobian": 0}

    @pytest.mark.parametrize("n, seed", [(400, 3), (300, 1)])
    def test_k2_jacobian_is_the_jacobian_at_the_result(self, monkeypatch, n, seed):
        used = []
        jacobian = profile._profile_jacobian

        def recorded(*args, **kwargs):
            out = jacobian(*args, **kwargs)
            used.append(out[0])
            return out

        monkeypatch.setattr(profile, "_profile_jacobian", recorded)
        data = sine_dgp(2, n, seed)
        kernel = bandwidth_from_scale(data.t, 0.5)
        fit = fit_semiparametric(data, kernel)
        assert fit.converged
        # the standard errors' J, against one cold pass at the returned state
        exact, done, _ = jacobian(data, fit.smooth,
                                  profile._WeightCache(kernel, data.t))
        assert done
        np.testing.assert_allclose(used[-1], exact, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("K, n, seed", [(3, 300, 4), (4, 250, 2)])
    def test_each_jacobian_solve_saves_a_pass(self, monkeypatch, pass_counts,
                                              K, n, seed):
        # every Jacobian solve of the fit against the same solve continued
        # from the previous solve's J, the warm start without the sweeps'
        # running Jacobian
        jacobian = profile._profile_jacobian
        solves = []          # (state, passes) per Jacobian solve of the fit

        def recorded(data, state, *args, **kwargs):
            before = pass_counts["jacobian"]
            out = jacobian(data, state, *args, **kwargs)
            solves.append((state.copy(), pass_counts["jacobian"] - before))
            return out

        monkeypatch.setattr(profile, "_profile_jacobian", recorded)
        data = sine_dgp(K, n, seed)
        kernel = bandwidth_from_scale(data.t, 0.5)
        fit = fit_semiparametric(data, kernel)
        assert fit.converged
        wcache = profile._WeightCache(kernel, data.t)
        J = None
        for state, fused in solves:
            before = pass_counts["jacobian"]
            J, done, _ = jacobian(data, state, wcache, J)
            assert done
            assert fused <= pass_counts["jacobian"] - before - (K - 1)

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
    def test_is_the_first_trace_point_without_a_jacobian(self, pass_counts, K, tol):
        data = sine_dgp(K, 300, seed=4)
        kernel = bandwidth_from_scale(data.t, 0.5)
        start = profile.starting_state(data, 1)
        beta = start.beta + 0.2
        m_start = start.m.copy()
        ll = profile_loglik(data, kernel, beta, start, tol=tol)
        assert pass_counts["jacobian"] == 0
        assert np.array_equal(start.m, m_start)
        fit = fit_semiparametric(data, kernel, tol=tol, max_iter=0,
                                 start=SmoothState(beta, start.m, 1))
        assert ll == fit.loglik


class TestCurveToleranceNoise:
    """ROADMAP item 1: the trace guard accepts a step when the profile
    log-likelihood falls by at most 1e-9, less than the noise that curve
    solves stopped at a looser ``_CURVE_TOL`` leave in it."""

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    @pytest.mark.parametrize("K", [3, 4])
    def test_fit_converges_at_a_loose_curve_tolerance(self, monkeypatch, K):
        # today both stop with "trace guard exhausted halvings at iteration 3"
        monkeypatch.setattr(profile, "_CURVE_TOL", 1e-7)
        data = sine_dgp(K, 300, seed=1)
        fit = fit_semiparametric(data, bandwidth_from_scale(data.t, 0.5))
        assert fit.converged, fit.warnings

    def test_k2_converges_at_a_loose_curve_tolerance(self, monkeypatch):
        monkeypatch.setattr(profile, "_CURVE_TOL", 1e-7)
        data = sine_dgp(2, 300, seed=1)
        fit = fit_semiparametric(data, bandwidth_from_scale(data.t, 0.5))
        assert fit.converged, fit.warnings
