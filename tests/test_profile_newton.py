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
    """Records the iterate and the solved J at every Jacobian solve, and
    every Newton step taken from it."""
    rec = {"betas": [], "jacobians": [], "steps": []}
    jacobian, newton = profile._profile_jacobian, profile._newton_step

    def recorded_jacobian(data, state, *args, **kwargs):
        rec["betas"].append(state.beta.copy())
        out = jacobian(data, state, *args, **kwargs)
        rec["jacobians"].append(out[0])
        return out

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
        # one direction per iteration, then the certificate: the Newton
        # step of the last Jacobian solve, made at the result, which also
        # gives the standard errors
        assert len(recorder["steps"]) == fit.iterations + 1
        assert np.array_equal(recorder["betas"][-1], fit.beta)
        certificate, J = recorder["steps"][-1], recorder["jacobians"][-1]
        assert np.abs(certificate).max() < 1e-6
        assert np.abs(J @ certificate).max() < 1e-6
        # the direction before it was taken with lam = 1
        last_start = recorder["betas"][-2]
        assert np.array_equal(fit.beta, last_start + recorder["steps"][-2].reshape(
            fit.beta.shape))

    def test_no_separate_jacobian_pass_at_k2(self, recorder, pass_counts):
        data = sine_dgp(2, 300, seed=3)
        fit = fit_semiparametric(data, bandwidth_from_scale(data.t, 0.5))
        assert fit.converged
        # one direction per iteration and the certificate at the result
        assert len(recorder["steps"]) == fit.iterations + 1
        assert np.abs(recorder["steps"][-1]).max() < 1e-6
        # every direction, the certificate and the standard errors take
        # the closing curve sweep's Jacobian pass, which is exact for one
        # category; the sweeps are as many as when each direction paid a
        # pass of its own
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
        # every Jacobian solve of the fit against the same solve, to the
        # same tolerance, continued from the previous solve's J: the warm
        # start without the sweeps' running Jacobian
        jacobian = profile._profile_jacobian
        solves = []          # (state, tol, passes) per Jacobian solve of the fit

        def recorded(data, state, wcache, J, tol):
            before = pass_counts["jacobian"]
            out = jacobian(data, state, wcache, J, tol)
            solves.append((state.copy(), tol, pass_counts["jacobian"] - before))
            return out

        monkeypatch.setattr(profile, "_profile_jacobian", recorded)
        data = sine_dgp(K, n, seed)
        kernel = bandwidth_from_scale(data.t, 0.5)
        fit = fit_semiparametric(data, kernel)
        assert fit.converged
        wcache = profile._WeightCache(kernel, data.t)
        J = None
        for state, tol, fused in solves:
            before = pass_counts["jacobian"]
            J, done, _ = jacobian(data, state, wcache, J, tol)
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


class TestForcingTerms:
    """Inside the loop each Jacobian solve stops at a forcing tolerance,
    _JACOBIAN_FORCING times the state's last move; the J behind the
    certificate and the standard errors is solved to _JACOBIAN_TOL."""

    @pytest.mark.parametrize("max_iter", [200, 2], ids=["converged", "max_iter"])
    @pytest.mark.parametrize("K, q", [(3, 1), (4, 1), (3, 2), (4, 2)],
                             ids=["3", "4", "3-q2", "4-q2"])
    def test_standard_errors_take_a_tight_jacobian_at_the_result(
            self, recorder, K, q, max_iter):
        data = sine_dgp(K, 250, seed=2) if q == 1 else linear_q2_dgp(K, 250, seed=2)
        kernel = bandwidth_from_scale(data.t, 0.5)
        fit = fit_semiparametric(data, kernel, max_iter=max_iter)
        assert fit.converged == (max_iter == 200)
        J = recorder["jacobians"][-1]
        assert np.array_equal(recorder["betas"][-1], fit.beta)
        _, info = profile._score_information(data, fit.smooth, J)
        assert np.array_equal(fit.beta_se,
                              profile._standard_errors(info, fit.beta.shape))
        # against a cold solve well past _JACOBIAN_TOL at the returned state
        exact, done, _ = profile._profile_jacobian(
            data, fit.smooth, profile._WeightCache(kernel, data.t), tol=1e-13)
        assert done
        np.testing.assert_allclose(J, exact, rtol=0, atol=1e-10)
        if fit.converged:
            step = profile._newton_step(*profile._score_information(
                data, fit.smooth, exact))
            assert np.abs(step).max() < 1e-6
            assert np.abs(exact @ step).max() < 1e-6

    # iterations, sweeps and Jacobian calls; with every Jacobian solve made
    # to _JACOBIAN_TOL the same fits take the same iterations and sweeps
    # and 42 / 93 Jacobian calls (K = 2: test_no_separate_jacobian_pass_at_k2)
    @pytest.mark.parametrize("K, n, seed, work", [
        (3, 300, 4, (4, 42, 20)), (4, 250, 2, (5, 90, 45))])
    def test_jacobian_calls(self, pass_counts, K, n, seed, work):
        data = sine_dgp(K, n, seed)
        fit = fit_semiparametric(data, bandwidth_from_scale(data.t, 0.5))
        assert fit.converged
        assert (fit.iterations, pass_counts["sweeps"], pass_counts["jacobian"]) == work

    # with every Jacobian solve made to _JACOBIAN_TOL both take 7 iterations
    @pytest.mark.parametrize("K, iterations", [(3, 6), (4, 7)])
    def test_q2_fit_at_a_tight_tolerance(self, K, iterations):
        data = linear_q2_dgp(K, 250, seed=2)
        fit = fit_semiparametric(data, bandwidth_from_scale(data.t, 0.5), tol=1e-9)
        assert fit.converged
        assert fit.iterations == iterations

    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_fit_started_at_its_result_takes_one_iteration(self, K):
        data = sine_dgp(K, 300, seed=4)
        kernel = bandwidth_from_scale(data.t, 0.5)
        fit = fit_semiparametric(data, kernel)
        again = fit_semiparametric(data, kernel, start=fit.smooth)
        assert again.converged
        assert again.iterations == 1

    def test_declined_certificate_gives_the_next_direction(self, monkeypatch):
        # the first certificate's step is pushed past tol: the fit goes on
        # from that step and its exact J, with no second Jacobian solve
        events = []
        jacobian, newton = profile._profile_jacobian, profile._newton_step
        resolve = profile._resolve_all_m

        def recorded_jacobian(data, state, wcache, J, tol):
            events.append(("jacobian", tol))
            return jacobian(data, state, wcache, J, tol)

        def recorded_step(score, info):
            step = newton(score, info)
            if events[-1] == ("jacobian", profile._JACOBIAN_TOL) and not any(
                    event[0] == "declined" for event in events):
                step = step + 2e-6
                events.append(("declined", step))
            return step

        def recorded_resolve(data, state, *args):
            events.append(("curve", state.beta.copy()))
            return resolve(data, state, *args)

        monkeypatch.setattr(profile, "_profile_jacobian", recorded_jacobian)
        monkeypatch.setattr(profile, "_newton_step", recorded_step)
        monkeypatch.setattr(profile, "_resolve_all_m", recorded_resolve)
        data = sine_dgp(3, 300, seed=4)
        fit = fit_semiparametric(data, bandwidth_from_scale(data.t, 0.5))
        assert fit.converged
        i = next(i for i, event in enumerate(events) if event[0] == "declined")
        declined, (kind, trial_beta) = events[i][1], events[i + 1]
        assert kind == "curve"
        assert np.array_equal(trial_beta, events[i - 2][1] + declined.reshape(
            fit.beta.shape))
        # the next Jacobian solve is a loose one, after the step was taken
        assert events[i + 2][0] == "jacobian"
        assert events[i + 2][1] > profile._JACOBIAN_TOL
        assert events[-1] == ("jacobian", profile._JACOBIAN_TOL)


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

    @pytest.mark.slow
    def test_large_k3_draw_converges(self):
        # about 20 s on two cores; 4 iterations with every Jacobian solve
        # made to _JACOBIAN_TOL
        data = sine_dgp(3, 8000, seed=1)
        fit = fit_semiparametric(data, bandwidth_from_scale(data.t, 0.5))
        assert fit.converged, fit.warnings
        assert fit.warnings == []
        assert fit.iterations <= 4

    def test_guard_exhausted_fit_keeps_its_last_jacobian(self, monkeypatch):
        monkeypatch.setattr(profile, "_CURVE_TOL", 1e-7)
        jacobian = profile._profile_jacobian
        solves = []       # (state, given J, tol, solved J) per Jacobian solve

        def recorded(data, state, wcache, J, tol):
            out = jacobian(data, state, wcache, J, tol)
            solves.append((state.copy(), J, tol, out[0]))
            return out

        monkeypatch.setattr(profile, "_profile_jacobian", recorded)
        data = sine_dgp(3, 300, seed=1)
        kernel = bandwidth_from_scale(data.t, 0.5)
        fit = fit_semiparametric(data, kernel)
        assert "trace guard exhausted halvings at iteration 3" in fit.warnings
        # the fit went back to the last iteration's start, where that
        # iteration's Jacobian solve stopped at its forcing tolerance; the
        # closing solve continues from that J to _JACOBIAN_TOL
        assert len(solves) == fit.iterations + 1
        (start, _, loose, last), (state, given, tol, J) = solves[-2:]
        assert loose > profile._JACOBIAN_TOL and tol == profile._JACOBIAN_TOL
        assert given is last
        for s in (start, state):
            assert np.array_equal(s.beta, fit.beta)
            assert np.array_equal(s.m, fit.smooth.m)
        exact, done, _ = jacobian(data, fit.smooth,
                                  profile._WeightCache(kernel, data.t), None, 1e-13)
        assert done
        np.testing.assert_allclose(J, exact, rtol=0, atol=1e-10)
        _, info = profile._score_information(data, fit.smooth, J)
        assert np.array_equal(fit.beta_se,
                              profile._standard_errors(info, fit.beta.shape))
