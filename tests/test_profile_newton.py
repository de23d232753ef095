"""The profile-Newton loop: exact K >= 3 score, full-information SEs, and
the loop's convergence contract."""

import numpy as np
import pytest

from semilogit import (
    Dataset,
    DGPSpec,
    KernelConfig,
    ShapeError,
    SmoothState,
    bandwidth_from_scale,
    fit_parametric,
    fit_semiparametric,
    profile_loglik,
    profile_scores,
    simulate,
)
from semilogit import profile, standard_errors
from semilogit.parametric import _covariance
from conftest import MISMATCHES, integer_t, linear_q2_dgp, mismatched, sine_dgp


@pytest.fixture
def steps(monkeypatch):
    """Every Newton step the fit takes, in order."""
    taken, newton = [], profile._newton_step

    def recorded_step(*args):
        taken.append(newton(*args))
        return taken[-1]

    monkeypatch.setattr(profile, "_newton_step", recorded_step)
    return taken


def jacobian_solves(solve_log):
    """The Jacobian solves of ``solve_log`` so far."""
    return [entry for entry in solve_log if entry["kind"] == "jacobian"]


def exact_jacobian(data, kernel, state, tol=profile._JACOBIAN_TOL):
    """dm/dbeta at ``state``, solved cold to ``tol`` in a solve of its own,
    which must not stop at its pass cap."""
    solves = profile._Solves(data, kernel, state.categories(), tol)
    J = solves.jacobian(state, None, tol)
    assert not solves.capped
    return J


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

    def test_scores_make_no_curve_sweep_and_no_score_term_pass(
            self, monkeypatch, pass_counts):
        # profile_scores solves J alone: W y_k, which only the curve
        # sweeps form and read, is never formed
        data = sine_dgp(3, 200, seed=1)
        given = []
        sums = profile._symmetric_sums
        monkeypatch.setattr(profile, "_symmetric_sums",
                            lambda *args: given.append(args[4]) or sums(*args))
        profile_scores(data, profile.starting_state(data, 3),
                       bandwidth_from_scale(data.t, 0.5))
        assert pass_counts["sweeps"] == 0 and pass_counts["jacobian"] > 0
        assert given and all(Y is None for Y in given)

    @pytest.mark.parametrize("part", MISMATCHES)
    def test_scores_check_the_state_against_the_data(self, part):
        data = sine_dgp(3, 200, seed=1)
        kernel, state = mismatched(bandwidth_from_scale(data.t, 0.5),
                                   profile.starting_state(data, 3), part)
        with pytest.raises(ShapeError):
            profile_scores(data, state, kernel)

    def test_collapsed_kernel_reproduces_parametric_standard_errors(self):
        data = sine_dgp(3, 300, seed=1)
        fit = fit_semiparametric(data, bandwidth_from_scale(data.t, 1e6), tol=1e-8)
        par = fit_parametric(data, include_smooth=False)
        assert fit.converged
        np.testing.assert_allclose(fit.beta, par.coefficients[:, 1:], atol=1e-6)
        np.testing.assert_allclose(fit.beta_se, par.std_errors[:, 1:], rtol=1e-3)


class TestLoopContract:
    def test_k3_fit_converges_on_an_undamped_step(self, steps, solve_log):
        data = sine_dgp(3, 300, seed=4)
        fit = fit_semiparametric(data, bandwidth_from_scale(data.t, 0.5))
        assert fit.converged
        assert fit.warnings == []
        # one direction per iteration, then the certificate: the Newton
        # step of the last Jacobian solve, made at the result, which also
        # gives the standard errors
        solves = jacobian_solves(solve_log)
        assert len(steps) == fit.iterations + 1
        assert np.array_equal(solves[-1]["beta"], fit.beta)
        certificate, J = steps[-1], solves[-1]["J"]
        assert np.abs(certificate).max() < 1e-6
        assert np.abs(J @ certificate).max() < 1e-6
        # the direction before it was taken with lam = 1
        last_start = solves[-2]["beta"]
        assert np.array_equal(fit.beta, last_start + steps[-2].reshape(
            fit.beta.shape))

    def test_no_separate_jacobian_pass_at_k2(self, steps, pass_counts):
        data = sine_dgp(2, 300, seed=3)
        fit = fit_semiparametric(data, bandwidth_from_scale(data.t, 0.5))
        assert fit.converged
        # one direction per iteration and the certificate at the result
        assert len(steps) == fit.iterations + 1
        assert np.abs(steps[-1]).max() < 1e-6
        # every direction, the certificate and the standard errors take
        # the closing curve sweep's Jacobian pass, which is exact for one
        # category; the sweeps are as many as when each direction paid a
        # pass of its own.  At n = 300 there are more than n / 4 coarse
        # nodes, so the burn-in starts from the parametric start.
        assert pass_counts == {"sweeps": 9, "jacobian": 0}

    @pytest.mark.parametrize("n, seed", [(400, 3), (300, 1)])
    def test_k2_jacobian_is_the_jacobian_at_the_result(self, solve_log, n, seed):
        data = sine_dgp(2, n, seed)
        kernel = bandwidth_from_scale(data.t, 0.5)
        fit = fit_semiparametric(data, kernel)
        assert fit.converged
        # the standard errors' J, against one cold pass at the returned state
        used = jacobian_solves(solve_log)[-1]["J"]
        exact = exact_jacobian(data, kernel, fit.smooth)
        np.testing.assert_allclose(used, exact, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("K, n, seed", [(3, 300, 4), (4, 250, 2)])
    def test_each_jacobian_solve_saves_a_pass(self, solve_log, pass_counts,
                                              K, n, seed):
        # every Jacobian solve of the fit against the same solve, to the
        # same tolerance, continued from the previous solve's J: the warm
        # start without the sweeps' running Jacobian
        data = sine_dgp(K, n, seed)
        kernel = bandwidth_from_scale(data.t, 0.5)
        fit = fit_semiparametric(data, kernel)
        assert fit.converged
        solves = profile._Solves(data, kernel, fit.categories, 1e-6)
        J = None
        for fused in jacobian_solves(solve_log):
            before = pass_counts["jacobian"]
            J = solves.jacobian(SmoothState(fused["beta"], fused["m"], K), J,
                                fused["tol"])
            assert not solves.capped
            assert fused["passes"] <= pass_counts["jacobian"] - before - (K - 1)

    @pytest.mark.parametrize("K, n, seed", [(3, 300, 4), (2, 400, 3)])
    def test_trial_solves_start_at_the_first_order_prediction(
            self, solve_log, K, n, seed):
        data = sine_dgp(K, n, seed)
        fit = fit_semiparametric(data, bandwidth_from_scale(data.t, 0.5))
        assert fit.converged
        # (start, result) of every curve solve
        solves = [(e["m"], e["solved"]) for e in solve_log if e["kind"] == "curve"]
        # no halvings: one trial per step, each from the last solved curve
        assert len(solves) == fit.iterations + 1
        for (_, m_prev), (start, solved) in zip(solves, solves[1:]):
            moved = np.abs(m_prev - solved).max()
            assert np.abs(start - solved).max() <= max(0.1 * moved, 1e-8)


@pytest.fixture
def point_solves(monkeypatch):
    """The query points of every ``_solve_m_at_points`` call, in order."""
    calls, real = [], profile._solve_m_at_points

    def recorded(data, state, kernel, Tq):
        calls.append(np.array(Tq))
        return real(data, state, kernel, Tq)

    monkeypatch.setattr(profile, "_solve_m_at_points", recorded)
    return calls


def gapped_t(data):
    """``data`` with every t > 0 moved 50 to the right: a gap of 100
    bandwidths at h = 0.5, whose midpoint gets no kernel weight."""
    return Dataset(y=data.y, x=data.x, t=np.where(data.t > 0.0, data.t + 50.0, data.t),
                   n_categories=data.n_categories)


class TestCoarseSeed:
    """A K = 2, q = 1 fit from the parametric start seeds its burn-in with
    the curve solved at coarse observation nodes and interpolated along t."""

    def test_burn_in_takes_one_sweep(self, solve_log, pass_counts):
        data = sine_dgp(2, 2000, seed=1)
        fit = fit_semiparametric(data, bandwidth_from_scale(data.t, 0.5))
        assert fit.converged and fit.warnings == []
        # from the parametric start: 5 burn-in sweeps and 10 in all
        assert solve_log[0]["kind"] == "curve" and solve_log[0]["passes"] == 1
        assert pass_counts == {"sweeps": 6, "jacobian": 0}

    @pytest.mark.parametrize("n", [2000, 5000])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_burn_in_takes_one_sweep_on_sine_draws(self, solve_log, n, seed):
        # the six-point seed starts about 1e-11 off the curve, below the
        # curve tolerance, so the first sweep is also the last
        data = sine_dgp(2, n, seed)
        fit_semiparametric(data, bandwidth_from_scale(data.t, 0.5), max_iter=0)
        assert solve_log[0]["kind"] == "curve" and solve_log[0]["passes"] == 1

    @pytest.mark.parametrize("n", [2000, 5000])
    def test_sparse_tails_take_no_more_burn_in_sweeps(self, solve_log, n):
        # t ~ N(0, 1): the nodes thin out in the tails, and the seed spread
        # by np.interp took 3 burn-in sweeps on both draws (2 and 1 now)
        data = simulate(DGPSpec(
            n_categories=2, n=n, seed=1, beta=[[1.0]],
            smooth=({"kind": "sine", "amplitude": 1.0, "frequency": 1.0},),
            x_laws=({"kind": "normal"},), t_laws=({"kind": "normal"},)))
        fit = fit_semiparametric(data, bandwidth_from_scale(data.t, 0.5), max_iter=0)
        assert fit.warnings == ["no convergence after 0 iterations"]
        assert solve_log[0]["kind"] == "curve" and solve_log[0]["passes"] <= 3

    @pytest.mark.parametrize("draw, scale", [
        (lambda: sine_dgp(2, 2000, 1), 0.5),
        (lambda: sine_dgp(2, 2000, 1), 1.0),
        (lambda: integer_t(sine_dgp(2, 2000, 4)), 0.5),
        (lambda: gapped_t(sine_dgp(2, 2000, 2)), None),
    ], ids=["scale-0.5", "scale-1.0", "tied", "gap"])
    def test_seeded_fit_equals_the_unseeded_one(self, point_solves, draw, scale):
        data = draw()
        kernel = (KernelConfig([0.5]) if scale is None
                  else bandwidth_from_scale(data.t, scale))
        fit = fit_semiparametric(data, kernel)
        assert len(point_solves) == 1
        # the same parametric start given as ``start`` takes no seed
        plain = fit_semiparametric(data, kernel,
                                   start=profile.starting_state(data, 2))
        assert len(point_solves) == 1
        assert fit.converged and plain.converged
        assert (fit.iterations, fit.warnings) == (plain.iterations, plain.warnings)
        np.testing.assert_allclose(fit.beta, plain.beta, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fit.beta_se, plain.beta_se, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fit.smooth.m, plain.smooth.m, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("case", ["n300", "q2", "K3", "start"])
    def test_no_seed_off_its_path(self, point_solves, case):
        # n = 300 has more nodes than n / 4 at h / 32: the seed would cost
        # about what it saves
        data = {"n300": lambda: sine_dgp(2, 300, 1),
                "q2": lambda: linear_q2_dgp(2, 2000, 1),
                "K3": lambda: sine_dgp(3, 2000, 1),
                "start": lambda: sine_dgp(2, 2000, 1)}[case]()
        start = profile.starting_state(data, 2) if case == "start" else None
        fit = fit_semiparametric(data, bandwidth_from_scale(data.t, 0.5),
                                 start=start)
        assert fit.converged
        assert point_solves == []


class TestForcingTerms:
    """Inside the loop each Jacobian solve stops at a forcing tolerance,
    _JACOBIAN_FORCING times the state's last move; the J behind the
    certificate and the standard errors is solved to _JACOBIAN_TOL."""

    @pytest.mark.parametrize("max_iter", [200, 2], ids=["converged", "max_iter"])
    @pytest.mark.parametrize("K, q", [(3, 1), (4, 1), (3, 2), (4, 2)],
                             ids=["3", "4", "3-q2", "4-q2"])
    def test_standard_errors_take_a_tight_jacobian_at_the_result(
            self, solve_log, K, q, max_iter):
        data = sine_dgp(K, 250, seed=2) if q == 1 else linear_q2_dgp(K, 250, seed=2)
        kernel = bandwidth_from_scale(data.t, 0.5)
        fit = fit_semiparametric(data, kernel, max_iter=max_iter)
        assert fit.converged == (max_iter == 200)
        last = jacobian_solves(solve_log)[-1]
        J = last["J"]
        assert np.array_equal(last["beta"], fit.beta)
        _, info = profile._score_information(data, fit.smooth, J)
        assert np.array_equal(fit.beta_se,
                              standard_errors(_covariance(info), fit.beta.shape))
        # against a cold solve well past _JACOBIAN_TOL at the returned state
        exact = exact_jacobian(data, kernel, fit.smooth, 1e-13)
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

    def test_declined_certificate_gives_the_next_direction(self, monkeypatch,
                                                           solve_log):
        # the first certificate's step is pushed past tol: the fit goes on
        # from that step and its exact J, with no second Jacobian solve
        events = solve_log           # the solves, and the declined step
        newton = profile._newton_step

        def tight_jacobian(event):
            return event["kind"] == "jacobian" and event["tol"] == profile._JACOBIAN_TOL

        def recorded_step(score, info):
            step = newton(score, info)
            if tight_jacobian(events[-1]) and not any(
                    event["kind"] == "declined" for event in events):
                step = step + 2e-6
                events.append({"kind": "declined", "step": step})
            return step

        monkeypatch.setattr(profile, "_newton_step", recorded_step)
        data = sine_dgp(3, 300, seed=4)
        fit = fit_semiparametric(data, bandwidth_from_scale(data.t, 0.5))
        assert fit.converged
        i = next(i for i, event in enumerate(events) if event["kind"] == "declined")
        declined, trial = events[i]["step"], events[i + 1]
        assert trial["kind"] == "curve"
        assert np.array_equal(trial["beta"], events[i - 2]["beta"] + declined.reshape(
            fit.beta.shape))
        # the next Jacobian solve is a loose one, after the step was taken
        assert events[i + 2]["kind"] == "jacobian"
        assert events[i + 2]["tol"] > profile._JACOBIAN_TOL
        assert tight_jacobian(events[-1])


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

    def test_guard_exhausted_fit_keeps_its_last_jacobian(self, monkeypatch,
                                                         solve_log):
        monkeypatch.setattr(profile, "_CURVE_TOL", 1e-7)
        data = sine_dgp(3, 300, seed=1)
        kernel = bandwidth_from_scale(data.t, 0.5)
        fit = fit_semiparametric(data, kernel)
        assert "trace guard exhausted halvings at iteration 3" in fit.warnings
        # the fit went back to the last iteration's start, where that
        # iteration's Jacobian solve stopped at its forcing tolerance; the
        # closing solve continues from that J to _JACOBIAN_TOL
        solves = jacobian_solves(solve_log)
        assert len(solves) == fit.iterations + 1
        loose, closing = solves[-2:]
        assert loose["tol"] > profile._JACOBIAN_TOL
        assert closing["tol"] == profile._JACOBIAN_TOL
        assert closing["given"] is loose["J"]
        for s in (loose, closing):
            assert np.array_equal(s["beta"], fit.beta)
            assert np.array_equal(s["m"], fit.smooth.m)
        J = closing["J"]
        exact = exact_jacobian(data, kernel, fit.smooth, 1e-13)
        np.testing.assert_allclose(J, exact, rtol=0, atol=1e-10)
        _, info = profile._score_information(data, fit.smooth, J)
        assert np.array_equal(fit.beta_se,
                              standard_errors(_covariance(info), fit.beta.shape))
