"""The least-favourable-curve solve: Anderson mixing against plain passes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semilogit import (SmoothState, bandwidth_from_scale, dataset_log_likelihood,
                       linear_predictors)
from semilogit import profile
from semilogit.profile import _Solves
from conftest import cold_jacobian, random_state_dataset, score_terms, sine_dgp

TOL = 1e-9


def plain_curve(solves, state, J=None, max_sweeps=None):
    """Reference for ``_Solves.curve``: unmixed Gauss-Seidel passes, same
    stop rule, record and returns, the sweeps carrying the running
    dm/dbeta; ``max_sweeps`` defaults to the pass cap."""
    if max_sweeps is None:
        max_sweeps = profile._BURNIN_SWEEPS
    data = solves.data
    J = cold_jacobian(data, state) if J is None else J.copy()
    if solves.Wy is None:
        solves.Wy = score_terms(data, solves.cats, solves.wcache)
    for _ in range(max_sweeps):
        delta = 0.0
        hits_total = 0
        for row, wy in enumerate(solves.Wy):
            step, hits = profile._category_pass(data, state, row, solves.wcache, J, wy)
            mu = state.m[row] + step
            delta = max(delta, float(np.abs(mu - state.m[row]).max()))
            hits_total += hits
            state.m[row] = mu
        solves.worst_cap_fraction = max(solves.worst_cap_fraction,
                                        hits_total / state.m.size)
        if delta < solves.tol:
            break
    else:
        solves.capped.append(delta)
    eta = linear_predictors(state.beta, state.m, data.x, state.reference)
    return dataset_log_likelihood(data, eta), J


def start_problem(K, n, seed, tol=TOL):
    data = sine_dgp(K, n, seed)
    state = profile.starting_state(data, K)
    return data, state, _Solves(data, bandwidth_from_scale(data.t, 0.5),
                                state.categories(), tol)


class TestAcceleratedResolve:
    @pytest.mark.parametrize("K", [3, 4])
    def test_matches_plain_passes(self, monkeypatch, K):
        _, state, solves = start_problem(K, 250, seed=2, tol=1e-12)
        fast, slow = state.copy(), state.copy()
        monkeypatch.setattr(profile, "_BURNIN_SWEEPS", 2000)
        solves.curve(fast)
        plain_curve(solves, slow)
        assert not solves.capped
        np.testing.assert_allclose(fast.m, slow.m, rtol=0, atol=1e-8)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**31 - 1), scale=st.floats(0.6, 2.0))
    def test_returned_curve_is_a_fixed_point(self, seed, scale):
        data, beta, m = random_state_dataset(seed)
        state = SmoothState(beta, m, reference=3)
        solves = _Solves(data, bandwidth_from_scale(data.t, scale),
                         state.categories(), TOL)
        solves.curve(state)
        assert not solves.capped
        before = state.m.copy()
        plain_curve(solves, state, max_sweeps=1)
        assert np.abs(state.m - before).max() < 10 * TOL

    def test_fit_takes_at_most_six_tenths_of_the_plain_passes(
            self, monkeypatch, pass_counts):
        # the burn-in solve of a K = 3 fit, cold from the parametric start:
        # the coupled curves still have far to go, so mixing has work to
        # do.  The later trial solves start at the first-order prediction
        # m + lam J d and take few passes either way.
        data = sine_dgp(3, 300, seed=4)
        kernel = bandwidth_from_scale(data.t, 0.5)
        start = profile.starting_state(data, 3)
        ll = profile.profile_loglik(data, kernel, start.beta, start)
        accelerated = pass_counts["sweeps"]
        pass_counts["sweeps"] = 0
        monkeypatch.setattr(_Solves, "curve", plain_curve)
        ref = profile.profile_loglik(data, kernel, start.beta, start)
        assert ll == pytest.approx(ref, abs=1e-8)
        assert accelerated <= 0.6 * pass_counts["sweeps"]

    def test_one_category_is_the_plain_loop(self, monkeypatch, pass_counts):
        data = sine_dgp(2, 400, seed=3)
        kernel = bandwidth_from_scale(data.t, 0.5)
        fit = profile.fit_semiparametric(data, kernel)
        sweeps = pass_counts["sweeps"]
        pass_counts["sweeps"] = 0
        monkeypatch.setattr(_Solves, "curve", plain_curve)
        ref = profile.fit_semiparametric(data, kernel)
        assert pass_counts["sweeps"] == sweeps
        assert np.array_equal(fit.beta, ref.beta)
        assert np.array_equal(fit.smooth.m, ref.smooth.m)
        assert fit.loglik_trace == ref.loglik_trace


class TestSweepCap:
    def test_resolve_reports_the_cap(self, monkeypatch):
        _, state, solves = start_problem(3, 200, seed=1)
        monkeypatch.setattr(profile, "_BURNIN_SWEEPS", 1)
        solves.curve(state)
        assert len(solves.capped) == 1
        assert solves.capped[0] >= TOL

    def test_fit_warns_once(self, monkeypatch):
        data = sine_dgp(3, 200, seed=1)
        kernel = bandwidth_from_scale(data.t, 0.5)
        monkeypatch.setattr(profile, "_BURNIN_SWEEPS", 1)
        fit = profile.fit_semiparametric(data, kernel, max_iter=3)
        hits = [w for w in fit.warnings if "re-solve stopped at 1 sweeps" in w]
        assert len(hits) == 1

    def test_no_warning_when_every_solve_converges(self):
        data = sine_dgp(3, 200, seed=1)
        fit = profile.fit_semiparametric(data, bandwidth_from_scale(data.t, 0.5))
        assert not any("re-solve stopped" in w for w in fit.warnings)
