"""The blocked O(n^2) pass: factored logistic, cross weights, packed
triangular cache and its two-direction pass, block layout, and the
chunks and thread pool that spread it over the cores."""

import math
import multiprocessing
import sys
import threading

import numpy as np
import pytest

from semilogit import (
    Dataset,
    InvalidPredictorError,
    KernelConfig,
    NoLocalDataError,
    SemilogitError,
    SmoothState,
    bandwidth_from_scale,
    fit_semiparametric,
    kernel_weights,
    local_smoothed_score,
    predict_surface,
)
from semilogit import profile
from semilogit.core import STEP_CAP, sigmoid
from semilogit.profile import (
    _category_pass,
    _fixed_logit_parts,
    _Logistic,
    _solve_m_at_points,
    _symmetric_sums,
    _WeightCache,
)
from conftest import (cold_jacobian, cold_sweep, integer_t, linear_q2_dgp,
                      random_state_dataset, score_terms, sine_dgp)


def all_weights(kernel, Tq, T):
    """Every weight between the rows of Tq and T, in one block."""
    return profile._cross_weights(kernel, Tq, T, np.empty((Tq.shape[0], T.shape[0])))


def _drop_pool():
    executor, _ = profile._pool.pop("helpers", (None, 0))
    if executor is not None:
        executor.shutdown()


@pytest.fixture
def use_workers(monkeypatch):
    """``use(count)`` runs the pool as on a machine with ``count`` cores,
    from a fresh pool; the pool is shut down after the test."""
    def use(count):
        _drop_pool()
        monkeypatch.setattr(profile, "_worker_count", lambda: count)

    yield use
    _drop_pool()


def entrywise(logit, W, mu, first=0, down=False):
    """(W * P, W * P * (1 - P)) entry by entry, from _Logistic's block sums
    over one observation at a time: P between the points mu of W's rows
    and the offsets g[first:] of its columns, or with ``down`` between the
    offsets g[first:] of its rows and the points mu of its columns."""
    emu, C = logit.columns(mu)
    wp, wpq = [], []
    for j in range(W.shape[0 if down else 1]):
        one = slice(first + j, first + j + 1)
        part = W[j:j + 1] if down else W[:, j:j + 1]
        sums, info = logit.totals(logit.sums(part, mu, emu, one, C, down), emu)
        wp.append(sums)
        wpq.append(info[:, 0])
    wp, wpq = np.array(wp), np.array(wpq)
    return (wp, wpq) if down else (wp.T, wpq.T)


def counted_sigmoid(monkeypatch):
    """Counts the calls of the sigmoid form in profile."""
    calls = []
    monkeypatch.setattr(profile, "sigmoid",
                        lambda z: calls.append(1) or sigmoid(z))
    return calls


class TestFactoredLogistic:
    def _both_forms(self, g, mu):
        logit = _Logistic(g)
        WP, WPQ = entrywise(logit, np.ones((mu.size, g.size)), mu)
        P_ref = sigmoid(g[None, :] + mu[:, None])
        return logit, WP, WPQ, P_ref

    def test_equals_sigmoid_form(self, monkeypatch):
        rng = np.random.default_rng(0)
        g = 6.0 * rng.normal(size=300)
        mu = 6.0 * rng.normal(size=40)
        calls = counted_sigmoid(monkeypatch)
        logit, WP, WPQ, P_ref = self._both_forms(g, mu)
        assert logit.columns(mu)[0] is not None and not calls   # the exp-free form
        np.testing.assert_allclose(WP, P_ref, rtol=0, atol=1e-14)
        np.testing.assert_allclose(WPQ, P_ref * (1.0 - P_ref), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("g_scale, mu_scale", [(400.0, 400.0), (790.0, 10.0)])
    def test_overflow_branch_saturates(self, g_scale, mu_scale):
        # |g| + |mu| near 800 would overflow e^-g e^-mu
        g = g_scale * np.linspace(-1.0, 1.0, 51)
        mu = mu_scale * np.linspace(-1.0, 1.0, 9)
        logit, WP, WPQ, P_ref = self._both_forms(g, mu)
        assert logit.columns(mu)[0] is None
        assert np.all(np.isfinite(WP)) and np.all(np.isfinite(WPQ))
        np.testing.assert_allclose(WP, P_ref, rtol=0, atol=1e-14)
        np.testing.assert_allclose(WPQ, P_ref * (1.0 - P_ref), rtol=0, atol=1e-14)
        assert WP.min() == 0.0 and WP.max() == 1.0


class TestOverflowBound:
    """The factored form holds up to |g| + |mu| = _EXP_SAFE, where
    (1 + e^-g e^-mu)^2 is still finite; past it the sigmoid form takes
    over."""

    def _problem(self, monkeypatch, extent):
        # g and mu reach +-(extent - 150) and +-150, so |g| + |mu| reaches extent
        data, _, _ = random_state_dataset(8, n=60, K=2)
        cache = _ragged_cache(monkeypatch, bandwidth_from_scale(data.t, 0.8),
                              data.t, cached=True)
        rng = np.random.default_rng(9)
        g = (extent - 150.0) * rng.uniform(-1.0, 1.0, size=data.n)
        mu = 150.0 * rng.uniform(-1.0, 1.0, size=data.n)
        g[:2], mu[:2] = [extent - 150.0, 150.0 - extent], [150.0, -150.0]
        W = all_weights(cache.kernel, data.t, data.t)
        z = g[None, :] + mu[:, None]
        P, Q = sigmoid(z), sigmoid(-z)
        return cache, _Logistic(g), g, mu, W, P, Q

    def _check_sums(self, cache, logit, mu, W, P, Q):
        R = np.random.default_rng(10).normal(size=(mu.size, 2))
        wp, wpq = _symmetric_sums(cache, logit, mu, R)
        M = W * P * Q
        assert np.all(np.isfinite(wpq)) and np.all(wpq[:, 0] > 0.0)
        np.testing.assert_allclose(wp, (W * P).sum(axis=1), rtol=1e-12, atol=0)
        np.testing.assert_allclose(wpq[:, 0], M.sum(axis=1), rtol=1e-12, atol=0)
        np.testing.assert_allclose(wpq[:, 1:], M @ R, rtol=1e-12, atol=1e-300)

    def test_between_the_bound_and_600_takes_the_sigmoid_form(self, monkeypatch):
        cache, logit, g, mu, W, P, Q = self._problem(monkeypatch, 500.0)
        assert profile._EXP_SAFE < 500.0
        calls = counted_sigmoid(monkeypatch)
        assert logit.columns(mu)[0] is None
        self._check_sums(cache, logit, mu, W, P, Q)
        assert calls

    def test_just_below_the_bound_takes_the_factored_form(self, monkeypatch):
        extent = profile._EXP_SAFE - 0.1
        cache, logit, g, mu, W, P, Q = self._problem(monkeypatch, extent)
        calls = counted_sigmoid(monkeypatch)
        assert logit.columns(mu)[0] is not None
        self._check_sums(cache, logit, mu, W, P, Q)
        # entry by entry, where p or 1 - p is e^-349.9 and the denominator
        # (1 + c)^2 is e^699.8
        ones = np.ones((mu.size, g.size))
        WP, WPQ = entrywise(logit, ones, mu)
        assert np.all(np.isfinite(WPQ)) and WPQ.min() > 0.0
        assert WPQ.min() < 1e-150
        np.testing.assert_allclose(WP, P, rtol=1e-12, atol=0)
        np.testing.assert_allclose(WPQ, P * Q, rtol=1e-12, atol=0)
        assert not calls


class TestCrossWeights:
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_equals_kernel_weights_without_constant(self, q):
        rng = np.random.default_rng(q)
        T = rng.normal(size=(37, q))
        Tq = rng.normal(size=(11, q))
        kern = KernelConfig(bandwidths=rng.uniform(0.3, 1.5, size=q))
        norm = np.prod(1.0 / (np.sqrt(2.0 * np.pi) * kern.bandwidths))
        expected = np.vstack([kernel_weights(kern, tq, T) for tq in Tq])
        np.testing.assert_allclose(norm * all_weights(kern, Tq, T), expected,
                                   rtol=1e-13)

    def test_cache_filled_in_place_equals_block_rows(self, monkeypatch):
        data, _, _ = random_state_dataset(3, n=50, q=2)
        kern = bandwidth_from_scale(data.t, 0.7)
        monkeypatch.setattr(profile, "_BLOCK_DOUBLES", 7 * 50)
        cached = _WeightCache(kern, data.t)
        monkeypatch.setattr(profile, "_CACHE_LIMIT", 0)
        uncached = _WeightCache(kern, data.t)
        assert cached.cached and not uncached.cached
        # rows per block grow as the rows shorten; n cuts the last one short
        assert cached.layout == [(0, 7), (7, 15), (15, 25), (25, 39), (39, 50)]
        assert profile._block_rows(50 - 39) > 50 - 39
        full = all_weights(kern, data.t, data.t)
        for (a, b, Wc), (a2, b2, Wu) in zip(cached.blocks(cached.layout),
                                            uncached.blocks(uncached.layout)):
            assert (a, b) == (a2, b2) and Wc.shape == (b - a, data.n - a)
            np.testing.assert_array_equal(Wc, Wu)
            np.testing.assert_array_equal(Wc, full[a:b, a:])
            np.testing.assert_array_equal(np.diagonal(Wc), 1.0)

    def test_tiny_bandwidths_many_dimensions(self):
        # the normalised kernel's constant is (1e80 / sqrt(2 pi))^4 = inf
        data, beta, m = random_state_dataset(4, n=30, q=4, K=2)
        kern = KernelConfig(bandwidths=np.full(4, 1e-80))
        state = SmoothState(beta, m, reference=2)
        cache = _WeightCache(kern, data.t)
        for _, _, W in cache.blocks(cache.layout):
            assert np.all(np.isfinite(W))
            np.testing.assert_array_equal(np.diagonal(W), 1.0)
        try:
            mu = cold_sweep(data, state, 0, cache)
        except SemilogitError:
            return
        assert np.all(np.isfinite(mu))


class TestSolveAtPoints:
    @pytest.fixture(autouse=True)
    def _tight_tolerance(self, monkeypatch):
        monkeypatch.setattr(profile, "_POINT_TOL", 1e-12)

    def test_same_values_across_block_layouts(self, monkeypatch):
        data, beta, m = random_state_dataset(5, n=60, K=3)
        state = SmoothState(beta, m, reference=3)
        kern = bandwidth_from_scale(data.t, 0.8)
        Tq = np.linspace(-1.5, 1.5, 23)[:, None]
        one_block = _solve_m_at_points(data, state, kern, Tq)
        monkeypatch.setattr(profile, "_BLOCK_DOUBLES", 5 * data.n)
        five_rows = _solve_m_at_points(data, state, kern, Tq)
        assert one_block.shape == (2, 23)
        np.testing.assert_allclose(five_rows, one_block, rtol=0, atol=1e-12)

    def test_solves_the_local_condition(self):
        data, beta, m = random_state_dataset(6, n=60, K=3)
        state = SmoothState(beta, m, reference=3)
        kern = bandwidth_from_scale(data.t, 0.8)
        Tq = np.array([[-0.7], [0.2], [1.1]])
        mu = _solve_m_at_points(data, state, kern, Tq)
        for row, k in enumerate(state.categories()):
            for j, tq in enumerate(Tq):
                score, curv = local_smoothed_score(data, int(k), tq, mu[row, j],
                                                   state, kern)
                assert abs(score / curv) < 1e-9


def assert_solved_within_the_bound(monkeypatch, data, state, kern, Tq):
    """The query-point solve at ``Tq`` is finite, within 1e-10 of the same
    solve continued until its steps are below 1e-14, and meets the local
    condition of every point."""
    mu = _solve_m_at_points(data, state, kern, Tq)
    assert np.all(np.isfinite(mu))
    monkeypatch.setattr(profile, "_POINT_TOL", 1e-28)
    continued = _solve_m_at_points(data, state, kern, Tq)
    np.testing.assert_allclose(mu, continued, rtol=0, atol=1e-10)
    for row, k in enumerate(state.categories()):
        for j, tq in enumerate(Tq):
            score, curv = local_smoothed_score(data, int(k), tq, mu[row, j],
                                               state, kern)
            assert abs(score / curv) < 1e-9


@pytest.fixture
def point_steps(monkeypatch):
    """Records the largest local Newton step, before the cap, of every
    query-point pass."""
    steps = []
    real = profile._local_steps

    def recorded(*args):
        out = real(*args)
        steps.append(float(np.abs(out).max()))
        return out

    monkeypatch.setattr(profile, "_local_steps", recorded)
    return steps


class TestInterpolatedSeed:
    nodes = np.array([-1.0, -0.2, 0.1, 0.9, 2.0])

    def test_a_parabola_is_reproduced_and_held_outside_the_nodes(self):
        values = np.vstack([1.0 - 2.0 * self.nodes + 0.5 * self.nodes ** 2,
                            3.0 * self.nodes])
        x = np.array([-1.0, -0.6, 0.0, 0.5, 1.7, 2.0])
        np.testing.assert_allclose(profile._interpolated(self.nodes, values, x),
                                   [1.0 - 2.0 * x + 0.5 * x ** 2, 3.0 * x],
                                   rtol=0, atol=1e-14)
        ends = profile._interpolated(self.nodes, values, np.array([-5.0, 7.0]))
        assert np.array_equal(ends, values[:, [0, -1]])

    def test_nodes_give_their_own_values(self):
        values = np.random.default_rng(1).normal(size=(2, 5))
        assert np.array_equal(profile._interpolated(self.nodes, values, self.nodes),
                              values)

    @pytest.mark.parametrize("count", [1, 2])
    def test_fewer_than_three_nodes_are_linear(self, count):
        nodes, values = self.nodes[:count], np.array([[0.5, -1.5][:count]])
        x = np.array([-3.0, -0.7, -0.2, 1.0])
        assert np.array_equal(profile._interpolated(nodes, values, x),
                              np.interp(x, nodes, values[0])[None, :])

    @pytest.mark.parametrize("points", [4, 5, 6])
    def test_a_polynomial_of_the_stencil_degree_is_reproduced(self, points):
        nodes = np.sort(np.random.default_rng(2).uniform(-2.0, 2.0, 12))
        coef = np.random.default_rng(3).normal(size=points)
        values = np.polyval(coef, nodes)[None, :]
        x = np.linspace(-2.5, 2.5, 41)
        got = profile._interpolated(nodes, values, x, points)
        np.testing.assert_allclose(got[0], np.polyval(coef, np.clip(x, nodes[0], nodes[-1])),
                                   rtol=0, atol=1e-9)
        assert np.array_equal(profile._interpolated(nodes, values, nodes, points), values)

    def test_fewer_nodes_than_points_take_every_node(self):
        values = (self.nodes ** 4 - self.nodes)[None, :]
        x = np.linspace(-1.0, 2.0, 13)
        np.testing.assert_allclose(profile._interpolated(self.nodes, values, x, 6)[0],
                                   x ** 4 - x, rtol=0, atol=1e-12)

    def test_near_coincident_nodes_take_the_parabola(self):
        # nodes 1e-9 apart would magnify the values' rounding about 1e9
        # times: the six-point stencils holding both fall back, the rest
        # keep their order
        nodes = np.array([-3.0, -2.0, -1.0, 0.0, 1.0, 1.0 + 1e-9, 2.0, 3.0, 4.0,
                          5.0, 6.0, 7.0, 8.0, 9.0])
        values = np.sin(nodes)[None, :]
        x = np.linspace(-3.0, 9.0, 97)
        got = profile._interpolated(nodes, values, x, 6)
        parabola = profile._interpolated(nodes, values, x)
        far = x > 5.0
        assert np.array_equal(got[:, (x > -0.5) & (x < 3.0)],
                              parabola[:, (x > -0.5) & (x < 3.0)])
        assert not np.array_equal(got[:, far], parabola[:, far])
        assert np.abs(got[0, far] - np.sin(x[far])).max() < \
            np.abs(parabola[0, far] - np.sin(x[far])).max()


class TestPointSolveStop:
    """The query-point solve stops once its last Newton step bounds the
    remaining error by _POINT_TOL, not on a pass that only confirms it."""

    @pytest.mark.parametrize("shift", [0.0, 8.0, 10.0],
                             ids=["near", "bracketed", "capped"])
    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_within_point_tol_of_the_continued_solve(self, monkeypatch,
                                                     point_steps, K, q, shift):
        data, beta, m = random_state_dataset(11, n=80, q=q, K=K)
        m[0] += shift          # the first category's seeds start off by shift
        state = SmoothState(beta, m, reference=K)
        kern = bandwidth_from_scale(data.t, 0.8)
        Tq = np.random.default_rng(3).normal(size=(17, q))    # one block
        mu = _solve_m_at_points(data, state, kern, Tq)
        if shift:
            assert max(point_steps) > STEP_CAP
        point_steps.clear()
        # s^2 e^(2s) <= 1e-28 holds once the step s is below 1e-14
        monkeypatch.setattr(profile, "_POINT_TOL", 1e-28)
        continued = _solve_m_at_points(data, state, kern, Tq)
        # every category's solve stopped on its rule, none at the step cap
        assert sum(s < 1e-14 for s in point_steps) == K - 1
        np.testing.assert_allclose(mu, continued, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("shift", [-8.0, 6.0, 8.0])
    def test_capped_steps_do_not_cycle(self, point_steps, shift):
        # plain clipped steps from these seeds alternate between two points
        # STEP_CAP apart for all _BURNIN_SWEEPS steps; at K = 2 the offsets
        # g do not depend on m, so the shifted seeds have the same roots
        data, beta, m = random_state_dataset(11, n=80, q=1, K=2)
        kern = bandwidth_from_scale(data.t, 0.8)
        Tq = np.random.default_rng(3).normal(size=(17, 1))
        near = _solve_m_at_points(data, SmoothState(beta, m, reference=2), kern, Tq)
        point_steps.clear()
        mu = _solve_m_at_points(data, SmoothState(beta, m + shift, reference=2),
                                kern, Tq)
        assert max(point_steps) > STEP_CAP
        assert len(point_steps) < 20
        np.testing.assert_allclose(mu, near, rtol=0, atol=profile._POINT_TOL)

    @pytest.mark.parametrize("q, passes", [(1, 1), (2, 2)])
    def test_k2_block_passes_next_to_observation_points(self, point_steps,
                                                         q, passes):
        data = sine_dgp(2, 300, 1) if q == 1 else linear_q2_dgp(2, 300, 1)
        kern = bandwidth_from_scale(data.t, 0.5)
        fit = fit_semiparametric(data, kern)
        # at q = 1 the fitted m interpolated along t seeds these points
        # within the first step's proof; at q = 2 the nearest observation
        # point's m seeds them one step further off
        mu = _solve_m_at_points(data, fit.smooth, kern, data.t[:40] + 1e-3)
        assert mu.shape == (1, 40)
        # the last step already proves the error below _POINT_TOL; a solve
        # stopping on a step below _POINT_TOL would have taken one more pass
        assert len(point_steps) == passes
        assert point_steps[-1] > profile._POINT_TOL

    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_surface_takes_one_pass_per_block(self, point_steps, K):
        # the grid of perfbench's surfaces over a k3-curve-sized draw: the
        # quadratic seed is within the first step's proof of every point
        # in a block, so each block and category takes one Newton step
        data = sine_dgp(K, 800, 1)
        kern = bandwidth_from_scale(data.t, 0.5)
        fit = fit_semiparametric(data, kern)
        point_steps.clear()
        grid = np.linspace(-1.9, 1.9, 400)[:, None]
        _solve_m_at_points(data, fit.smooth, kern, grid)
        assert len(point_steps) == (K - 1) * math.ceil(400 / profile._block_rows(800))

    @pytest.mark.parametrize("K", [2, 3])
    def test_tied_and_out_of_range_points(self, monkeypatch, K):
        # a smooth covariate in whole units, like age in years: tied values
        data = integer_t(sine_dgp(K, 300, 4))
        lo, hi = data.t.min(), data.t.max()
        kern = bandwidth_from_scale(data.t, 0.5)
        fit = fit_semiparametric(data, kern)
        Tq = np.array([lo, lo + 7.0, hi, lo + 3.5, hi - 0.25,
                       lo - 3.0, hi + 4.5])[:, None]
        assert_solved_within_the_bound(monkeypatch, data, fit.smooth, kern, Tq)

    def test_near_duplicate_points(self, monkeypatch, point_steps):
        # every other sorted t 1e-13 above its neighbour: the parabola
        # through such a pair and a third point amplifies the fitted m's
        # rounding, and the solve still meets its bound within the two
        # steps per block and category that a linear seed takes here
        data = sine_dgp(3, 800, 2)
        t = data.t[:, 0].copy()
        order = np.argsort(t, kind="stable")
        t[order[1::2]] = t[order[0::2]] + 1e-13
        data = Dataset(y=data.y, x=data.x, t=t[:, None], n_categories=3)
        kern = bandwidth_from_scale(data.t, 0.5)
        fit = fit_semiparametric(data, kern)
        point_steps.clear()
        grid = np.linspace(-1.9, 1.9, 400)[:, None]
        _solve_m_at_points(data, fit.smooth, kern, grid)
        assert len(point_steps) <= 2 * (3 - 1) * math.ceil(400 / profile._block_rows(800))
        assert_solved_within_the_bound(monkeypatch, data, fit.smooth, kern, grid)

    def test_two_distinct_points(self, monkeypatch):
        # too few nodes for a parabola: the seed is the line through them
        data = sine_dgp(2, 300, 4)
        data = Dataset(y=data.y, x=data.x, t=np.sign(data.t), n_categories=2)
        kern = bandwidth_from_scale(data.t, 0.5)
        fit = fit_semiparametric(data, kern)
        Tq = np.array([-2.0, -1.0, -0.3, 0.0, 0.8, 1.0, 3.0])[:, None]
        assert_solved_within_the_bound(monkeypatch, data, fit.smooth, kern, Tq)

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_point_fails_before_any_step(self, point_steps,
                                                   value, q):
        data, beta, m = random_state_dataset(11, n=80, q=q, K=2)
        kern = bandwidth_from_scale(data.t, 0.8)
        Tq = np.random.default_rng(3).normal(size=(30, q))
        Tq[7, q - 1] = value
        with pytest.raises(InvalidPredictorError, match="query point 7 "):
            _solve_m_at_points(data, SmoothState(beta, m, reference=2), kern, Tq)
        assert point_steps == []


def _ragged_cache(monkeypatch, kern, T, cached, rows=9):
    """A weight cache of row blocks of at least ``rows`` rows, the last
    one cut short by n, in several chunks."""
    n = T.shape[0]
    monkeypatch.setattr(profile, "_BLOCK_DOUBLES", rows * n)
    if not cached:
        monkeypatch.setattr(profile, "_CACHE_LIMIT", 0)
    cache = _WeightCache(kern, T)
    assert cache.cached == cached and len(cache.layout) > 3
    start, stop = cache.layout[-1]
    assert profile._block_rows(n - start) > stop - start
    # the chunks cut the blocks in order, none empty
    assert 1 < len(cache.chunks) <= profile._CHUNKS
    assert [block for chunk in cache.chunks for block in chunk] == cache.layout
    return cache


def implicit_rhs(data, state, row, J):
    """-x e_k + sum_{s != k} pi_s (x e_s + J_s), k = ``row``, with
    pi_s = e^{eta_s} / (1 + sum_{l != k} e^{eta_l}): the right-hand side of
    the implicit-function equations, written out from the softmax."""
    eta = data.x @ state.beta.T + state.m.T
    others = [s for s in range(J.shape[0]) if s != row]
    rest = 1.0 + np.exp(eta[:, others]).sum(axis=1)
    p = data.p
    rhs = np.zeros(J.shape[1:])
    rhs[:, row * p:(row + 1) * p] = -data.x
    for s in others:
        x_s = np.zeros(J.shape[1:])
        x_s[:, s * p:(s + 1) * p] = data.x
        rhs += (np.exp(eta[:, s]) / rest)[:, None] * (x_s + J[s])
    return rhs


def _dense(kern, data, g, mu):
    """Full kernel matrix and logistic P_ij = sigmoid(g_j + mu_i)."""
    W = all_weights(kern, data.t, data.t)
    return W, sigmoid(g[None, :] + mu[:, None])


@pytest.mark.parametrize("cached", [True, False])
@pytest.mark.parametrize("K, q", [(2, 1), (2, 2), (3, 1), (3, 2)])
class TestTriangularPassEqualsDense:
    """The packed two-direction pass against the full n x n sums, over
    several chunks run on two threads: blocks of 9 or more rows, and blocks
    of 2 or more rows in chunks of several blocks."""

    @pytest.fixture(autouse=True)
    def _two_workers(self, use_workers):
        use_workers(2)

    def _setup(self, monkeypatch, cached, K, q, rows=9):
        data, beta, m = random_state_dataset(10 * K + q, n=60, q=q, K=K)
        state = SmoothState(beta, m, reference=K)
        kern = bandwidth_from_scale(data.t, 0.6)
        row = K - 2
        g, _ = _fixed_logit_parts(data, state, row)
        W, P = _dense(kern, data, g, state.m[row])
        cache = _ragged_cache(monkeypatch, kern, data.t, cached, rows)
        return data, state, row, cache, W, P

    def _check_sweep(self, data, state, row, cache, W, P):
        k = int(state.categories()[row])
        yk = (data.y == k).astype(np.float64)
        step = (W @ yk - (W * P).sum(axis=1)) / (W * P * (1.0 - P)).sum(axis=1)
        expected = state.m[row] + np.clip(step, -5.0, 5.0)
        np.testing.assert_allclose(score_terms(data, state.categories(), cache)[row],
                                   W @ yk, rtol=1e-13, atol=0)
        mu = cold_sweep(data, state, row, cache)
        np.testing.assert_allclose(mu, expected, rtol=1e-12, atol=1e-12)

    def _check_gradients(self, data, state, row, cache, W, P):
        # a Jacobian-only pass from a random running J against the dense
        # D^{-1} M rhs, rhs the implicit-function right-hand side at that J
        M = W * P * (1.0 - P)
        J = np.random.default_rng(data.q).normal(size=cold_jacobian(data, state).shape)
        expected = M @ implicit_rhs(data, state, row, J) / M.sum(axis=1)[:, None]
        _category_pass(data, state, row, cache, J)
        np.testing.assert_allclose(J[row], expected, rtol=1e-12, atol=1e-12)

    def test_m_sweep(self, monkeypatch, cached, K, q):
        self._check_sweep(*self._setup(monkeypatch, cached, K, q))

    def test_m_gradients_all(self, monkeypatch, cached, K, q):
        self._check_gradients(*self._setup(monkeypatch, cached, K, q))

    def test_sweep_and_jacobian_pass_give_the_same_J(self, monkeypatch, cached, K, q):
        data, state, row, cache, _, _ = self._setup(monkeypatch, cached, K, q)
        J = np.random.default_rng(K).normal(size=cold_jacobian(data, state).shape)
        swept = J.copy()
        y = (data.y == state.categories()[row]).astype(np.float64)
        _category_pass(data, state, row, cache, swept, y)
        _category_pass(data, state, row, cache, J)
        np.testing.assert_array_equal(swept, J)

    def test_chunks_of_several_blocks(self, monkeypatch, cached, K, q):
        parts = self._setup(monkeypatch, cached, K, q, rows=2)
        assert max(len(chunk) for chunk in parts[3].chunks) > 1
        self._check_sweep(*parts)
        self._check_gradients(*parts)


class TestDirectionTwoOverflow:
    def test_transposed_logistic_falls_back_to_sigmoid(self):
        # |g| + |mu| near 800 would overflow e^-g e^-mu
        g = 400.0 * np.linspace(-1.0, 1.0, 51)
        mu = 400.0 * np.linspace(-1.0, 1.0, 9)
        logit = _Logistic(g)
        assert logit.columns(mu)[0] is None
        W = np.random.default_rng(0).uniform(size=(20, 9))
        WP, WPQ = entrywise(logit, W, mu, first=10, down=True)
        P_ref = sigmoid(g[10:30, None] + mu[None, :])
        np.testing.assert_allclose(WP, W * P_ref, rtol=0, atol=1e-14)
        np.testing.assert_allclose(WPQ, W * P_ref * (1.0 - P_ref), rtol=0, atol=1e-14)
        assert P_ref.min() < 1e-250 and P_ref.max() == 1.0

    @pytest.mark.parametrize("cached", [True, False])
    def test_pass_matches_dense_sigmoid(self, monkeypatch, cached):
        data, _, _ = random_state_dataset(8, n=60, K=2)
        kern = bandwidth_from_scale(data.t, 0.8)
        cache = _ragged_cache(monkeypatch, kern, data.t, cached)
        rng = np.random.default_rng(8)
        g = rng.uniform(-400.0, 400.0, size=data.n)
        mu = rng.uniform(-400.0, 400.0, size=data.n)
        logit = _Logistic(g)
        assert logit.columns(mu)[0] is None
        Wy = score_terms(data, np.array([1]), cache)[0]
        W, P = _dense(kern, data, g, mu)
        M = W * P * sigmoid(-(g[None, :] + mu[:, None]))     # 1 - P is 0 where P is 1
        wp, wpq = _symmetric_sums(cache, logit, mu, np.empty((data.n, 0)))
        np.testing.assert_allclose(Wy - wp, W @ (data.y == 1) - (W * P).sum(axis=1),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(wpq[:, 0], M.sum(axis=1), rtol=1e-12, atol=0)
        R = rng.normal(size=(data.n, 2))
        np.testing.assert_allclose(_symmetric_sums(cache, logit, mu, R)[1][:, 1:],
                                   M @ R, rtol=1e-12, atol=1e-300)


def counted_weights(monkeypatch):
    """Records the number of weights of every _cross_weights call."""
    computed = []
    real = profile._cross_weights

    def counting(*args, **kwargs):
        out = real(*args, **kwargs)
        computed.append(out.size)
        return out

    monkeypatch.setattr(profile, "_cross_weights", counting)
    return computed


class TestWorkCount:
    """Each unordered pair's weight is stored, or computed per pass, once,
    up to the diagonal blocks: at most n (n + 1) / 2 + n G of them for
    blocks of at most G rows."""

    def test_packed_cache_and_uncached_pass(self, monkeypatch):
        data, beta, m = random_state_dataset(12, n=60, K=2)
        state = SmoothState(beta, m, reference=2)
        kern = bandwidth_from_scale(data.t, 0.8)
        n = data.n
        cache = _ragged_cache(monkeypatch, kern, data.t, cached=True)
        G = max(stop - start for start, stop in cache.layout)
        bound = n * (n + 1) // 2 + n * G
        assert bound < n * n
        assert cache.packed.nbytes <= 8 * bound

        uncached = _ragged_cache(monkeypatch, kern, data.t, cached=False)
        computed = counted_weights(monkeypatch)
        Wy = score_terms(data, state.categories(), uncached)[0]
        assert n * (n + 1) // 2 <= sum(computed) <= bound
        for one_pass in (lambda: cold_sweep(data, state, 0, uncached, Wy),
                         lambda: _category_pass(data, state, 0, uncached,
                                                cold_jacobian(data, state))):
            computed.clear()
            one_pass()
            assert n * (n + 1) // 2 <= sum(computed) <= bound

    def test_score_term_is_formed_once_per_fit(self, monkeypatch, pass_counts):
        # an uncached K = 2 fit computes one triangle per sweep and none
        # besides: the first sweep forms W y in its own block products
        data = sine_dgp(2, 120, 1)
        kern = bandwidth_from_scale(data.t, 0.5)
        n = data.n
        layout = _ragged_cache(monkeypatch, kern, data.t, cached=False).layout
        triangle = sum((stop - start) * (n - start) for start, stop in layout)
        G = max(stop - start for start, stop in layout)
        assert n * (n + 1) // 2 <= triangle <= n * (n + 1) // 2 + n * G
        computed = counted_weights(monkeypatch)
        per_pass = []
        counted = profile._category_pass

        def recorded(*args):
            before = sum(computed)
            out = counted(*args)
            per_pass.append(sum(computed) - before)
            return out

        monkeypatch.setattr(profile, "_category_pass", recorded)
        fit_semiparametric(data, kern)
        assert pass_counts["sweeps"] > 1 and pass_counts["jacobian"] == 0
        assert per_pass == [triangle] * pass_counts["sweeps"]
        assert sum(computed) == pass_counts["sweeps"] * triangle

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("cached", [True, False], ids=["cached", "uncached"])
    @pytest.mark.parametrize("K", [2, 3])
    def test_first_sweep_forms_the_score_terms_of_a_separate_pass(
            self, monkeypatch, use_workers, K, cached, workers):
        use_workers(workers)
        data = sine_dgp(K, 150, 1)
        kern = bandwidth_from_scale(data.t, 0.5)
        _ragged_cache(monkeypatch, kern, data.t, cached)
        state = profile.starting_state(data, K)
        solves = profile._Solves(data, kern, state.categories(), 1e-9)
        assert solves.wcache.cached == cached and solves.Wy is None
        solves.curve(state)
        assert np.array_equal(solves.Wy,
                              score_terms(data, state.categories(), solves.wcache))


class TestChunkedPool:
    """Results do not depend on the number of cores, errors reach the
    caller typed, and a forked child runs its own pool."""

    def _pass_fit_surface(self, data, kern, rows_per_block):
        rng = np.random.default_rng(9)
        state = SmoothState(0.5 * rng.normal(size=(2, data.p)),
                            0.3 * rng.normal(size=(2, data.n)), reference=3)
        cache = _WeightCache(kern, data.t)
        assert len(cache.chunks) == profile._CHUNKS
        logit = _Logistic(_fixed_logit_parts(data, state, 0)[0])
        R = rng.normal(size=(data.n, 3))
        fit = fit_semiparametric(data, kern)
        grid = np.linspace(-1.9, 1.9, 7 * rows_per_block + 3)[:, None]
        return [*_symmetric_sums(cache, logit, state.m[0], R),
                score_terms(data, np.array([1, 2]), cache),
                fit.beta, fit.smooth.m, fit.beta_se,
                predict_surface(fit, data, grid, np.array([0.4]))]

    def test_bit_identical_on_one_two_and_five_workers(self, monkeypatch, use_workers):
        data = sine_dgp(3, 240, 2)
        kern = bandwidth_from_scale(data.t, 0.5)
        rows = 6
        monkeypatch.setattr(profile, "_BLOCK_DOUBLES", rows * data.n)
        use_workers(1)
        serial = self._pass_fit_surface(data, kern, rows)
        interval = sys.getswitchinterval()
        try:
            # threads switch as often as the interpreter allows; five
            # workers are more than the cores of most test machines
            sys.setswitchinterval(1e-6)
            for workers in (2, 5):
                use_workers(workers)
                for got, expected in zip(self._pass_fit_surface(data, kern, rows), serial):
                    np.testing.assert_array_equal(got, expected)
        finally:
            sys.setswitchinterval(interval)

    def test_every_item_runs_once(self, use_workers):
        use_workers(3)
        seen = []
        profile._for_each(seen.append, range(50))
        assert sorted(seen) == list(range(50))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_surface_error_is_typed_and_from_the_first_failing_block(
            self, monkeypatch, use_workers, workers):
        use_workers(workers)
        data, beta, m = random_state_dataset(5, n=60, K=3)
        state = SmoothState(beta, m, reference=3)
        kern = KernelConfig(bandwidths=[0.05])
        monkeypatch.setattr(profile, "_BLOCK_DOUBLES", 2 * data.n)
        Tq = np.linspace(-1.0, 1.0, 40)[:, None]
        Tq[[7, 8, 31]] = [[1e3], [-1e3], [1e3]]   # blocks 3, 4 and 15 fail
        with pytest.raises(NoLocalDataError, match="at query point 7$"):
            _solve_m_at_points(data, state, kern, Tq)

    def test_forked_child_runs_its_own_pool(self, use_workers):
        use_workers(2)
        data = sine_dgp(2, 400, 3)
        kern = bandwidth_from_scale(data.t, 0.5)
        fit_semiparametric(data, kern)            # the pool threads now exist
        assert "helpers" in profile._pool

        def child():
            assert "helpers" not in profile._pool     # dropped at the fork
            result = fit_semiparametric(data, kern)
            assert np.all(np.isfinite(result.beta))
            assert threading.active_count() > 1       # a pool thread of its own

        process = multiprocessing.get_context("fork").Process(target=child)
        process.start()
        process.join(timeout=120)
        if process.is_alive():
            process.kill()
            process.join()
            pytest.fail("the forked child's fit did not finish")
        assert process.exitcode == 0


@pytest.mark.parametrize("K", [2, 3])
def test_fits_and_surfaces_take_the_factored_form(monkeypatch, K):
    # a silent fall back to the sigmoid form would undo the factored form's
    # gain; perfbench's core.sigmoid.calls reads 0 on every workload
    data = sine_dgp(K, 300, 1)
    kern = bandwidth_from_scale(data.t, 0.5)
    calls = counted_sigmoid(monkeypatch)
    fit = fit_semiparametric(data, kern)
    predict_surface(fit, data, np.linspace(-2.0, 2.0, 41)[:, None], np.array([0.5]))
    assert fit.converged and not calls
