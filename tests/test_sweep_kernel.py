"""The blocked O(n^2) pass: factored logistic, cross weights, block layout."""

import numpy as np
import pytest

from semilogit import (
    KernelConfig,
    SemilogitError,
    SmoothState,
    bandwidth_from_scale,
    kernel_weights,
    local_smoothed_score,
)
from semilogit import profile
from semilogit.core import sigmoid
from semilogit.profile import (
    _cross_weights,
    _Logistic,
    _m_sweep,
    _solve_m_at_points,
    _WeightCache,
)
from conftest import random_state_dataset


class TestFactoredLogistic:
    def _both_forms(self, g, mu):
        logit = _Logistic(g)
        WP, Q = logit.weighted(np.ones((mu.size, g.size)), mu)
        P_ref = sigmoid(g[None, :] + mu[:, None])
        return logit, WP.copy(), Q.copy(), P_ref

    def test_equals_sigmoid_form(self):
        rng = np.random.default_rng(0)
        g = 6.0 * rng.normal(size=300)
        mu = 6.0 * rng.normal(size=40)
        logit, P, Q, P_ref = self._both_forms(g, mu)
        assert logit.eg is not None           # the exp-free branch ran
        np.testing.assert_allclose(P, P_ref, rtol=0, atol=1e-14)
        np.testing.assert_allclose(Q, 1.0 - P_ref, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("g_scale, mu_scale", [(400.0, 400.0), (790.0, 10.0)])
    def test_overflow_branch_saturates(self, g_scale, mu_scale):
        # |g| + |mu| near 800 would overflow e^g e^mu
        g = g_scale * np.linspace(-1.0, 1.0, 51)
        mu = mu_scale * np.linspace(-1.0, 1.0, 9)
        _, P, Q, P_ref = self._both_forms(g, mu)
        assert np.all(np.isfinite(P)) and np.all(np.isfinite(Q))
        np.testing.assert_allclose(P, P_ref, rtol=0, atol=1e-14)
        np.testing.assert_allclose(Q, 1.0 - P_ref, rtol=0, atol=1e-14)
        assert P.min() == 0.0 and P.max() == 1.0


class TestCrossWeights:
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_equals_kernel_weights_without_constant(self, q):
        rng = np.random.default_rng(q)
        T = rng.normal(size=(37, q))
        Tq = rng.normal(size=(11, q))
        kern = KernelConfig(bandwidths=rng.uniform(0.3, 1.5, size=q))
        norm = np.prod(1.0 / (np.sqrt(2.0 * np.pi) * kern.bandwidths))
        expected = np.vstack([kernel_weights(kern, tq, T) for tq in Tq])
        np.testing.assert_allclose(norm * _cross_weights(kern, Tq, T), expected,
                                   rtol=1e-13)

    def test_cache_filled_in_place_equals_block_rows(self, monkeypatch):
        data, _, _ = random_state_dataset(3, n=50, q=2)
        kern = bandwidth_from_scale(data.t, 0.7)
        monkeypatch.setattr(profile, "_BLOCK_DOUBLES", 7 * 50)
        cached = _WeightCache(kern, data.t)
        assert cached.block_rows == 7 and data.n % cached.block_rows
        monkeypatch.setattr(profile, "_CACHE_LIMIT", 0)
        uncached = _WeightCache(kern, data.t)
        blocks = [uncached.rows(a, b).copy() for a, b in uncached.blocks()]
        assert [b.shape[0] for b in blocks] == [7] * 7 + [1]
        np.testing.assert_array_equal(cached.rows(0, data.n), np.vstack(blocks))
        np.testing.assert_array_equal(np.diagonal(cached.rows(0, data.n)), 1.0)

    def test_tiny_bandwidths_many_dimensions(self):
        # the normalised kernel's constant is (1e80 / sqrt(2 pi))^4 = inf
        data, beta, m = random_state_dataset(4, n=30, q=4, K=2)
        kern = KernelConfig(bandwidths=np.full(4, 1e-80))
        state = SmoothState(beta, m, reference=2)
        cache = _WeightCache(kern, data.t)
        assert np.all(np.isfinite(cache.rows(0, data.n)))
        try:
            mu, _ = _m_sweep(data, state, 0, 1, cache, 1e-10, 1, 5.0)
        except SemilogitError:
            return
        assert np.all(np.isfinite(mu))


class TestSolveAtPoints:
    def test_same_values_across_block_layouts(self, monkeypatch):
        data, beta, m = random_state_dataset(5, n=60, K=3)
        state = SmoothState(beta, m, reference=3)
        kern = bandwidth_from_scale(data.t, 0.8)
        Tq = np.linspace(-1.5, 1.5, 23)[:, None]
        one_block = _solve_m_at_points(data, state, kern, Tq, inner_tol=1e-12)
        monkeypatch.setattr(profile, "_BLOCK_DOUBLES", 5 * data.n)
        five_rows = _solve_m_at_points(data, state, kern, Tq, inner_tol=1e-12)
        assert one_block.shape == (2, 23)
        np.testing.assert_allclose(five_rows, one_block, rtol=0, atol=1e-12)

    def test_solves_the_local_condition(self):
        data, beta, m = random_state_dataset(6, n=60, K=3)
        state = SmoothState(beta, m, reference=3)
        kern = bandwidth_from_scale(data.t, 0.8)
        Tq = np.array([[-0.7], [0.2], [1.1]])
        mu = _solve_m_at_points(data, state, kern, Tq, inner_tol=1e-12)
        for row, k in enumerate(state.categories()):
            for j, tq in enumerate(Tq):
                score, curv = local_smoothed_score(data, int(k), tq, mu[row, j],
                                                   state, kern)
                assert abs(score / curv) < 1e-9
