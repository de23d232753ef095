"""Model core: softmax, log-likelihood, analytic derivatives."""

import numpy as np
import pytest

from semilogit import (
    Dataset,
    InvalidPredictorError,
    ShapeError,
    dataset_log_likelihood,
    log_likelihood_contribution,
    nonreference_categories,
    score_and_curvature,
    softmax_probabilities,
)
from semilogit.core import _row_reduce
from semilogit.oracles import central_difference, second_difference


def numpy_softmax(eta):
    """The softmax by numpy's own last-axis reductions."""
    w = np.exp(eta - eta.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


def near_limits(rng, n, K):
    """Rows of uniform(-12, 12) values, every third row near +-700."""
    a = rng.uniform(-12.0, 12.0, size=(n, K))
    shape = a[::3].shape
    a[::3] = rng.choice([-700.0, 700.0], size=shape) + rng.normal(size=shape)
    return a


class TestRowReduce:
    @pytest.mark.parametrize("K", range(2, 8))
    def test_bit_equal_to_numpy_below_eight_columns(self, K):
        rng = np.random.default_rng(K)
        a = near_limits(rng, 3001, K)
        for v in (a, np.exp(a - a.max(axis=1, keepdims=True)), np.expm1(a / 700.0)):
            assert np.array_equal(_row_reduce(np.maximum, v), v.max(axis=1))
            assert np.array_equal(_row_reduce(np.add, v), v.sum(axis=1))

    @pytest.mark.parametrize("K", range(2, 8))
    def test_softmax_and_log_likelihood_keep_numpy_bits(self, K):
        rng = np.random.default_rng(100 + K)
        eta = near_limits(rng, 600, K)
        assert np.array_equal(softmax_probabilities(eta), numpy_softmax(eta))
        y = rng.integers(1, K + 1, size=600)
        data = Dataset(y=y, x=np.zeros((600, 0)), t=np.zeros((600, 0)),
                       n_categories=K)
        w = np.exp(eta - eta.max(axis=1, keepdims=True))
        lse = eta.max(axis=1) + np.log(w.sum(axis=1))
        picked = eta[np.arange(600), y - 1]
        assert dataset_log_likelihood(data, eta) == float(np.sum(picked - lse))

    def test_vector_is_one_row(self):
        rng = np.random.default_rng(5)
        for K in range(2, 8):
            for eta in near_limits(rng, 30, K):
                p = softmax_probabilities(eta)
                assert p.shape == (K,)
                assert np.array_equal(p, numpy_softmax(eta))
                assert np.array_equal(p, softmax_probabilities(eta[None, :])[0])

    def test_shape_and_predictor_errors(self):
        for eta in ([0.5], np.zeros((3, 1)), np.zeros((2, 0))):
            with pytest.raises(ShapeError):
                softmax_probabilities(eta)
        bad = np.zeros((4, 3))
        for value in (np.nan, np.inf, -np.inf):
            bad[2, 1] = value
            with pytest.raises(InvalidPredictorError):
                softmax_probabilities(bad)
            with pytest.raises(InvalidPredictorError):
                softmax_probabilities(bad[2])


class TestSoftmax:
    def test_uniform_five(self):
        p = softmax_probabilities(np.zeros(5))
        np.testing.assert_allclose(p, 0.2, rtol=0, atol=1e-15)

    def test_binary_log_two(self):
        p = softmax_probabilities([np.log(2.0), 0.0])
        np.testing.assert_allclose(p, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_frozen_high_precision_values(self):
        # computed by 40-digit evaluation of exp/sum
        p = softmax_probabilities([1.5, -0.3, 0.0])
        expected = [0.72023846027564527114, 0.11905461673799148396,
                    0.1607069229863632449]
        np.testing.assert_allclose(p, expected, rtol=0, atol=1e-12)

    def test_normalization_and_range(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            K = int(rng.integers(2, 8))
            eta = rng.uniform(-12, 12, size=K)
            p = softmax_probabilities(eta)
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p > 0) and np.all(p < 1)

    def test_wide_spread_stays_normalized(self):
        # beyond ~36 nats of spread the small probability underflows the
        # resolution of 1.0, so only the closed interval is representable
        rng = np.random.default_rng(2)
        for _ in range(100):
            eta = rng.uniform(-300, 300, size=4)
            p = softmax_probabilities(eta)
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p >= 0) and np.all(p <= 1)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            eta = rng.uniform(-5, 5, size=4)
            c = rng.uniform(-50, 50)
            np.testing.assert_allclose(softmax_probabilities(eta + c),
                                       softmax_probabilities(eta), atol=1e-12)

    def test_extreme_predictors_no_overflow(self):
        p = softmax_probabilities([700.0, -700.0, 0.0])
        assert np.isfinite(p).all() and abs(p.sum() - 1.0) < 1e-12

    def test_matrix_input(self):
        eta = np.array([[0.0, 0.0], [np.log(3.0), 0.0]])
        p = softmax_probabilities(eta)
        np.testing.assert_allclose(p[0], [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(p[1], [0.75, 0.25], atol=1e-15)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidPredictorError):
            softmax_probabilities([np.nan, 0.0])
        with pytest.raises(InvalidPredictorError):
            softmax_probabilities([np.inf, 0.0])


class TestLogLikelihood:
    def test_uniform_case(self):
        for y in range(1, 6):
            assert abs(log_likelihood_contribution(np.zeros(5), y)
                       + np.log(5.0)) < 1e-15

    def test_binary_uniform(self):
        assert abs(log_likelihood_contribution([0.0, 0.0], 1)
                   + np.log(2.0)) < 1e-15

    def test_matches_softmax_log(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            eta = rng.uniform(-8, 8, size=5)
            ll = log_likelihood_contribution(eta, 2)
            assert abs(ll - np.log(softmax_probabilities(eta)[1])) < 1e-12

    def test_category_out_of_range(self):
        with pytest.raises(ShapeError):
            log_likelihood_contribution([0.0, 0.0], 3)


class TestScoreAndCurvature:
    def test_binary_half(self):
        lp, lpp = score_and_curvature([0.0, 0.0], 1, 1)
        assert lp == pytest.approx(0.5, abs=1e-15)
        assert lpp == pytest.approx(-0.25, abs=1e-15)

    def test_quarter_miss(self):
        lp, lpp = score_and_curvature(np.zeros(4), 1, 2)
        assert lp == pytest.approx(-0.25, abs=1e-15)
        assert lpp == pytest.approx(-0.1875, abs=1e-15)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            K = int(rng.integers(2, 6))
            eta = rng.uniform(-4, 4, size=K)
            y = int(rng.integers(1, K + 1))
            k = int(rng.integers(1, K + 1))

            def ll(v):
                e = eta.copy()
                e[k - 1] = v
                return log_likelihood_contribution(e, y)

            lp, lpp = score_and_curvature(eta, y, k)
            assert abs(lp - central_difference(ll, eta[k - 1], 1e-6)) < 1e-6
            assert abs(lpp - second_difference(ll, eta[k - 1], 1e-4)) < 1e-4

    def test_ranges(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            eta = rng.uniform(-10, 10, size=3)
            lp, lpp = score_and_curvature(eta, 1, 2)
            assert -1.0 < lp < 1.0
            assert -0.25 <= lpp < 0.0

    def test_scores_sum_to_zero_over_categories(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            K = int(rng.integers(2, 6))
            eta = rng.uniform(-6, 6, size=K)
            y = int(rng.integers(1, K + 1))
            total = sum(score_and_curvature(eta, y, k)[0] for k in range(1, K + 1))
            assert abs(total) < 1e-12


class TestDataset:
    def test_category_counts(self):
        d = Dataset(y=[1, 1, 2, 3, 3, 3], x=np.zeros((6, 0)),
                    t=np.zeros((6, 0)), n_categories=3)
        assert d.category_counts().tolist() == [2, 1, 3]

    def test_rejects_out_of_range_y(self):
        with pytest.raises(ShapeError):
            Dataset(y=[0, 1], x=np.zeros((2, 1)), t=np.zeros((2, 0)),
                    n_categories=2)

    def test_rejects_nonfinite_covariates(self):
        with pytest.raises(InvalidPredictorError):
            Dataset(y=[1, 2], x=np.array([[np.nan], [0.0]]),
                    t=np.zeros((2, 0)), n_categories=2)

    def test_subset_keeps_labels(self):
        d = Dataset(y=[1, 2, 1], x=np.zeros((3, 1)), t=np.zeros((3, 0)),
                    n_categories=2, labels=("a", "b"))
        sub = d.subset(np.array([True, False, True]))
        assert sub.n == 2 and sub.labels == ("a", "b")

    def test_nonreference_categories(self):
        assert nonreference_categories(5, 5).tolist() == [1, 2, 3, 4]
        assert nonreference_categories(4, 2).tolist() == [1, 3, 4]
        with pytest.raises(ShapeError):
            nonreference_categories(3, 4)
