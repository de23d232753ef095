"""Multinomial logit probability model: data, predictors, probabilities.

Categories are labelled ``1..K``.  One category (by default ``K``) is the
reference: its coefficient row and smooth function are structurally zero
and never stored, which enforces identifiability by construction.  All
probability computations subtract the row maximum before exponentiating,
so predictors up to |eta| ~ 700 are safe.

Every function here is pure; there is no shared mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidPredictorError, ShapeError

# Local Newton steps of a smooth value are clipped to this magnitude, in
# the fitter and in the pointwise reference update alike: one-sided local
# likelihoods (separation under tiny effective weight) otherwise diverge.
STEP_CAP = 5.0


@dataclass(frozen=True)
class Dataset:
    """Observations for a (semi)parametric MNL model.

    Parameters
    ----------
    y : ndarray of int, shape (n,)
        Response categories, values in ``1..n_categories``.
    x : ndarray, shape (n, p)
        Covariates entering the model parametrically.  ``p`` may be 0.
    t : ndarray, shape (n, q)
        Covariates entering through the smooth functions.  ``q`` may be 0.
    n_categories : int
        Number of response categories K (>= 2).
    labels : tuple of str, optional
        Original category labels, index ``k-1`` naming category ``k``.

    Validation happens once here, not in the hot paths.
    """

    y: np.ndarray
    x: np.ndarray
    t: np.ndarray
    n_categories: int
    labels: tuple = ()

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.int64)
        x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        t = np.atleast_2d(np.asarray(self.t, dtype=np.float64))
        if x.size == 0:
            x = x.reshape(len(y), 0)
        if t.size == 0:
            t = t.reshape(len(y), 0)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "t", t)
        K = self.n_categories
        if K < 2:
            raise ShapeError(f"need at least 2 categories, got {K}")
        if y.ndim != 1:
            raise ShapeError("y must be one-dimensional")
        n = y.shape[0]
        if x.shape[0] != n or t.shape[0] != n:
            raise ShapeError(
                f"row mismatch: y has {n}, x has {x.shape[0]}, t has {t.shape[0]}"
            )
        if n == 0:
            raise ShapeError("dataset has no rows")
        if y.min() < 1 or y.max() > K:
            raise ShapeError(f"y values must lie in 1..{K}")
        if not np.all(np.isfinite(x)):
            raise InvalidPredictorError("x contains non-finite values")
        if not np.all(np.isfinite(t)):
            raise InvalidPredictorError("t contains non-finite values")
        if self.labels and len(self.labels) != K:
            raise ShapeError("labels must have one entry per category")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def q(self) -> int:
        return self.t.shape[1]

    def category_counts(self) -> np.ndarray:
        """Count of each category 1..K, as an array of length K."""
        return np.bincount(self.y, minlength=self.n_categories + 1)[1:]

    def subset(self, mask) -> "Dataset":
        """Row subset; category labelling and K are preserved."""
        mask = np.asarray(mask)
        return Dataset(self.y[mask], self.x[mask], self.t[mask],
                       self.n_categories, self.labels)

    def label_of(self, k: int) -> str:
        return self.labels[k - 1] if self.labels else str(k)


def nonreference_categories(n_categories: int, reference: int) -> np.ndarray:
    """Categories 1..K except the reference, ascending.

    This fixes the row order of every coefficient matrix in the package:
    row ``r`` belongs to ``nonreference_categories(K, ref)[r]``.
    """
    if not 1 <= reference <= n_categories:
        raise ShapeError(f"reference {reference} outside 1..{n_categories}")
    cats = np.arange(1, n_categories + 1)
    return cats[cats != reference]


def _check_eta(eta) -> np.ndarray:
    eta = np.asarray(eta, dtype=np.float64)
    if not np.all(np.isfinite(eta)):
        raise InvalidPredictorError("linear predictor contains non-finite values")
    return eta


def _row_reduce(op, a) -> np.ndarray:
    """``op.reduce(a, axis=1)`` of an (n, K) array in K - 1 steps over n;
    numpy reduces row by row, 8-25x slower at K = 4.  Sums add the columns
    in order, numpy's own order below 8 columns, so they are bit-identical
    there; at K >= 8 numpy sums pairwise and the last bit may differ."""
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        op(out, a[:, j], out=out)
    return out


def softmax_probabilities(eta) -> np.ndarray:
    """Category probabilities exp(eta_k) / sum_j exp(eta_j).

    Works on an (n, K) matrix (softmax along the last axis) or on a single
    predictor vector of length K, taken as one row of :func:`_row_reduce`.
    Entries are strictly inside (0, 1); each row sums to 1 up to rounding.
    """
    eta = _check_eta(eta)
    if eta.shape[-1] < 2:
        raise ShapeError("predictor needs at least 2 categories")
    rows = eta.reshape(-1, eta.shape[-1])
    w = np.exp(rows - _row_reduce(np.maximum, rows)[:, None])
    return (w / _row_reduce(np.add, w)[:, None]).reshape(eta.shape)


def linear_predictors(beta, m, x, reference: int) -> np.ndarray:
    """Assemble the (n, K) predictor matrix from state.

    ``beta`` is (K-1, p) and ``m`` is (K-1, n), both ordered by
    :func:`nonreference_categories`; the reference column is zero.
    """
    beta = np.asarray(beta, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    n = x.shape[0]
    K = beta.shape[0] + 1
    eta = np.zeros((n, K))
    cats = nonreference_categories(K, reference)
    eta[:, cats - 1] = x @ beta.T + m.T
    return eta


def dataset_log_likelihood(data: Dataset, eta: np.ndarray) -> float:
    """Joint log-likelihood sum_i [eta_{y_i,i} - log sum_j exp(eta_{j,i})]."""
    m = _row_reduce(np.maximum, eta)
    lse = m + np.log(_row_reduce(np.add, np.exp(eta - m[:, None])))
    picked = eta[np.arange(data.n), data.y - 1]
    return float(np.sum(picked - lse))


def sigmoid(z):
    """Numerically stable logistic function, elementwise.

    exp overflow at very negative z saturates to +inf and the quotient
    to exactly 0.0, which is the correct limit, so a single vector pass
    suffices.
    """
    z = np.asarray(z, dtype=np.float64)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))
