"""Fully parametric multinomial logit fitted by Newton-Raphson.

The model has one intercept ("category effect") plus linear terms per
non-reference category.  The joint log-likelihood is globally concave,
so a full Newton step with step-halving converges fast and reliably;
the accepted log-likelihood sequence never decreases beyond the rounding
of its n-term total.  A step is judged by its gain summed per
observation, not by the difference of two such totals: near the optimum
the gain is far below their rounding, and comparing totals there halves
good steps away.

Used as the desk benchmark, as the source of starting values for the
semiparametric fitter, and inside the IIA specification tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, dataset_log_likelihood, nonreference_categories, softmax_probabilities
from .exceptions import (
    InsufficientDataError,
    NonIdentifiedError,
    NumericalFailureError,
    ShapeError,
)

# Accepted steps may lower the log-likelihood by at most this much
# (rounding slack of the per-observation gain; well inside the 1e-12
# monotonicity contract).
_LL_SLACK = 1e-13


@dataclass
class ParametricFitResult:
    """Converged coefficients and inference for the parametric MNL."""

    coefficients: np.ndarray      # (K-1, p') rows ordered by `categories`
    std_errors: np.ndarray        # same layout
    vcov: np.ndarray              # ((K-1)p', (K-1)p'), row-major over rows
    loglik: float
    loglik_trace: list
    iterations: int
    converged: bool
    reference: int
    categories: np.ndarray        # category index per coefficient row
    term_names: list
    includes_smooth: bool
    score_max: float = np.nan     # max-norm of the score at the estimate
    n_obs: int = 0

    def row_of(self, k: int) -> int:
        """Coefficient row index for category k."""
        idx = np.flatnonzero(self.categories == k)
        if idx.size == 0:
            raise ShapeError(f"category {k} has no coefficient row")
        return int(idx[0])


def design_matrix(data: Dataset, include_smooth: bool = True) -> np.ndarray:
    """Intercept column followed by x (and optionally t) columns."""
    cols = [np.ones((data.n, 1)), data.x]
    if include_smooth and data.q:
        cols.append(data.t)
    return np.hstack(cols)


def default_term_names(data: Dataset, include_smooth: bool = True) -> list:
    names = ["intercept"] + [f"x{j + 1}" for j in range(data.p)]
    if include_smooth:
        names += [f"t{d + 1}" for d in range(data.q)]
    return names


def _eta_from_theta(Z, theta, cats, K):
    eta = np.zeros((Z.shape[0], K))
    eta[:, cats - 1] = Z @ theta.T
    return eta


def _loglik_gain(P, delta, y):
    """sum_i [l_i(eta + delta) - l_i(eta)], with P the probabilities at eta.

    Per observation the gain is ``delta_{i,y_i} - log(1 + sum_j p_ij
    expm1(delta_ij))``, accurate however small delta is; the difference
    of two log-likelihood totals is rounding noise there.
    """
    picked = delta[np.arange(delta.shape[0]), y - 1]
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sum(picked - np.log1p(np.sum(P * np.expm1(delta), axis=1))))


def _score_and_information(Z, Y1h, Pn):
    """Joint score vector and observed information, category-major."""
    G = (Y1h - Pn).T @ Z                      # (K-1, p')
    Km1, pp = G.shape
    info = np.empty((Km1 * pp, Km1 * pp))
    for a in range(Km1):
        for b in range(a, Km1):
            w = Pn[:, a] * ((a == b) - Pn[:, b])
            block = Z.T @ (w[:, None] * Z)
            info[a * pp:(a + 1) * pp, b * pp:(b + 1) * pp] = block
            if b != a:
                info[b * pp:(b + 1) * pp, a * pp:(a + 1) * pp] = block.T
    return G.ravel(), info


def fit_parametric(data: Dataset, *, reference: int | None = None,
                   include_smooth: bool = True, tol: float = 1e-8,
                   max_iter: int = 100,
                   term_names: list | None = None) -> ParametricFitResult:
    """Maximum-likelihood fit of the parametric MNL.

    Newton-Raphson on the joint likelihood across all (K-1)(p+1)
    coefficients, with up to 30 step-halvings per iteration so the
    log-likelihood never decreases.  Convergence is declared when the
    max-norm of the joint score falls below ``tol``.

    Raises
    ------
    InsufficientDataError
        If some category never occurs, or n is too small for the
        coefficient count.
    NonIdentifiedError
        If the observed information is singular (collinear covariates,
        perfect separation).
    """
    K = data.n_categories
    reference = K if reference is None else reference
    cats = nonreference_categories(K, reference)

    counts = data.category_counts()
    missing = np.flatnonzero(counts == 0) + 1
    if missing.size:
        raise InsufficientDataError(
            f"category(ies) {missing.tolist()} never occur in y")

    Z = design_matrix(data, include_smooth)
    pp = Z.shape[1]
    if data.n <= (K - 1) * pp:
        raise InsufficientDataError(
            f"n={data.n} too small for {(K - 1) * pp} coefficients")
    if term_names is None:
        term_names = default_term_names(data, include_smooth)

    Y1h = (data.y[:, None] == cats[None, :]).astype(np.float64)
    theta = np.zeros((K - 1, pp))
    eta = _eta_from_theta(Z, theta, cats, K)
    ll = dataset_log_likelihood(data, eta)
    trace = [ll]

    converged = False
    score_max = np.inf
    info = None
    iterations = 0
    for iterations in range(1, max_iter + 1):
        P = softmax_probabilities(eta)
        g, info = _score_and_information(Z, Y1h, P[:, cats - 1])
        score_max = float(np.abs(g).max())
        if score_max < tol:
            converged = True
            iterations -= 1
            break
        try:
            direction = np.linalg.solve(info, g).reshape(K - 1, pp)
        except np.linalg.LinAlgError as err:
            raise NonIdentifiedError(
                f"singular information matrix at iteration {iterations}: {err}"
            ) from None

        step = 1.0
        for _ in range(31):
            delta = _eta_from_theta(Z, step * direction, cats, K)
            if _loglik_gain(P, delta, data.y) >= -_LL_SLACK:
                break
            step *= 0.5
        else:
            break  # no acceptable step; likelihood is flat to rounding
        theta = theta + step * direction
        eta = _eta_from_theta(Z, theta, cats, K)
        ll = dataset_log_likelihood(data, eta)
        trace.append(ll)

    if info is None:  # pragma: no cover - max_iter >= 1 always enters loop
        raise NumericalFailureError("no Newton iteration executed")

    try:
        vcov = np.linalg.inv(info)
        vcov = 0.5 * (vcov + vcov.T)
        se = standard_errors(vcov, (K - 1, pp))
    except np.linalg.LinAlgError:
        if converged:
            raise NonIdentifiedError("information matrix not invertible") from None
        vcov = np.full(((K - 1) * pp, (K - 1) * pp), np.nan)
        se = np.full((K - 1, pp), np.nan)

    return ParametricFitResult(
        coefficients=theta, std_errors=se, vcov=vcov, loglik=ll,
        loglik_trace=trace, iterations=iterations, converged=converged,
        reference=reference, categories=cats, term_names=list(term_names),
        includes_smooth=include_smooth, score_max=score_max, n_obs=data.n,
    )


def standard_errors(vcov: np.ndarray, layout: tuple) -> np.ndarray:
    """Square roots of the vcov diagonal, reshaped to the coefficient layout.

    Diagonal entries in (-1e-10, 0) are treated as rounding noise and
    clamped to zero; anything more negative raises.
    """
    diag = np.diagonal(np.asarray(vcov, dtype=np.float64)).copy()
    if np.any(diag < -1e-10):
        raise NumericalFailureError(
            f"vcov diagonal has negative entries (min {diag.min():.3e})")
    diag[diag < 0] = 0.0
    return np.sqrt(diag).reshape(layout)


def fitted_probabilities(result: ParametricFitResult, data: Dataset) -> np.ndarray:
    """(n, K) matrix of fitted category probabilities."""
    Z = design_matrix(data, result.includes_smooth)
    eta = _eta_from_theta(Z, result.coefficients, result.categories,
                          data.n_categories)
    return softmax_probabilities(eta)


def coefficient_log_likelihood(data: Dataset, coefficients: np.ndarray,
                               reference: int,
                               include_smooth: bool = True) -> float:
    """Joint log-likelihood of given coefficients on a dataset.

    Needed by the Small-Hsiao test, which evaluates one sample's
    likelihood at coefficients blended from another sample's fit.
    """
    K = data.n_categories
    cats = nonreference_categories(K, reference)
    Z = design_matrix(data, include_smooth)
    eta = _eta_from_theta(Z, np.asarray(coefficients, dtype=np.float64), cats, K)
    return dataset_log_likelihood(data, eta)
