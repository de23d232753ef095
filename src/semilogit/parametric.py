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
semiparametric fitter, and inside the IIA specification tests.  The
profile fit shares its Newton direction, halving search and covariance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (Dataset, _row_reduce, dataset_log_likelihood, linear_predictors,
                   nonreference_categories, softmax_probabilities)
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
    warnings: list = field(default_factory=list)

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


def _loglik_gain(P, delta, y):
    """sum_i [l_i(eta + delta) - l_i(eta)], with P the probabilities at eta.

    Per observation the gain is ``delta_{i,y_i} - log(1 + sum_j p_ij
    expm1(delta_ij))``, accurate however small delta is; the difference
    of two log-likelihood totals is rounding noise there.
    """
    picked = delta[np.arange(delta.shape[0]), y - 1]
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sum(picked - np.log1p(_row_reduce(np.add, P * np.expm1(delta)))))


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


def _newton_direction(score, info):
    """The Newton direction H^{-1} S; NonIdentifiedError when the
    information H is singular."""
    try:
        return np.linalg.solve(info, score)
    except np.linalg.LinAlgError:
        raise NonIdentifiedError(
            f"singular information matrix (cond={np.linalg.cond(info):.3e})") from None


def _halving_search(trial, slack, halvings):
    """Step-halving line search: ``trial(lam)`` returns ``(gain, value)``
    for the step lam times the direction, tried at lam = 1, 1/2, ...,
    2^-halvings.  Returns ``(lam, value)`` of the first trial whose gain is
    at least ``-slack``, or None when no trial is acceptable."""
    lam = 1.0
    for _ in range(halvings + 1):
        gain, value = trial(lam)
        if gain >= -slack:
            return lam, value
        lam *= 0.5
    return None


def _covariance(info):
    """H^{-1}, symmetrised; all NaN when the information H is singular or
    not finite (an overflowed H would give SEs of exactly 0)."""
    if not np.isfinite(info).all():
        return np.full(info.shape, np.nan)
    try:
        vcov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        return np.full(info.shape, np.nan)
    return 0.5 * (vcov + vcov.T)


def fit_parametric(data: Dataset, *, reference: int | None = None,
                   include_smooth: bool = True, tol: float = 1e-8,
                   max_iter: int = 100,
                   term_names: list | None = None) -> ParametricFitResult:
    """Maximum-likelihood fit of the parametric MNL.

    Newton-Raphson on the joint likelihood across all (K-1)(p+1)
    coefficients, with up to 30 step-halvings per iteration so the
    log-likelihood never decreases.  It converges when the max-norm of
    the joint score falls below ``tol``, else stops after ``max_iter``
    steps (zero returns theta = 0); ``score_max`` and the SEs are those
    at the returned coefficients.  When no halving makes a step
    acceptable, the fit ends with the warning "line search found no
    acceptable step at iteration N", N counted in ``iterations``.

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
    eta = linear_predictors(theta, 0.0, Z, reference)
    ll = dataset_log_likelihood(data, eta)
    trace = [ll]

    warnings: list = []
    iterations = 0
    # Each pass opens with the score and information at the current theta,
    # so the last one is taken at the returned coefficients.
    for _ in range(max_iter + 1):
        P = softmax_probabilities(eta)
        # an overflowed H gives no acceptable step and NaN SEs (_covariance)
        with np.errstate(over="ignore", invalid="ignore"):
            g, info = _score_and_information(Z, Y1h, P[:, cats - 1])
        score_max = float(np.abs(g).max())
        converged = score_max < tol
        if converged or iterations == max_iter:
            break
        iterations += 1
        direction = _newton_direction(g, info).reshape(K - 1, pp)

        def trial(lam):
            step = lam * direction
            delta = linear_predictors(step, 0.0, Z, reference)
            return _loglik_gain(P, delta, data.y), step

        found = _halving_search(trial, _LL_SLACK, 30)
        if found is None:
            warnings.append(
                f"line search found no acceptable step at iteration {iterations}")
            break
        theta = theta + found[1]
        eta = linear_predictors(theta, 0.0, Z, reference)
        ll = dataset_log_likelihood(data, eta)
        trace.append(ll)

    vcov = _covariance(info)
    if converged and np.isnan(vcov).all():
        raise NonIdentifiedError("information matrix not invertible")
    se = standard_errors(vcov, (K - 1, pp))

    return ParametricFitResult(
        coefficients=theta, std_errors=se, vcov=vcov, loglik=ll,
        loglik_trace=trace, iterations=iterations, converged=converged,
        reference=reference, categories=cats, term_names=list(term_names),
        includes_smooth=include_smooth, score_max=score_max, n_obs=data.n,
        warnings=warnings,
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
    return softmax_probabilities(
        linear_predictors(result.coefficients, 0.0, Z, result.reference))


def coefficient_log_likelihood(data: Dataset, coefficients: np.ndarray,
                               reference: int) -> float:
    """Joint log-likelihood of given coefficients on a dataset.

    Needed by the Small-Hsiao test, which evaluates one sample's
    likelihood at coefficients blended from another sample's fit.
    """
    eta = linear_predictors(coefficients, 0.0, design_matrix(data), reference)
    return dataset_log_likelihood(data, eta)
