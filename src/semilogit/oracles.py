"""Slow, simple reference solvers used to cross-check the Newton fitters.

These deliberately share no algorithmic machinery with the production
code: the likelihood is assembled with raw exponentials, coefficients are
found by derivative-free coordinate descent with golden-section line
searches, and local first-order conditions are solved by bisection.  If
the fast path and these agree, both are right for different reasons.

The pointwise references of the profile fitter live here too: the local
score, one local Newton step and the least-favourable gradient at a single
query point, each summed directly over the observations with the
normalised kernel weights and the full softmax, where the fitter runs
blocked passes over all observation points at once.  So do the scalar
log-likelihood of one observation and its analytic derivatives in one
predictor, which the tests check the vectorised core against.
"""

from __future__ import annotations

import numpy as np

from .core import (
    STEP_CAP,
    Dataset,
    _check_eta,
    linear_predictors,
    nonreference_categories,
    softmax_probabilities,
)
from .exceptions import (
    NoLocalDataError,
    NumericalFailureError,
    OracleFailureError,
    SeparationError,
    ShapeError,
)
from .kernels import KernelConfig, kernel_weight, kernel_weights

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
# Interval width at which the golden-section and bisection searches stop,
# and the cap on golden-section steps and on bracket expansions.
_SEARCH_TOL = 1e-12
_SEARCH_STEPS = 200
_BRACKET_STEP = 1.0           # first half-width of a coordinate bracket
_BISECTION_BRACKET = 50.0     # oracle_local_solve searches [-50, 50]
# oracle_mle stops when a sweep moves no coordinate by this much (and the
# objective has settled), after at most _MLE_SWEEPS sweeps.
_COORDINATE_TOL = 1e-7
_MLE_SWEEPS = 400
_FIRST_DIFFERENCE_STEP = 1e-6
_SECOND_DIFFERENCE_STEP = 1e-4


def log_likelihood_contribution(eta, y: int) -> float:
    """Log-likelihood of one observation: eta_y - log sum_j exp(eta_j)."""
    eta = _check_eta(eta)
    if eta.ndim != 1:
        raise ShapeError("expected a single predictor vector")
    if not 1 <= y <= eta.shape[0]:
        raise ShapeError(f"category {y} outside 1..{eta.shape[0]}")
    m = eta.max()
    return float(eta[y - 1] - m - np.log(np.exp(eta - m).sum()))


def score_and_curvature(eta, y: int, k: int) -> tuple:
    """First and second derivative of the log-likelihood in eta_k.

    Returns ``(I{y==k} - p_k, -p_k * (1 - p_k))`` with
    ``p_k = exp(eta_k) / sum_j exp(eta_j)``.  The curvature is strictly
    negative for finite predictors.
    """
    eta = _check_eta(eta)
    if eta.ndim != 1:
        raise ShapeError("expected a single predictor vector")
    K = eta.shape[0]
    if not 1 <= y <= K or not 1 <= k <= K:
        raise ShapeError(f"category index outside 1..{K}")
    p = softmax_probabilities(eta)[k - 1]
    return float((y == k) - p), float(-p * (1.0 - p))


def golden_section(f, a: float, b: float) -> float:
    """Minimum of a unimodal function on [a, b] by golden-section search."""
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_SEARCH_STEPS):
        if b - a < _SEARCH_TOL:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _bracket_minimum(f, x0: float) -> tuple:
    """Interval [a, b] containing the minimiser of a convex f."""
    a, m, b = x0 - _BRACKET_STEP, x0, x0 + _BRACKET_STEP
    fa, fm, fb = f(a), f(m), f(b)
    for _ in range(_SEARCH_STEPS):
        if fm <= fa and fm <= fb:
            return a, b
        if fa < fm:
            a, m, b = a - 2.0 * (m - a), a, m
            fa, fm, fb = f(a), fa, fm
        else:
            a, m, b = m, b, b + 2.0 * (b - m)
            fa, fm, fb = fm, fb, f(b)
    raise OracleFailureError("could not bracket the coordinate minimum")


def oracle_mle(data: Dataset, *, reference: int | None = None) -> np.ndarray:
    """Parametric-MNL maximum likelihood by derivative-free search.

    Cyclic coordinate descent on the negative log-likelihood, each
    coordinate minimised exactly (golden section on a convex slice).
    Intended for small instances (total free parameters <= 30); returns
    the (K-1, p') coefficient matrix of the intercept, x and linear t
    terms, in the same layout as the Newton fitter.

    The stopping tolerance sits above the ~1e-8 positional noise floor
    of derivative-free 1-D searches (objective changes near the minimum
    fall below machine epsilon), which still locates coefficients to a
    few 1e-8.
    """
    K = data.n_categories
    reference = K if reference is None else reference
    cats = nonreference_categories(K, reference)
    cols = [np.ones((data.n, 1)), data.x]
    if data.q:
        cols.append(data.t)
    Z = np.hstack(cols)
    pp = Z.shape[1]
    if (K - 1) * pp > 30:
        raise OracleFailureError("oracle_mle is for <= 30 free parameters")

    y_col = data.y - 1                       # 0-based category per row
    theta = np.zeros((K - 1, pp))
    eta = np.zeros((data.n, K))              # column cats-1 tracks Z @ theta

    def negll():
        denom = np.exp(eta).sum(axis=1)
        return -float(np.sum(eta[np.arange(data.n), y_col] - np.log(denom)))

    current = negll()
    for _ in range(_MLE_SWEEPS):
        max_move = 0.0
        for r in range(K - 1):
            col = cats[r] - 1
            hit = y_col == col
            for c in range(pp):
                z = Z[:, c]
                base = eta[:, col] - theta[r, c] * z
                rest = np.exp(np.delete(eta, col, axis=1)).sum(axis=1)
                const = float(np.sum(base[hit]))
                s_hit = float(np.sum(z[hit]))

                def f(v):
                    # far-out bracket probes may overflow to +inf; that is
                    # a legitimate "worse" value for the minimisation
                    with np.errstate(over="ignore"):
                        return -(const + v * s_hit
                                 - np.log(rest + np.exp(base + v * z)).sum())

                a, b = _bracket_minimum(f, theta[r, c])
                v = golden_section(f, a, b)
                max_move = max(max_move, abs(v - theta[r, c]))
                theta[r, c] = v
                eta[:, col] = base + v * z
        new = negll()
        if max_move < _COORDINATE_TOL and current - new < 1e-12:
            return theta
        current = new
    raise OracleFailureError(f"no convergence in {_MLE_SWEEPS} sweeps")


def oracle_local_solve(data: Dataset, k: int, t, state, kernel: KernelConfig) -> float:
    """Root of the local first-order condition in m_k(t), by bisection.

    The kernel-weighted score is strictly decreasing in the candidate
    value (every l'' is negative), so the root inside
    [-_BISECTION_BRACKET, _BISECTION_BRACKET] is unique when the score changes sign there; a one-sided score means
    the local likelihood has no interior maximum.
    """
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    w = np.array([kernel_weight(kernel, t, ti) for ti in data.t])
    cats = nonreference_categories(state.n_categories, state.reference)
    row = int(np.flatnonzero(cats == k)[0])
    # fixed parts: every other category's predictor at the observation points
    A = data.x @ state.beta.T + state.m.T
    rest = np.exp(np.delete(A, row, axis=1)).sum(axis=1) + 1.0  # + reference
    ck = data.x @ state.beta[row]
    hit = (data.y == k).astype(np.float64)

    def score(mu):
        e = np.exp(ck + mu)
        return float(w @ (hit - e / (e + rest)))

    lo, hi = -_BISECTION_BRACKET, _BISECTION_BRACKET
    s_lo, s_hi = score(lo), score(hi)
    if not (s_lo > 0.0 > s_hi):
        raise SeparationError(
            f"local score is one-sided on [{lo}, {hi}] "
            f"(score({lo})={s_lo:.3e}, score({hi})={s_hi:.3e})")
    while hi - lo > _SEARCH_TOL:
        mid = 0.5 * (lo + hi)
        if score(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _slot_probability(data: Dataset, k: int, m_value: float, state) -> np.ndarray:
    """p_ik at every observation with ``m_value`` in category k's m slot and
    the state's values (at the observation points) everywhere else."""
    m = state.m.copy()
    m[state.row_of(k)] = m_value
    eta = linear_predictors(state.beta, m, data.x, state.reference)
    return softmax_probabilities(eta)[:, k - 1]


def local_smoothed_score(data: Dataset, k: int, t, m_value: float,
                         state, kernel: KernelConfig) -> tuple:
    """Kernel-weighted first-order condition pieces at a query point.

    Returns ``(sum_i w_i l'_ik, sum_i w_i l''_ik)`` where the predictor of
    observation i carries the candidate ``m_value`` in its category-k slot
    and the state's values (at the observation points) everywhere else.
    """
    w = kernel_weights(kernel, t, data.t)
    if w.sum() == 0.0:
        raise NoLocalDataError("all kernel weights vanished at the query point")
    p = _slot_probability(data, k, m_value, state)
    yk = (data.y == k).astype(np.float64)
    score = float(w @ (yk - p))
    curvature = float(-(w @ (p * (1.0 - p))))
    return score, curvature


def local_m_update(data: Dataset, k: int, t, m_value: float,
                   state, kernel: KernelConfig) -> float:
    """One Newton step of the local likelihood in m_k(t), clipped at
    ``STEP_CAP``."""
    score, curvature = local_smoothed_score(data, k, t, m_value, state, kernel)
    if curvature >= 0.0:
        raise NumericalFailureError(
            f"nonnegative local curvature {curvature} at query point")
    step = -score / curvature
    return m_value + float(np.clip(step, -STEP_CAP, STEP_CAP))


def m_gradient(data: Dataset, k: int, t, m_value: float,
               state, kernel: KernelConfig) -> np.ndarray:
    """Gradient of the least favourable curve at t with respect to beta_k,
    the other categories' curves held fixed.

    The curvature-weighted average ``-(sum w l'' x) / (sum w l'')``; each
    component lies in the convex hull of the negated covariate values.
    """
    w = kernel_weights(kernel, t, data.t)
    p = _slot_probability(data, k, m_value, state)
    lpp = -(p * (1.0 - p))
    den = w @ lpp
    if den == 0.0:
        raise NumericalFailureError("zero curvature sum in least-favourable gradient")
    num = (w * lpp) @ data.x
    return -num / den


def central_difference(f, x: float) -> float:
    """Two-sided first difference quotient."""
    h = _FIRST_DIFFERENCE_STEP
    return (f(x + h) - f(x - h)) / (2.0 * h)


def second_difference(f, x: float) -> float:
    """Central second difference quotient."""
    h = _SECOND_DIFFERENCE_STEP
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
