"""Semiparametric MNL estimation by kernel-smoothed profile likelihood.

The predictor of category k is ``x' beta_k + m_k(t)`` with unknown smooth
``m_k``.  For fixed coefficients, each ``m_k(t)`` solves a kernel-weighted
first-order condition (a local likelihood in one scalar); the coefficient
update is a Newton step on the profile score, which tracks the dependence
of the smooth part on the coefficients through the gradient of the least
favourable curve.  The fitter alternates:

  step 2   per category, one Newton step on beta using
           u_i = x_i + dm/dbeta(t_i),
           score  = sum_i l'_ik u_i,  curvature B = sum_i l''_ik u_i u_i'
  step 3   per category, one local Newton step of m at every observation
           point (all points from one frozen snapshot)

sweeping categories in index order with the freshest values (Gauss-Seidel
across categories).  The smooth values are solved to stationarity at the
starting coefficients before the first iteration, and the recorded trace
is the profile log-likelihood (the joint log-likelihood with m on the
least favourable curve of the current coefficients).  A step-halving
guard keeps that trace nondecreasing: when a proposed step would lower
it, the coefficient move is damped and m re-solved at the damped
coefficients.

Identifiability: the reference category's beta row and m row are
structurally zero and never stored.

The O(n^2) pass: a local Newton step of m_k(t_i) needs the kernel sums
sum_j w_ij p_jk and sum_j w_ij p_jk (1 - p_jk), where p_jk =
sigmoid(g_j + mu_i) for the fixed offsets g of :func:`_fixed_logit_parts`;
the least-favourable gradient and the surface solve need the same sums.
The logistic factors: with c_ij = e^{mu_i} e^{g_j}, 1 - p = 1 / (1 + c)
and p = c (1 - p), so a block of G rows costs n + G exponentials rather
than n G, and the curvature sum is a row-wise dot product of (w p) with
(1 - p).  When max|g| + max|mu| could overflow exp, the block falls back
to the sigmoid form.  The weights are the Gaussian kernel without its
normalising constant, which cancels in every ratio formed here, and all
temporaries are blocks of ``_BLOCK_DOUBLES`` doubles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    Dataset,
    dataset_log_likelihood,
    linear_predictors,
    nonreference_categories,
    sigmoid,
)
from .exceptions import (
    ConfigError,
    NoLocalDataError,
    NonIdentifiedError,
    NumericalFailureError,
    ShapeError,
)
from .kernels import KernelConfig, kernel_weights
from .parametric import fit_parametric

# Local Newton steps are clipped to this magnitude: one-sided local
# likelihoods (separation under tiny effective weight) otherwise diverge.
STEP_CAP = 5.0

# Doubles per temporary block of the O(n^2) passes (512 kB): a weight
# block and the two logistic buffers then stay in one core's L2 cache.
# perfbench medians of fit_s on k2-cached (n=5000) and k2-uncached
# (n=6100), two runs each, 2-vCPU Xeon with 2 MB L2 per core, one BLAS
# thread:
#        32 768   1.90-1.94 s   4.40-4.45 s
#        65 536   1.87-1.89 s   3.96-4.24 s
#       262 144   2.49-2.54 s   5.18-6.13 s
#     1 000 000   2.56-2.61 s   5.03-5.78 s
# The same order holds for surface points per second and for k3-curve
# and cli-pipeline; peak RSS grows with the block (296 -> 325 MB on
# k2-cached).
_BLOCK_DOUBLES = 65_536
# The full weight matrix is cached up to this n (288 MB at n=6000).  This
# is a memory budget, not a speed choice: caching always pays (on the
# same machine the uncached n=6100 fit takes 4.0-4.2 s, the cached
# n=5000 fit 1.9 s), and k2-cached peaks at 296 MB with its 200 MB matrix.
_CACHE_LIMIT = 6000
_BURNIN_SWEEPS = 200        # cap on initial least-favourable-curve solves
_EXP_SAFE = 600.0           # e^g e^mu is finite while |g| + |mu| stays below


@dataclass
class SmoothState:
    """Current (beta, m) iterate; rows ordered by non-reference category."""

    beta: np.ndarray         # (K-1, p)
    m: np.ndarray            # (K-1, n), values at the observation points
    reference: int
    m_grad: np.ndarray | None = None   # (K-1, n, p), dm/dbeta_k at t_i

    def __post_init__(self):
        self.beta = np.atleast_2d(np.asarray(self.beta, dtype=np.float64))
        self.m = np.atleast_2d(np.asarray(self.m, dtype=np.float64))
        if not (np.all(np.isfinite(self.beta)) and np.all(np.isfinite(self.m))):
            raise NumericalFailureError("state contains non-finite values")
        if self.beta.shape[0] != self.m.shape[0]:
            raise ShapeError("beta and m disagree on the number of categories")

    @property
    def n_categories(self) -> int:
        return self.beta.shape[0] + 1

    def categories(self) -> np.ndarray:
        return nonreference_categories(self.n_categories, self.reference)

    def row_of(self, k: int) -> int:
        cats = self.categories()
        idx = np.flatnonzero(cats == k)
        if idx.size == 0:
            raise ShapeError(f"category {k} is the reference or out of range")
        return int(idx[0])

    def copy(self) -> "SmoothState":
        return SmoothState(self.beta.copy(), self.m.copy(), self.reference)


@dataclass
class SemiparametricFitResult:
    beta: np.ndarray               # (K-1, p)
    beta_se: np.ndarray            # profile-information SEs, same layout
    smooth: SmoothState
    loglik: float                  # final profile log-likelihood
    loglik_trace: list             # profile log-likelihood per outer iteration
    converged: bool
    iterations: int
    kernel: KernelConfig
    reference: int
    categories: np.ndarray
    warnings: list = field(default_factory=list)
    options: dict = field(default_factory=dict)


def _block_rows(n: int) -> int:
    """Rows of an (., n) block that fit in ``_BLOCK_DOUBLES``."""
    return max(1, _BLOCK_DOUBLES // max(n, 1))


def _blocks(total: int, rows: int):
    """(start, stop) of consecutive row blocks covering ``range(total)``."""
    for start in range(0, total, rows):
        yield start, min(start + rows, total)


def _cross_weights(kernel: KernelConfig, Tq: np.ndarray, T: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Gaussian weights exp(-|z|^2 / 2), z = (tq - t) / h, shape (G, n).

    The kernel's normalising constant is left out: every ratio the fitter
    and the surface solve form is unchanged by it, and for tiny bandwidths
    or many smooth covariates it overflows.  Written block by block into
    ``out`` when given.
    """
    if out is None:
        out = np.empty((Tq.shape[0], T.shape[0]))
    for start, stop in _blocks(Tq.shape[0], _block_rows(T.shape[0])):
        block = out[start:stop]
        for d, h in enumerate(kernel.bandwidths):
            z = block if d == 0 else np.empty_like(block)
            np.subtract.outer(Tq[start:stop, d], T[:, d], out=z)
            z /= h
            z *= z
            if d:
                block += z
        block *= -0.5
        np.exp(block, out=block)
    return out


class _WeightCache:
    """Kernel weights between observation points, cached when affordable.

    Uncached rows are recomputed into one reused block, which the next
    ``rows`` call overwrites.
    """

    def __init__(self, kernel: KernelConfig, T: np.ndarray):
        self.kernel = kernel
        self.T = T
        n = T.shape[0]
        self.block_rows = _block_rows(n)
        if n <= _CACHE_LIMIT:
            self._full = _cross_weights(kernel, T, T)
        else:
            self._full = None
            self._block = np.empty((self.block_rows, n))

    def blocks(self):
        return _blocks(self.T.shape[0], self.block_rows)

    def rows(self, start, stop):
        if self._full is not None:
            return self._full[start:stop]
        return _cross_weights(self.kernel, self.T[start:stop], self.T,
                              out=self._block[:stop - start])


class _Logistic:
    """p_ij = sigmoid(g_j + mu_i) for blocks of rows i, with g fixed.

    e^g is formed once; each block then costs one exponential per row
    (see the module docstring), unless |g| + |mu| could overflow exp.
    Results live in two reused block buffers, overwritten by the next call.
    """

    def __init__(self, g: np.ndarray):
        self.g = g
        self.headroom = _EXP_SAFE - float(np.abs(g).max())
        self.eg = np.exp(g) if self.headroom > 0.0 else None
        self.ones = np.ones(g.shape[0])   # row sums as BLAS products
        self._buf = np.empty((2, 0, g.shape[0]))

    def weighted(self, W: np.ndarray, mu: np.ndarray) -> tuple:
        """(W * P, Q) with Q = 1 - P, for the rows mu of the block W."""
        if self._buf.shape[1] < mu.shape[0]:
            self._buf = np.empty((2, mu.shape[0], self.g.shape[0]))
        WP, Q = self._buf[0, :mu.shape[0]], self._buf[1, :mu.shape[0]]
        if self.eg is not None and float(np.abs(mu).max()) < self.headroom:
            np.multiply.outer(np.exp(mu), self.eg, out=WP)
            np.add(WP, 1.0, out=Q)
            np.reciprocal(Q, out=Q)
            WP *= Q
        else:
            WP[...] = sigmoid(self.g[None, :] + mu[:, None])
            np.subtract(1.0, WP, out=Q)
        WP *= W
        return WP, Q


def _row_dots(A, B):
    """sum_j A_ij B_ij per row, as stacked BLAS dot products."""
    return (A[:, None, :] @ B[:, :, None])[:, 0, 0]


def _local_steps(W, yk, logit, mu, where):
    """Raw local Newton steps -score/curvature of m for the rows of W."""
    WP, Q = logit.weighted(W, mu)
    score = W @ yk - WP @ logit.ones
    curv = -_row_dots(WP, Q)
    if np.any(curv >= 0.0):
        raise NumericalFailureError(f"nonnegative local curvature {where}")
    return -score / curv


def _row_for(state: SmoothState, k: int) -> int:
    return state.row_of(k)


def _fixed_logit_parts(data: Dataset, state: SmoothState, row: int) -> np.ndarray:
    """Per-observation g such that p_ik(mu) = sigmoid(g_i + mu).

    g collapses the categories other than k (including the reference's
    zero predictor) into one observation-level offset; the candidate
    value of m_k at the query point enters only through mu.
    """
    A = data.x @ state.beta.T + state.m.T          # (n, K-1), at obs points
    c = A[:, row] - state.m[row]                    # x' beta_k alone
    other = np.delete(A, row, axis=1)
    if other.shape[1]:
        M = np.maximum(other.max(axis=1), 0.0)
        S = np.exp(-M) + np.exp(other - M[:, None]).sum(axis=1)
    else:
        M = np.zeros(data.n)
        S = np.ones(data.n)
    return c - M - np.log(S)


def local_smoothed_score(data: Dataset, k: int, t, m_value: float,
                         state: SmoothState, kernel: KernelConfig) -> tuple:
    """Kernel-weighted first-order condition pieces at a query point.

    Returns ``(sum_i w_i l'_ik, sum_i w_i l''_ik)`` where the predictor of
    observation i carries the candidate ``m_value`` in its category-k slot
    and the state's values (at the observation points) everywhere else.
    """
    row = _row_for(state, k)
    w = kernel_weights(kernel, t, data.t)
    if w.sum() == 0.0:
        raise NoLocalDataError("all kernel weights vanished at the query point")
    g = _fixed_logit_parts(data, state, row)
    p = sigmoid(g + m_value)
    yk = (data.y == k).astype(np.float64)
    score = float(w @ (yk - p))
    curvature = float(-(w @ (p * (1.0 - p))))
    return score, curvature


def local_m_update(data: Dataset, k: int, t, m_value: float,
                   state: SmoothState, kernel: KernelConfig,
                   step_cap: float = STEP_CAP) -> float:
    """One Newton step of the local likelihood in m_k(t)."""
    score, curvature = local_smoothed_score(data, k, t, m_value, state, kernel)
    if curvature >= 0.0:
        raise NumericalFailureError(
            f"nonnegative local curvature {curvature} at query point")
    step = -score / curvature
    return m_value + float(np.clip(step, -step_cap, step_cap))


def m_gradient(data: Dataset, k: int, t, m_value: float,
               state: SmoothState, kernel: KernelConfig) -> np.ndarray:
    """Gradient of the least favourable curve at t with respect to beta_k.

    The curvature-weighted average ``-(sum w l'' x) / (sum w l'')``; each
    component lies in the convex hull of the negated covariate values.
    """
    row = _row_for(state, k)
    w = kernel_weights(kernel, t, data.t)
    g = _fixed_logit_parts(data, state, row)
    p = sigmoid(g + m_value)
    lpp = -(p * (1.0 - p))
    den = w @ lpp
    if den == 0.0:
        raise NumericalFailureError("zero curvature sum in least-favourable gradient")
    num = (w * lpp) @ data.x
    return -num / den


def _m_gradients_all(data, state, row, wcache):
    """dm_k/dbeta_k at every observation point, shape (n, p)."""
    logit = _Logistic(_fixed_logit_parts(data, state, row))
    mu = state.m[row]
    x1 = np.column_stack([data.x, logit.ones])
    sums = np.empty((data.n, data.p + 1))
    for start, stop in wcache.blocks():
        WL, Q = logit.weighted(wcache.rows(start, stop), mu[start:stop])
        WL *= Q                      # = -W * l''
        sums[start:stop] = WL @ x1
    num, den = sums[:, :-1], sums[:, -1]
    if np.any(den == 0.0):
        raise NumericalFailureError("zero curvature sum in least-favourable gradient")
    return -num / den[:, None]       # -(sum w l'' x)/(sum w l'')


def _joint_loglik(data, beta, m, reference):
    eta = linear_predictors(beta, m, data.x, reference)
    return dataset_log_likelihood(data, eta)


def _beta_direction(data, state, row, k, wcache) -> np.ndarray:
    """Raw Newton direction -B^{-1} s on the profile score of category k.

    ``s = sum_i l'_ik u_i`` and ``B = sum_i l''_ik u_i u_i'`` with
    ``u_i = x_i + dm/dbeta_k(t_i)``.  Components are clipped at 10 so a
    badly scaled early step cannot fling the iterate into saturation.
    """
    mgrad = _m_gradients_all(data, state, row, wcache)
    u = data.x + mgrad
    g = _fixed_logit_parts(data, state, row)
    p = sigmoid(g + state.m[row])
    yk = (data.y == k).astype(np.float64)
    lp = yk - p
    lpp = -(p * (1.0 - p))
    score = u.T @ lp
    B = (u * lpp[:, None]).T @ u
    try:
        direction = -np.linalg.solve(B, score)
    except np.linalg.LinAlgError:
        raise NonIdentifiedError(
            "singular profile curvature for category "
            f"{k} (cond={np.linalg.cond(B):.3e})") from None
    return np.clip(direction, -10.0, 10.0)


def _resolve_m_row(data, state, row, k, wcache, tol=1e-9, max_sweeps=60,
                   step_cap=STEP_CAP):
    """Iterate local Newton steps of m_k to (near) stationarity."""
    for _ in range(max_sweeps):
        mu, _ = _m_sweep(data, state, row, k, wcache, tol, 1, step_cap)
        delta = float(np.abs(mu - state.m[row]).max())
        state.m[row] = mu
        if delta < tol:
            break
    return state


def beta_update(data: Dataset, k: int, state: SmoothState,
                kernel: KernelConfig, max_halvings: int = 30,
                wcache: _WeightCache | None = None) -> np.ndarray:
    """One Newton step on the profile score for category k's coefficients.

    The step is halved while the profile log-likelihood of the trial
    coefficients decreases; since the smooth part re-adjusts to any
    coefficient move, each trial re-solves m_k on a scratch copy before
    comparing.  Checking the likelihood at frozen m instead would veto
    genuine profile-ascent steps.
    """
    row = _row_for(state, k)
    if wcache is None:
        wcache = _WeightCache(kernel, data.t)
    direction = _beta_direction(data, state, row, k, wcache)

    ll = _joint_loglik(data, state.beta, state.m, state.reference)
    step = 1.0
    for _ in range(max_halvings + 1):
        trial = state.copy()
        trial.beta[row] = state.beta[row] + step * direction
        _resolve_m_row(data, trial, row, k, wcache)
        if _joint_loglik(data, trial.beta, trial.m, state.reference) >= ll - 1e-12:
            return trial.beta[row]
        step *= 0.5
    return state.beta[row].copy()


def _m_sweep(data, state, row, k, wcache, inner_tol, inner_max_iter, step_cap):
    """Local Newton steps of m_k at all observation points (one snapshot).

    Returns the new m row and the number of cap-clipped updates.
    """
    logit = _Logistic(_fixed_logit_parts(data, state, row))
    yk = (data.y == k).astype(np.float64)
    mu = state.m[row].copy()
    cap_hits = 0
    for _ in range(inner_max_iter):
        delta = np.empty(data.n)
        for start, stop in wcache.blocks():
            delta[start:stop] = _local_steps(wcache.rows(start, stop), yk, logit,
                                             mu[start:stop], "during m sweep")
        clipped = np.clip(delta, -step_cap, step_cap)
        cap_hits += int(np.count_nonzero(np.abs(delta) > step_cap))
        mu = mu + clipped
        if np.abs(clipped).max() < inner_tol:
            break
    return mu, cap_hits


def _resolve_all_m(data, state, cats, wcache, tol, step_cap,
                   max_sweeps=_BURNIN_SWEEPS):
    """Gauss-Seidel sweeps of all m rows until the curve is stationary.

    Returns the worst per-sweep fraction of cap-clipped local updates.
    """
    n_updates = data.n * len(cats)
    worst_cap = 0.0
    for _ in range(max_sweeps):
        delta = 0.0
        hits_total = 0
        for row, k in enumerate(cats):
            mu, hits = _m_sweep(data, state, row, int(k), wcache, tol, 1,
                                step_cap)
            delta = max(delta, float(np.abs(mu - state.m[row]).max()))
            hits_total += hits
            state.m[row] = mu
        worst_cap = max(worst_cap, hits_total / n_updates)
        if delta < tol:
            break
    return worst_cap


def starting_state(data: Dataset, reference: int) -> SmoothState:
    """Step-1 starting values from a parametric MNL with linear t terms.

    beta starts at the x-block slopes; m starts at the intercept plus the
    fitted linear t-part, so it has the right vertical location and a
    rough slope.
    """
    par = fit_parametric(data, reference=reference, include_smooth=True)
    p = data.p
    beta0 = par.coefficients[:, 1:1 + p].copy()
    t_slopes = par.coefficients[:, 1 + p:]
    m0 = par.coefficients[:, [0]] + t_slopes @ data.t.T
    return SmoothState(beta0, m0, reference)


def fit_semiparametric(data: Dataset, kernel: KernelConfig, *,
                       reference: int | None = None, tol: float = 1e-6,
                       max_iter: int = 200, inner_tol: float = 1e-10,
                       inner_max_iter: int = 1, step_cap: float = STEP_CAP,
                       start: SmoothState | None = None) -> SemiparametricFitResult:
    """Profile-likelihood Newton-Raphson fit of the semiparametric MNL.

    Alternates coefficient updates and local smooth updates until the
    max-norm change of (beta, m) falls below ``tol``.  The recorded
    ``loglik_trace`` is the profile log-likelihood and never decreases:
    a guard damps the coefficient move (re-solving the smooth part at
    the damped coefficients) whenever it would.  ``inner_max_iter`` > 1
    lets each m sweep iterate its local solves to ``inner_tol`` instead
    of taking a single step.

    The smoothed-score equations and the measured profile likelihood
    disagree by a small finite-sample gap (kernel-weighted conditions
    versus a plain-sum likelihood); if the guard caps convergence at
    that gap, the result carries a warning quoting the residual.
    """
    K = data.n_categories
    reference = K if reference is None else reference
    if data.q == 0:
        raise ConfigError("semiparametric fit needs at least one smooth covariate")
    if kernel.q != data.q:
        raise ShapeError(f"kernel has {kernel.q} bandwidths, data has q={data.q}")
    cats = nonreference_categories(K, reference)

    state = starting_state(data, reference) if start is None else start.copy()
    wcache = _WeightCache(kernel, data.t)
    warnings: list = []
    resolve_tol = min(tol, 1e-9)

    # Solve the local problems at the starting coefficients first, so the
    # recorded trace is a profile-likelihood trace: every entry has m on
    # (or near) the least favourable curve of the current coefficients.
    # Without this, starting values with a linear t-part would force the
    # joint likelihood downhill before the profile iteration can begin.
    # The burn-in uses the same curve precision as later trace points;
    # a sloppier start would register the remaining polish as a dip.
    worst_cap_fraction = _resolve_all_m(data, state, cats, wcache,
                                        resolve_tol, step_cap)

    ll = _joint_loglik(data, state.beta, state.m, reference)
    trace = [ll]
    converged = False
    iterations = 0
    damped_streak = 0
    for iterations in range(1, max_iter + 1):
        beta_prev = state.beta.copy()
        m_prev = state.m.copy()

        for row, k in enumerate(cats):
            state.beta[row] = state.beta[row] + _beta_direction(
                data, state, row, int(k), wcache)
        beta_prop = state.beta.copy()

        sweep_delta = 0.0
        cap_hits = 0
        for row, k in enumerate(cats):
            mu, hits = _m_sweep(data, state, row, int(k), wcache,
                                inner_tol, inner_max_iter, step_cap)
            sweep_delta = max(sweep_delta, float(np.abs(mu - state.m[row]).max()))
            state.m[row] = mu
            cap_hits += hits
        worst_cap_fraction = max(worst_cap_fraction,
                                 cap_hits / (data.n * (K - 1)))

        # The trace records the profile log-likelihood: the joint
        # log-likelihood with m on the least favourable curve of the
        # current coefficients.  The raw joint value at a lagging m is
        # not comparable across iterations (relaxing m onto the curve
        # legitimately lowers it), so when the m sweep has not yet
        # landed, evaluate on a scratch re-solve.
        if sweep_delta < 1e-8:
            ll_new = _joint_loglik(data, state.beta, state.m, reference)
        else:
            scratch = state.copy()
            cap = _resolve_all_m(data, scratch, cats, wcache, resolve_tol,
                                 step_cap)
            worst_cap_fraction = max(worst_cap_fraction, cap)
            ll_new = _joint_loglik(data, scratch.beta, scratch.m, reference)

        # Step-halving guard: if the profile likelihood would fall,
        # halve the coefficient move and re-solve the smooth part at the
        # damped coefficients until the trace is nondecreasing again.
        # The smoothed-score fixed point does not maximise the measured
        # profile likelihood exactly (the local conditions are kernel
        # weighted, the likelihood is a plain sum), so near convergence
        # the guard may cap the residual of the smoothed-score equations
        # at the size of that finite-sample gap; the two targets differ
        # by a statistically negligible amount.
        lam = 1.0
        guard_failed = False
        if ll_new < ll - 1e-9:
            for _ in range(60):
                lam *= 0.5
                state.beta = beta_prev + lam * (beta_prop - beta_prev)
                state.m = m_prev.copy()
                cap = _resolve_all_m(data, state, cats, wcache, resolve_tol,
                                     step_cap)
                worst_cap_fraction = max(worst_cap_fraction, cap)
                ll_new = _joint_loglik(data, state.beta, state.m, reference)
                if ll_new >= ll - 1e-9:
                    break
            else:
                guard_failed = True
        if guard_failed:
            state.beta, state.m = beta_prev, m_prev
            warnings.append(
                f"trace guard exhausted halvings at iteration {iterations}")
            break

        delta = max(float(np.abs(state.beta - beta_prev).max(initial=0.0)),
                    float(np.abs(state.m - m_prev).max()))
        ll = ll_new
        trace.append(ll)
        if delta < tol:
            converged = True
            if lam < 1.0:
                raw = float(np.abs(beta_prop - beta_prev).max(initial=0.0))
                warnings.append(
                    "converged under an active trace guard: the smoothed-score "
                    f"equations are satisfied to about {raw:.1e} instead of {tol:g}")
            break
        if lam < 1.0:
            damped_streak += 1
            if damped_streak >= 5:
                warnings.append(
                    "stopping: the monotone-trace guard keeps damping the "
                    "smoothed-score Newton steps (residual gap "
                    f"~{np.abs(beta_prop - beta_prev).max(initial=0.0):.1e})")
                break
        else:
            damped_streak = 0

    if not converged:
        warnings.append(f"no convergence after {iterations} iterations")
    if worst_cap_fraction > 0.10:
        warnings.append(
            "ill-conditioned local likelihoods: step cap hit at "
            f"{worst_cap_fraction:.1%} of points in some sweep")

    beta_se, m_grad = _profile_standard_errors(data, state, wcache, cats)
    state.m_grad = m_grad
    return SemiparametricFitResult(
        beta=state.beta.copy(), beta_se=beta_se, smooth=state, loglik=ll,
        loglik_trace=trace, converged=converged, iterations=iterations,
        kernel=kernel, reference=reference, categories=cats,
        warnings=warnings,
        options={"tol": tol, "max_iter": max_iter, "inner_tol": inner_tol,
                 "inner_max_iter": inner_max_iter, "step_cap": step_cap},
    )


def _profile_standard_errors(data, state, wcache, cats):
    """Profile-information SEs: sqrt(diag((-B)^{-1})) per category block."""
    Km1 = len(cats)
    se = np.full((Km1, data.p), np.nan)
    m_grad = np.empty((Km1, data.n, data.p))
    for row, k in enumerate(cats):
        mgrad = _m_gradients_all(data, state, row, wcache)
        m_grad[row] = mgrad
        u = data.x + mgrad
        g = _fixed_logit_parts(data, state, row)
        p = sigmoid(g + state.m[row])
        lpp = -(p * (1.0 - p))
        B = (u * lpp[:, None]).T @ u
        if data.p == 0:
            continue
        try:
            cov = np.linalg.inv(-B)
            se[row] = np.sqrt(np.clip(np.diagonal(cov), 0.0, None))
        except np.linalg.LinAlgError:
            pass
    return se, m_grad


def profile_scores(data: Dataset, state: SmoothState,
                   kernel: KernelConfig) -> np.ndarray:
    """Profile score sum_i l'_ik (x_i + dm/dbeta_k(t_i)) per category, (K-1, p)."""
    wcache = _WeightCache(kernel, data.t)
    cats = state.categories()
    out = np.empty((len(cats), data.p))
    for row, k in enumerate(cats):
        mgrad = _m_gradients_all(data, state, row, wcache)
        u = data.x + mgrad
        g = _fixed_logit_parts(data, state, row)
        p = sigmoid(g + state.m[row])
        yk = (data.y == int(k)).astype(np.float64)
        out[row] = u.T @ (yk - p)
    return out


def _solve_m_at_points(data, state, kernel, Tq,
                       inner_tol=1e-10, max_steps=200, step_cap=STEP_CAP):
    """Solve the local first-order conditions at arbitrary points, (K-1, G).

    Each block of query points gets its kernel weights once, and every
    category's smooth is solved on them.
    """
    Tq = np.atleast_2d(np.asarray(Tq, dtype=np.float64))
    if Tq.shape[1] != data.q:
        raise ShapeError(f"query points must have dimension {data.q}")
    cats = state.categories()
    logits = [_Logistic(_fixed_logit_parts(data, state, row))
              for row in range(len(cats))]
    ys = [(data.y == k).astype(np.float64) for k in cats]
    mu = np.empty((len(cats), Tq.shape[0]))
    for start, stop in _blocks(Tq.shape[0], _block_rows(data.n)):
        W = _cross_weights(kernel, Tq[start:stop], data.t)
        if np.any(W.sum(axis=1) == 0.0):
            raise NoLocalDataError("all kernel weights vanished at a query point")
        # seed from the most-weighted (nearest) observation point
        nearest = np.argmax(W, axis=1)
        for row in range(len(cats)):
            mub = state.m[row][nearest]
            for _ in range(max_steps):
                delta = np.clip(_local_steps(W, ys[row], logits[row], mub,
                                             "at a query point"),
                                -step_cap, step_cap)
                mub = mub + delta
                if np.abs(delta).max() < inner_tol:
                    break
            mu[row, start:stop] = mub
    return mu


def predict_probabilities(fit: SemiparametricFitResult, data: Dataset,
                          x_new, t_new) -> np.ndarray:
    """Category probabilities at a new covariate point.

    Each m_k(t_new) is re-solved from the fitted state (coefficients
    fixed), seeded at the nearest observation point's value; the
    probabilities then follow from the softmax of the new predictors.
    """
    x_new = np.atleast_1d(np.asarray(x_new, dtype=np.float64))
    t_new = np.atleast_1d(np.asarray(t_new, dtype=np.float64))
    if x_new.shape != (data.p,) or t_new.shape != (data.q,):
        raise ShapeError(f"expected x of length {data.p} and t of length {data.q}")
    probs = predict_surface(fit, data, t_new[None, :], x_new)
    return probs[0]


def predict_surface(fit: SemiparametricFitResult, data: Dataset,
                    T_new, x_fixed) -> np.ndarray:
    """Probabilities over many smooth-covariate points at fixed x, (G, K)."""
    T_new = np.atleast_2d(np.asarray(T_new, dtype=np.float64))
    x_fixed = np.atleast_1d(np.asarray(x_fixed, dtype=np.float64))
    state = fit.smooth
    K = data.n_categories
    inner_tol = fit.options.get("inner_tol", 1e-10)
    eta = np.zeros((T_new.shape[0], K))
    m_new = _solve_m_at_points(data, state, fit.kernel, T_new, inner_tol=inner_tol)
    for row, k in enumerate(fit.categories):
        eta[:, int(k) - 1] = x_fixed @ fit.beta[row] + m_new[row]
    shifted = eta - eta.max(axis=1, keepdims=True)
    w = np.exp(shifted)
    return w / w.sum(axis=1, keepdims=True)
