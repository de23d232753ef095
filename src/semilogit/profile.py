"""Semiparametric MNL estimation by kernel-smoothed profile likelihood.

The predictor of category k is ``x' beta_k + m_k(t)`` with unknown smooth
``m_k``.  For fixed coefficients, the values of every m_k at the
observation points solve (K-1) n coupled kernel-weighted first-order
conditions, one local likelihood in one scalar per point and category:
the least favourable curve m(beta).  The profile log-likelihood is the
joint log-likelihood at (beta, m(beta)).

The fit is one profile-Newton loop (Severini & Wong 1992; Severini &
Staniswalis 1994).  Each iteration differentiates the local conditions
implicitly, giving J_s = dm_s/dbeta for every category at once; forms the
exact profile score S = sum_s E_s' (y_s - p_s) and the information
H = sum_i U_i' (diag p_i - p_i p_i') U_i, where row i of E_s (row s of
U_i) is d eta_is / d beta = x_i e_s + J_s(t_i); re-solves m at
beta + lam H^{-1} S from the current curve; and halves lam until the
profile log-likelihood does not fall.  S is the gradient of the recorded
trace, so an undamped step below tol is a stationary point of it.

The implicit-function equations: with category k's slot set to mu_i, the
other categories' probabilities are p_js = (1 - p_jk) pi_js, where
pi_js = e^{eta_js} / (1 + sum_{l != k} e^{eta_jl}) does not depend on i.
So, with M_k = W * P_k * (1 - P_k) and D_k its row sums,

  J_k = D_k^{-1} M_k [-x e_k + sum_{s != k} pi_s (x e_s + J_s)],

one blocked pass per category over the same kernel as the curve sweep.

Both solves are Gauss-Seidel passes over the categories.  With K >= 3
they are coupled and converge only linearly, so the stacked vector is
Anderson-mixed from its last few passes (Anderson 1965; Walker & Ni
2011).  With K = 2 there is one uncoupled curve: each curve pass is a
pointwise Newton step converging quadratically and runs plain, and one
Jacobian pass is exact.

Identifiability: the reference category's beta row and m row are
structurally zero and never stored.

The O(n^2) pass: a local Newton step of m_k(t_i) needs the kernel sums
sum_j w_ij p_jk and sum_j w_ij p_jk (1 - p_jk), where p_jk =
sigmoid(g_j + mu_i) for the fixed offsets g of :func:`_fixed_logit_parts`;
the Jacobian and the surface solve need the same sums.  The logistic
factors: with c_ij = e^{mu_i} e^{g_j}, 1 - p = 1 / (1 + c) and
p = c (1 - p), so a block of G rows costs n + G exponentials rather than
n G, and the curvature sum is a row-wise dot product of (w p) with
(1 - p).  When max|g| + max|mu| could overflow exp, the block falls back
to the sigmoid form.  The weights are the Gaussian kernel without its
normalising constant, which cancels in every ratio formed here, and all
temporaries are blocks of ``_BLOCK_DOUBLES`` doubles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    STEP_CAP,
    Dataset,
    dataset_log_likelihood,
    linear_predictors,
    nonreference_categories,
    sigmoid,
    softmax_probabilities,
)
from .exceptions import (
    ConfigError,
    NoLocalDataError,
    NonIdentifiedError,
    NumericalFailureError,
    ShapeError,
)
# kernel_weights is not called here, but perfbench's tracer wraps it as an
# attribute of this module (its kernels.kernel_weights.* metrics).
from .kernels import KernelConfig, kernel_weights  # noqa: F401
# The pointwise references are re-exported for the package namespace.
from .oracles import local_m_update, local_smoothed_score, m_gradient  # noqa: F401
from .parametric import fit_parametric

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
_BURNIN_SWEEPS = 200        # cap on passes per curve or Jacobian solve
# Residual differences kept by the Anderson-mixed curve and Jacobian
# solves.  _m_sweep + _m_gradients_all calls per fit at n=800
# (sine/linear DGP of perfbench's k3-curve): K=3 at kernel scale 0.5 on
# DGP seeds 1, 3, 5; K=3 at scale 0.2 and K=4 at scale 0.5 on seed 1:
#     plain passes   132+134 / 100+120 / 206+152   148+166   237+309
#     depth 1         88+92  /  74+84  / 100+108   106+114   135+189
#     depth 2         64+72  /  64+72  /  70+84     86+98    117+150
#     depth 3         60+66  /  62+64  /  70+76     80+90    120+135
#     depth 5         60+62  /  62+64  /  70+74     78+84    111+123
# Deeper histories stop paying after 3; K=2 fits (13 + 5) never mix.
_ANDERSON_DEPTH = 3
# Max-norm change of dm/dbeta at which the Jacobian solve stops.  J is of
# the order of x, so the score it feeds is exact to about 1e-10 per
# observation.
_JACOBIAN_TOL = 1e-10
_EXP_SAFE = 600.0           # e^g e^mu is finite while |g| + |mu| stays below


@dataclass
class SmoothState:
    """Current (beta, m) iterate; rows ordered by non-reference category."""

    beta: np.ndarray         # (K-1, p)
    m: np.ndarray            # (K-1, n), values at the observation points
    reference: int
    m_grad: np.ndarray | None = None   # (K-1, n, (K-1) p), dm_k/dbeta at t_i

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


def _m_gradients_all(data, state, row, wcache, rhs=None):
    """D_k^{-1} M_k rhs at every observation point, in one blocked pass.

    M_k = W * P * (1 - P) holds category k's local curvatures and D_k its
    row sums.  The default ``rhs = -x`` gives dm_k/dbeta_k with the other
    categories' curves held fixed, shape (n, p); the profile Jacobian
    passes the full right-hand side of the implicit-function equations.
    """
    logit = _Logistic(_fixed_logit_parts(data, state, row))
    mu = state.m[row]
    rhs1 = np.column_stack([-data.x if rhs is None else rhs, logit.ones])
    sums = np.empty((data.n, rhs1.shape[1]))
    for start, stop in wcache.blocks():
        WL, Q = logit.weighted(wcache.rows(start, stop), mu[start:stop])
        WL *= Q                      # = -W * l''
        sums[start:stop] = WL @ rhs1
    num, den = sums[:, :-1], sums[:, -1]
    if np.any(den == 0.0):
        raise NumericalFailureError("zero curvature sum in least-favourable gradient")
    return num / den[:, None]


def _joint_loglik(data, beta, m, reference):
    eta = linear_predictors(beta, m, data.x, reference)
    return dataset_log_likelihood(data, eta)


def _x_blocks(data, n_rows):
    """x e_s for every category row s, shape (K-1, n, (K-1) p)."""
    p = data.p
    X = np.zeros((n_rows, data.n, n_rows * p))
    for s in range(n_rows):
        X[s, :, s * p:(s + 1) * p] = data.x
    return X


def _profile_jacobian(data, state, wcache, J=None):
    """J_s = dm_s/dbeta at the observation points, (K-1, n, (K-1) p).

    Solves the implicit-function equations of the module docstring by
    Gauss-Seidel passes over the categories from the warm start ``J``
    (zeros when None), Anderson-mixed like the curve solve; with one
    category there is no coupling and the single pass is exact.  Returns
    ``(J, converged, last max change)``.
    """
    n_rows = state.m.shape[0]
    X = _x_blocks(data, n_rows)
    if data.p == 0:
        return X, True, 0.0
    if n_rows == 1:
        return _m_gradients_all(data, state, 0, wcache)[None], True, 0.0
    A = data.x @ state.beta.T + state.m.T
    shares = []        # per row k: (s, pi_s) for s != k
    for k in range(n_rows):
        # _fixed_logit_parts is x'beta_k - log(1 + sum_{l != k} e^{eta_l})
        log_rest = _fixed_logit_parts(data, state, k) - (A[:, k] - state.m[k])
        shares.append([(s, np.exp(A[:, s] + log_rest))
                       for s in range(n_rows) if s != k])

    def gs_pass(x):
        J = x.reshape(X.shape).copy()
        for k in range(n_rows):
            rhs = -X[k]
            for s, pi in shares[k]:
                rhs = rhs + pi[:, None] * (X[s] + J[s])
            J[k] = _m_gradients_all(data, state, k, wcache, rhs)
        return J.ravel()

    x0 = np.zeros(X.size) if J is None else J.ravel()
    J, done, change = _mixed_passes(gs_pass, x0, _JACOBIAN_TOL, _BURNIN_SWEEPS,
                                    mix=True)
    return J.reshape(X.shape), done, change


def _score_information(data, state, J):
    """Profile score S and information H, flattened in beta's layout.

    With E_s = x e_s + J_s = d eta_s / d beta, S = sum_s E_s' (y_s - p_s)
    is the gradient of the profile log-likelihood, and
    H = sum_i U_i' (diag p_i - p_i p_i') U_i, U_i stacking the rows i of
    the E_s, is its information.
    """
    cats = state.categories()
    n_rows, n, P = J.shape
    E = (J + _x_blocks(data, n_rows)).reshape(n_rows * n, P)
    eta = linear_predictors(state.beta, state.m, data.x, state.reference)
    prob = softmax_probabilities(eta)[:, cats - 1].T.reshape(-1, 1)
    resid = (data.y == cats[:, None]).reshape(-1, 1) - prob
    PE = prob * E
    V = PE.reshape(J.shape).sum(axis=0)
    return E.T @ resid[:, 0], PE.T @ E - V.T @ V


def _newton_step(score, info):
    """Newton direction H^{-1} S.  Components are clipped at 10 so a badly
    scaled early step cannot fling the iterate into saturation."""
    try:
        direction = np.linalg.solve(info, score)
    except np.linalg.LinAlgError:
        raise NonIdentifiedError(
            "singular profile information "
            f"(cond={np.linalg.cond(info):.3e})") from None
    return np.clip(direction, -10.0, 10.0)


def beta_update(data: Dataset, k: int, state: SmoothState,
                kernel: KernelConfig) -> np.ndarray:
    """Category k's coefficients after one undamped profile-Newton step.

    The step is the joint direction of :func:`fit_semiparametric`'s loop,
    taken from ``state`` (whose m should lie on the least favourable curve
    of its coefficients), without the loop's line search.
    """
    J, _, _ = _profile_jacobian(data, state, _WeightCache(kernel, data.t))
    step = _newton_step(*_score_information(data, state, J))
    row = state.row_of(k)
    return state.beta[row] + step.reshape(state.beta.shape)[row]


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


def _anderson_mix(xs, gs):
    """Anderson (type II) extrapolation from iterates x_i and images G(x_i).

    With residuals f_i = G(x_i) - x_i, the coefficients gamma minimise
    |f_last - dF gamma| over the residual differences dF, and the next
    iterate is G(x_last) - dG gamma (Walker & Ni 2011, with no damping).
    Returns None when the least-squares coefficients are not finite.
    """
    X, G = np.stack(xs), np.stack(gs)
    F = G - X
    dF, dG = np.diff(F, axis=0).T, np.diff(G, axis=0).T
    gamma = np.linalg.lstsq(dF, F[-1], rcond=None)[0]
    if not np.all(np.isfinite(gamma)):
        return None
    return G[-1] - dG @ gamma


def _mixed_passes(gs_pass, x, tol, max_passes, mix):
    """Iterate x <- G(x) = gs_pass(x) until max|G(x) - x| < tol.

    With ``mix`` each next iterate is Anderson-mixed from the last
    ``_ANDERSON_DEPTH + 1`` pairs (x, G(x)); the history is dropped when
    the residual max-norm grows or the mixing coefficients are not
    finite.  Returns ``(G(x) at the stop or the last iterate, converged,
    last max change)``.
    """
    xs, gs = [], []
    delta = np.inf
    for _ in range(max_passes):
        gx = gs_pass(x)
        prev_delta, delta = delta, float(np.abs(gx - x).max(initial=0.0))
        if delta < tol:
            return gx, True, delta
        if mix:
            if delta > prev_delta:
                xs, gs = [], []
            xs.append(x)
            gs.append(gx)
            del xs[:-_ANDERSON_DEPTH - 1], gs[:-_ANDERSON_DEPTH - 1]
            if len(xs) > 1:
                mixed = _anderson_mix(xs, gs)
                if mixed is None:
                    del xs[:-1], gs[:-1]
                else:
                    gx = mixed
        x = gx
    return x, False, delta


def _resolve_all_m(data, state, cats, wcache, tol, step_cap, max_sweeps=None):
    """Solve all m rows onto the least favourable curve of state.beta.

    The fixed-point map G is one Gauss-Seidel pass of local Newton steps
    over the categories, iterated by :func:`_mixed_passes`.  With two or
    more non-reference categories the curves are coupled and plain passes
    converge only linearly, so the passes are Anderson-mixed.  With one
    category the pass is already a pointwise Newton step on an uncoupled
    curve and converges quadratically, so it is iterated plainly.  The
    solve stops when max|G(x) - x| < tol and leaves G(x), the last plain
    pass, in ``state.m``.

    Returns ``(worst per-sweep fraction of cap-clipped local updates,
    converged, last max change)``; ``converged`` is False when
    ``max_sweeps`` (default ``_BURNIN_SWEEPS``) passes did not reach tol.
    """
    if max_sweeps is None:
        max_sweeps = _BURNIN_SWEEPS
    shape = state.m.shape
    worst_cap = 0.0

    def gs_pass(x):
        nonlocal worst_cap
        state.m = x.reshape(shape).copy()
        hits_total = 0
        for row, k in enumerate(cats):
            state.m[row], hits = _m_sweep(data, state, row, int(k), wcache,
                                          tol, 1, step_cap)
            hits_total += hits
        worst_cap = max(worst_cap, hits_total / state.m.size)
        return state.m.ravel().copy()

    m, done, delta = _mixed_passes(gs_pass, state.m.ravel().copy(), tol,
                                   max_sweeps, mix=len(cats) > 1)
    state.m = m.reshape(shape)
    return worst_cap, done, delta


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
                       step_cap: float = STEP_CAP,
                       start: SmoothState | None = None) -> SemiparametricFitResult:
    """Profile-Newton fit of the semiparametric MNL.

    Solves m onto the least favourable curve of the starting coefficients,
    then repeats one step: the joint Newton direction d = H^{-1} S on the
    exact profile score, m re-solved at beta + lam d from the current
    curve, lam halved until the profile log-likelihood falls by no more
    than 1e-9, and the step accepted.  ``converged`` means that an
    undamped step moved (beta, m) by less than ``tol`` in max-norm.
    ``loglik_trace`` records the profile log-likelihood after the first
    solve and after every step; it never decreases, and its gradient in
    beta is the score the loop drives to zero.  With ``max_iter=0`` the
    fit stops after the first solve, so ``loglik`` is the profile
    log-likelihood at the starting coefficients.  ``inner_tol`` is kept
    in ``options`` as the tolerance of :func:`predict_surface`'s local
    solves on this fit.

    ``beta_se`` comes from the full (K-1) p profile information H.  A fit
    in which some curve or Jacobian solve stopped at its pass cap carries
    a warning, since the trace entry or score it fed is then inexact.
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
    worst_cap_fraction = 0.0
    capped = []        # last max change of every solve stopped at its cap

    def resolve(st):
        nonlocal worst_cap_fraction
        cap, done, change = _resolve_all_m(data, st, cats, wcache,
                                           resolve_tol, step_cap)
        worst_cap_fraction = max(worst_cap_fraction, cap)
        if not done:
            capped.append(change)
        return _joint_loglik(data, st.beta, st.m, reference)

    def jacobian(J):
        J, done, change = _profile_jacobian(data, state, wcache, J)
        if not done:
            capped.append(change)
        return J

    # Solve the local problems at the starting coefficients first, so the
    # recorded trace is a profile-likelihood trace: every entry has m on
    # (or near) the least favourable curve of the current coefficients.
    # Without this, starting values with a linear t-part would force the
    # joint likelihood downhill before the profile iteration can begin.
    # The burn-in uses the same curve precision as later trace points;
    # a sloppier start would register the remaining polish as a dip.
    ll = resolve(state)
    trace = [ll]
    converged = False
    iterations = 0
    J = None
    for iterations in range(1, max_iter + 1):
        J = jacobian(J)
        step = _newton_step(*_score_information(data, state, J))
        step = step.reshape(state.beta.shape)
        beta_prev, m_prev = state.beta, state.m
        lam = 1.0
        for _ in range(61):
            state.beta = beta_prev + lam * step
            state.m = m_prev.copy()
            ll_new = resolve(state)
            if ll_new >= ll - 1e-9:
                break
            lam *= 0.5
        else:
            state.beta, state.m = beta_prev, m_prev
            warnings.append(
                f"trace guard exhausted halvings at iteration {iterations}")
            break
        delta = max(float(np.abs(state.beta - beta_prev).max(initial=0.0)),
                    float(np.abs(state.m - m_prev).max()))
        ll = ll_new
        trace.append(ll)
        if lam == 1.0 and delta < tol:
            converged = True
            break

    J = jacobian(J)
    _, info = _score_information(data, state, J)
    state.m_grad = J
    if not converged:
        warnings.append(f"no convergence after {iterations} iterations")
    if capped:
        warnings.append(
            f"least-favourable curve re-solve stopped at {_BURNIN_SWEEPS} "
            f"sweeps in {len(capped)} solve(s) (max change {max(capped):.1e})")
    if worst_cap_fraction > 0.10:
        warnings.append(
            "ill-conditioned local likelihoods: step cap hit at "
            f"{worst_cap_fraction:.1%} of points in some sweep")

    return SemiparametricFitResult(
        beta=state.beta.copy(), beta_se=_standard_errors(info, state.beta.shape),
        smooth=state, loglik=ll, loglik_trace=trace, converged=converged,
        iterations=iterations, kernel=kernel, reference=reference,
        categories=cats, warnings=warnings,
        options={"tol": tol, "max_iter": max_iter, "inner_tol": inner_tol,
                 "step_cap": step_cap},
    )


def _standard_errors(info, shape):
    """Profile-information SEs sqrt(diag(H^{-1})) in beta's layout; NaN
    when H is singular."""
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        return np.full(shape, np.nan)
    return np.sqrt(np.clip(np.diagonal(cov), 0.0, None)).reshape(shape)


def profile_scores(data: Dataset, state: SmoothState,
                   kernel: KernelConfig) -> np.ndarray:
    """Gradient of the profile log-likelihood in beta, (K-1, p).

    sum_s sum_i (y_is - p_is)(x_i e_s + dm_s/dbeta(t_i)), with the full
    dm/dbeta of every category; m should lie on the least favourable
    curve of ``state.beta``.
    """
    J, _, _ = _profile_jacobian(data, state, _WeightCache(kernel, data.t))
    score, _ = _score_information(data, state, J)
    return score.reshape(state.beta.shape)


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
