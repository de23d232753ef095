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
profile score S = sum_s E_s' (y_s - p_s) and the information
H = sum_i U_i' (diag p_i - p_i p_i') U_i, where row i of E_s (row s of
U_i) is d eta_is / d beta = x_i e_s + J_s(t_i); re-solves m at
beta + lam d, d = H^{-1} S, starting from the first-order prediction
m + lam J d; and halves lam until the profile log-likelihood does not
fall.  The start and the solve are the predictor and the corrector of a
continuation step along the curve (Allgower & Georg 1990).  With an
exact J, S is the gradient of the recorded trace.  Inside the loop J is
solved only to a forcing tolerance tied to how far the state last moved,
an inexact Newton method (Dembo, Eisenstat & Steihaug 1982).  When an
undamped step meets tol, J is solved to ``_JACOBIAN_TOL`` at the new
state, and the fit converges only if the Newton step of that exact score
is below tol as well, so the returned state is a stationary point of the
trace to within tol.  That J also gives the standard errors.

The implicit-function equations: with category k's slot set to mu_i, the
other categories' probabilities are p_js = (1 - p_jk) pi_js, where
pi_js = e^{eta_js} / (1 + sum_{l != k} e^{eta_jl}) does not depend on i.
So, with M_k = W * P_k * (1 - P_k) and D_k its row sums,

  J_k = D_k^{-1} M_k [-x e_k + sum_{s != k} pi_s (x e_s + J_s)],

one blocked pass per category over the same kernel as the curve sweep.
Both solves loop over one such pass, :func:`_category_pass`: it forms
rhs_k from the running J and takes one product of every block with
[1 | rhs_k], whose first column is the local information.  Given
category k's response indicator it also sums the local scores, so the
pass is a curve sweep too and returns its Newton step.  The running J
is the previous iteration's (zeros for the first solve), so a curve
solve hands the Jacobian solve the pass of its closing sweep.  That pass
is made at the closing sweep's input m, which lies within the curve
tolerance of the solved m.

Both solves are Gauss-Seidel passes over the categories.  With K >= 3
they are coupled and converge only linearly, so the stacked vector is
Anderson-mixed from its last few passes (Anderson 1965; Walker & Ni
2011), and the Jacobian solve continues from the closing sweep's J.
With K = 2 there is one uncoupled curve: each curve pass is a pointwise
Newton step converging quadratically and runs plain, and one Jacobian
pass is exact, so the closing sweep's J is the fit's and a K = 2 fit
makes no separate Jacobian pass.

Identifiability: the reference category's beta row and m row are
structurally zero and never stored.

The O(n^2) pass: a local Newton step of m_k(t_i) needs the kernel sums
sum_j w_ij p_ij and sum_j w_ij p_ij (1 - p_ij), where p_ij =
sigmoid(g_j + mu_i) for the fixed offsets g of :func:`_fixed_logit_parts`;
the Jacobian and the surface solve need the same sums.  The logistic
factors: with c_ij = e^{mu_i} e^{g_j}, 1 - p = 1 / (1 + c) and
p = c (1 - p), so a block costs only its rows' and columns' exponentials.
When max|g| + max|mu| could overflow exp, it falls back to the sigmoid
form.  The weights are the Gaussian kernel without its normalising
constant, which cancels in every ratio formed here.

Between observation points the kernel is symmetric, w_ij = w_ji, so the
pass is triangular: row block I = [s, e) holds only W[I, s:], and each
weight is computed (or cached) once, apart from the diagonal blocks.
The block is read twice, and the per-point sums are accumulated over all
blocks before any step is taken.  Direction 1 covers rows I against
columns s: with c = e^{mu_I} e^{g_j}, summing along rows.  Direction 2
covers rows e: against columns I.  It uses the same block with
c' = e^{g_I} e^{mu_j} and sums down its columns, so no transpose is
formed.  Blocks hold at most ``_BLOCK_DOUBLES`` doubles, and so do the
temporaries.  Query points against observation points are not symmetric:
the surface solve runs plain row blocks through the same logistic.  Its
g is fixed, so each point's solve is scalar Newton, converging
quadratically, and it stops on a proven bound on the remaining error
rather than on a pass whose step is already negligible.

Every pass uses every core the process may run on.  The blocks are cut
into ``_CHUNKS`` contiguous runs of about equal weight count, and the
calling thread and a module-level pool of one thread per further core
take the chunks in turn (numpy drops the GIL in its ufuncs, einsum and
``np.dot``).  Each chunk adds into its own partial sums, and the
partials are added up in chunk order.  The cut depends only on n and
``_BLOCK_DOUBLES``, so the sums do not depend on the number of cores or
on how the threads are scheduled; on one core, or for a triangle of one
block, the same chunks run in the calling thread.  The cache fill and
the query-point blocks of the surface solve stand alone per block and
run on the same threads.  There is no option: every core is used.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import (
    STEP_CAP,
    Dataset,
    _row_reduce,
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
from .parametric import fit_parametric

# Doubles per temporary block of the O(n^2) passes (512 kB), and chunks of
# blocks per pass.  A weight block and the two logistic buffers stay in
# one core's L2 cache; smaller blocks make more numpy calls, and each
# call makes a thread wait for the interpreter lock once more.  perfbench
# medians of fit_s in s (two runs each) and peak RSS in MB on k2-cached
# (n=5000) and k2-uncached (n=6100), triangular blocks on two threads,
# 2-vCPU Xeon with 2 MB L2 per core, one BLAS thread:
#       block   chunks 2 / 4 / 8:  k2-cached        k2-uncached      RSS
#      32 768                      1.85 1.84 1.68   3.19 3.11 3.13   202, 106
#      65 536                      1.54 1.52 1.41   2.47 2.40 2.22   205, 108-109
#     131 072                      1.52 1.42 1.37   2.20 2.35 2.18   209-210, 112-113
#     262 144                      1.82 1.57 1.59   2.48 2.57 2.46   219-221, 120-122
# 131 072 is as fast as 65 536 but costs 4 MB more peak RSS.  More chunks
# than threads let a thread that finishes early take over more of the
# pass.
_BLOCK_DOUBLES = 65_536
_CHUNKS = 8
# The packed weight triangle is cached up to this n (about 144 MB at
# n=6000).  This is a memory budget, not a speed choice: caching always
# pays.  The threshold stays in n rather than bytes so that perfbench's
# k2-uncached (n=6100) keeps measuring the uncached pass and its small
# footprint.
_CACHE_LIMIT = 6000
# Cap on passes per curve or Jacobian solve and on steps per query point.
_BURNIN_SWEEPS = 200
# Residual differences kept by the Anderson-mixed curve and Jacobian
# solves.  _category_pass calls per fit at n=800, sweeps + Jacobian-only
# passes, with the trial solves started at the first-order prediction and
# the Jacobian solves stopped at their forcing tolerance: K=3 at kernel
# scale 0.5 on DGP seeds 1, 3, 5 and at scale 0.2 on seed 1 (sine/linear
# DGP of perfbench's k3-curve); K=4 at scale 0.5 (sine_dgp(4, 800, 1) of
# tests/conftest.py); 4 iterations each:
#     plain passes    66+24  /  62+22  /  64+26     88+28    126+60
#     depth 1         48+20  /  46+20  /  44+20     64+22     78+36
#     depth 2         42+20  /  40+20  /  40+20     54+20     75+39
#     depth 3         40+20  /  40+20  /  40+20     52+20     75+36
#     depth 5         40+20  /  40+20  /  40+20     50+20     69+36
# Deeper histories pay little after 2; K=2 fits (9 + 0 on seed 1) never
# mix.
_ANDERSON_DEPTH = 3
# Max-norm change of dm/dbeta at which the Jacobian solve stops.  J is of
# the order of x, so the score it feeds is exact to about 1e-10 per
# observation.
_JACOBIAN_TOL = 1e-10
# Forcing term of the Jacobian solves inside the fit's loop: each stops at
# max(_JACOBIAN_TOL, _JACOBIAN_FORCING * delta), delta the max-norm move of
# the state since J was last solved (Dembo, Eisenstat & Steihaug 1982;
# Eisenstat & Walker 1996).  Sweeps + Jacobian-only passes (iterations)
# per fit at n=800, kernel scale 0.5: sine_dgp(3, ., 1 / 3 / 5) and
# sine_dgp(4, ., 1) of tests/conftest.py and ROADMAP.md's q2_draw(5, ., 1)
# (K=5, two smooth covariates) at tol 1e-6, then sine_dgp(3, ., 1) and
# q2_draw(4, ., 1) at tol 1e-9:
#   0     40+38(4)  40+42(4)  40+42(4)  75+81(4)  200+192(6)  42+40(5)  144+138(8)
#   1e-3  40+24(4)  40+24(4)  40+26(4)  75+45(4)  200+96(6)   42+26(5)  144+75(8)
#   1e-2  40+20(4)  40+20(4)  40+20(4)  75+36(4)  200+68(6)   44+22(6)  144+60(8)
#   1e-1  40+18(4)  40+16(4)  40+18(4)  75+33(4)  200+56(6)   44+20(6)  147+45(9)
#   1     40+16(4)  40+16(4)  40+16(4)  75+30(4)  200+52(6)   46+16(7)  153+48(11)
# 0 solves every J to _JACOBIAN_TOL.  Past 1e-2 the few calls saved cost
# outer iterations at tight tol.
_JACOBIAN_FORCING = 1e-2
# Max-norm change of m at which a curve solve stops, unless the fit's tol
# is tighter.  It holds for every trace point, the burn-in's included: a
# sloppier start would register the remaining polish as a dip.
_CURVE_TOL = 1e-9
# Bound on |m - root| below which a query-point solve stops; the bound is
# taken from the last Newton step (see _solve_m_at_points).
_POINT_TOL = 1e-10
_EXP_SAFE = 600.0           # e^g e^mu is finite while |g| + |mu| stays below


@dataclass
class SmoothState:
    """Current (beta, m) iterate; rows ordered by non-reference category."""

    beta: np.ndarray         # (K-1, p)
    m: np.ndarray            # (K-1, n), values at the observation points
    reference: int

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


_buffers = threading.local()  # per-thread scratch blocks; see _scratch
# The helper threads, made on first use.  A forked child has none of its
# parent's threads, so the fork hook forgets the pool.  The hook is the
# dict's own method: a module function would keep every re-imported copy
# of this module alive.
_pool: dict = {}
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.clear)


def _worker_count() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:    # not every platform has affinity masks
        return os.cpu_count() or 1


def _helpers():
    """(executor, threads): the pool of one thread per core beyond the
    caller's; (None, 0) on one core."""
    if "helpers" not in _pool:
        count = _worker_count() - 1
        # a racing caller's spare executor is dropped before it starts a thread
        _pool.setdefault("helpers", (ThreadPoolExecutor(count, "semilogit")
                                     if count else None, count))
    return _pool["helpers"]


def _for_each(fn, items):
    """Call ``fn(item)`` for every item, on every core.

    The calling thread and the pool's threads take the items in order,
    one at a time, until none is left; with one item or one core the
    caller runs them all.  Callers write their results into slots of
    their own.  After an exception no further item is taken, and the one
    raised is that of the first failing item in order: every item before
    it was taken earlier and has finished.
    """
    items = list(items)
    pool, threads = _helpers() if len(items) > 1 else (None, 0)
    if not threads:
        for item in items:
            fn(item)
        return
    errors = {}
    order, lock = iter(range(len(items))), threading.Lock()

    def take():
        with lock:
            return next(order, None)

    def stop():
        with lock:
            for _ in order:
                pass

    def drain():
        while (i := take()) is not None:
            try:
                fn(items[i])
            except Exception as err:
                errors[i] = err
                stop()

    started = [pool.submit(drain) for _ in range(threads)]
    try:
        drain()
    finally:
        stop()                    # an interrupted caller stops the helpers too
        for future in started:
            if not future.cancel():   # one that never started is not waited for
                future.result()
    if errors:
        raise errors[min(errors)]


def _scratch(name: str, shape, count: int = 1) -> list:
    """``count`` arrays of ``shape`` in this thread's reused buffer
    ``name``, overwritten by the next call.  Each thread allocates its
    buffer once, with room for the largest block, and grows it only for a
    larger one."""
    size = math.prod(shape)
    buf = getattr(_buffers, name, None)
    if buf is None or buf.size < count * size:
        buf = np.empty(count * max(size, _BLOCK_DOUBLES))
        setattr(_buffers, name, buf)
    return [buf[i * size:(i + 1) * size].reshape(shape) for i in range(count)]


def _balanced_cuts(sizes, count: int) -> list:
    """(a, b) index ranges cutting ``sizes`` into at most ``count``
    contiguous runs of about equal sum."""
    ends = np.cumsum(sizes)
    targets = ends[-1] * np.arange(1, count) / count
    cuts = np.unique(np.searchsorted(ends, targets, side="right"))
    bounds = [0] + [int(c) for c in cuts if 0 < c < len(sizes)] + [len(sizes)]
    return list(zip(bounds[:-1], bounds[1:]))


def _block_rows(n: int) -> int:
    """Rows of an (., n) block that fit in ``_BLOCK_DOUBLES``."""
    return max(1, _BLOCK_DOUBLES // max(n, 1))


def _blocks(total: int, rows: int):
    """(start, stop) of consecutive row blocks covering ``range(total)``."""
    for start in range(0, total, rows):
        yield start, min(start + rows, total)


def _triangle_blocks(n: int):
    """(start, stop) of row blocks I whose upper part W[I, start:] fits in
    ``_BLOCK_DOUBLES``; the blocks grow as the rows shorten."""
    start = 0
    while start < n:
        stop = min(n, start + _block_rows(n - start))
        yield start, stop
        start = stop


def _cross_weights(kernel: KernelConfig, Tq: np.ndarray, T: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """Gaussian weights exp(-|z|^2 / 2), z = (tq - t) / h, shape (G, n).

    The kernel's normalising constant is left out: every ratio the fitter
    and the surface solve form is unchanged by it, and for tiny bandwidths
    or many smooth covariates it overflows.  The coordinates are scaled
    once by 1 / (h sqrt 2), so each pair costs a difference, a square and
    an exponential.  Written into ``out``, which callers size to one
    block of at most ``_BLOCK_DOUBLES`` weights.
    """
    scale = 1.0 / (np.sqrt(2.0) * kernel.bandwidths)
    Aq, A = Tq * scale, T * scale
    for d in range(A.shape[1]):
        z = out if d == 0 else _scratch("distance", out.shape)[0]
        np.subtract.outer(Aq[:, d], A[:, d], out=z)
        z *= z
        if d:
            out += z
    np.negative(out, out=out)
    np.exp(out, out=out)
    return out


class _WeightCache:
    """Kernel weights between observation points, packed by symmetry.

    Row block I = [start, stop) of :func:`_triangle_blocks` keeps only
    W[I, start:], its diagonal block and everything right of it: about
    n^2 / 2 doubles in all.  ``chunks`` cuts ``layout`` into the
    contiguous runs of blocks that the passes spread over the cores.  Up
    to ``_CACHE_LIMIT`` points the blocks are computed once into the
    packed array ``packed``; above it each block is recomputed into the
    calling thread's scratch block, overwriting the one before.
    """

    def __init__(self, kernel: KernelConfig, T: np.ndarray):
        self.kernel = kernel
        self.T = T
        n = T.shape[0]
        self.layout = list(_triangle_blocks(n))
        sizes = [(stop - start) * (n - start) for start, stop in self.layout]
        self.chunks = [self.layout[a:b] for a, b in _balanced_cuts(sizes, _CHUNKS)]
        self.cached = n <= _CACHE_LIMIT
        if self.cached:
            self.packed = np.empty(sum(sizes))
            self._views, offset = {}, 0
            for (start, stop), size in zip(self.layout, sizes):
                self._views[start] = self.packed[offset:offset + size].reshape(
                    stop - start, n - start)
                offset += size

            def fill(chunk):
                for start, stop in chunk:
                    self._fill(start, stop, self._views[start])

            _for_each(fill, self.chunks)

    def _fill(self, start, stop, W):
        return _cross_weights(self.kernel, self.T[start:stop], self.T[start:], out=W)

    def blocks(self, chunk):
        """(start, stop, W[start:stop, start:]) for every row block of
        ``chunk``."""
        n = self.T.shape[0]
        for start, stop in chunk:
            if self.cached:
                yield start, stop, self._views[start]
            else:
                W, = _scratch("weights", (stop - start, n - start))
                yield start, stop, self._fill(start, stop, W)


class _Logistic:
    """p = sigmoid(g + mu) between fixed offsets g and points mu.

    e^g is formed once and e^mu once per call or pass, so a block costs no
    exponential of its own (see the module docstring), unless |g| + |mu|
    could overflow exp.  Results live in the calling thread's two scratch
    blocks, overwritten by its next call, so one instance serves every
    thread of a pass.
    """

    def __init__(self, g: np.ndarray):
        self.g = g
        self.headroom = _EXP_SAFE - float(np.abs(g).max())
        self.eg = np.exp(g) if self.headroom > 0.0 else None
        self.ones = np.ones(g.shape[0])   # row sums as BLAS products

    def exp_points(self, mu: np.ndarray):
        """e^mu, or None when some e^g e^mu could overflow."""
        if self.eg is None or float(np.abs(mu).max()) >= self.headroom:
            return None
        return np.exp(mu)

    def weighted(self, W, mu, cols=slice(None), emu=None) -> tuple:
        """(W * P, Q) with Q = 1 - P and P_ij = sigmoid(mu_i + g_j), for
        the points mu of W's rows and the offsets ``g[cols]`` of its
        columns (direction 1).  ``emu`` is e^mu when the caller has it."""
        if emu is None:
            emu = self.exp_points(mu)
        eg = None if emu is None else self.eg[cols]
        return self._fill(W, mu, emu, self.g[cols], eg)

    def weighted_t(self, W, rows, mu, emu) -> tuple:
        """(W * P, Q) with P_ij = sigmoid(g_i + mu_j), for the offsets
        ``g[rows]`` of W's rows and the points mu of its columns
        (direction 2)."""
        if emu is None:
            emu = self.exp_points(mu)
        eg = None if emu is None else self.eg[rows]
        return self._fill(W, self.g[rows], eg, mu, emu)

    def _fill(self, W, a, ea, b, eb):
        """(W * P, Q) for P_ij = sigmoid(a_i + b_j); exp-free when ea and
        eb hold e^a and e^b."""
        WP, Q = _scratch("logistic", W.shape, 2)
        if eb is not None:
            np.multiply.outer(ea, eb, out=WP)
            np.add(WP, 1.0, out=Q)
            np.reciprocal(Q, out=Q)
            WP *= Q
        else:
            WP[...] = sigmoid(a[:, None] + b[None, :])
            np.subtract(1.0, WP, out=Q)
        WP *= W
        return WP, Q


def _local_steps(W, Wy, logit, mu):
    """Local Newton steps score / info of m for the query points mu of W's
    rows, where Wy = W y_k and info = sum_j w p (1 - p) is minus the local
    curvature."""
    # np.dot, not @, here and in the passes: numpy's matmul keeps the
    # interpreter lock through a single product, and the other threads wait
    WP, Q = logit.weighted(W, mu)
    info = np.einsum("ij,ij->i", WP, Q)
    if np.any(info <= 0.0):
        raise NumericalFailureError("nonnegative local curvature at a query point")
    return (Wy - np.dot(WP, logit.ones)) / info


def _symmetric_sums(wcache, logit, mu, y, R):
    """Kernel sums at every observation point, over the packed triangle.

    With p_ij = sigmoid(g_j + mu_i), returns the columns of
    sum_j w_ij p_ij (1 - p_ij) R_j, shape (n, r); a ones column of ``R``
    gives the local informations.  Unless ``y`` is None, a first column
    holds the local scores sum_j w_ij (y_j - p_ij).  Each block W[I, s:]
    serves rows I against columns s: (direction 1) and, read down its
    columns past the diagonal block, rows e: against columns I
    (direction 2).  Each chunk of ``wcache`` adds into its own partial
    sums, which are added up in chunk order.
    """
    n = mu.shape[0]
    first = int(y is not None)      # the score column, when there is one
    # e^mu once per pass; when it is unsafe, each block decides alone
    emu = logit.exp_points(mu)
    partials = np.zeros((len(wcache.chunks), n, first + R.shape[1]))

    def chunk_sums(c):
        sums = partials[c]
        for s, e, W in wcache.blocks(wcache.chunks[c]):
            WP, Q = logit.weighted(W, mu[s:e], slice(s, None),
                                   None if emu is None else emu[s:e])
            if first:
                sums[s:e, 0] += np.dot(W, y[s:]) - np.dot(WP, logit.ones[s:])
            WP *= Q
            sums[s:e, first:] += np.dot(WP, R[s:])
            if e == n:
                continue
            V = W[:, e - s:]
            WP, Q = logit.weighted_t(V, slice(s, e), mu[e:],
                                     None if emu is None else emu[e:])
            if first:
                sums[e:, 0] += np.dot(y[s:e], V) - np.dot(logit.ones[s:e], WP)
            WP *= Q
            sums[e:, first:] += np.dot(WP.T, R[s:e])

    _for_each(chunk_sums, range(len(wcache.chunks)))
    # added in chunk order, whichever thread made each
    return partials.sum(axis=0)


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
        M = np.maximum(_row_reduce(np.maximum, other), 0.0)
        S = np.exp(-M) + _row_reduce(np.add, np.exp(other - M[:, None]))
    else:
        M = np.zeros(data.n)
        S = np.ones(data.n)
    return c - M - np.log(S)


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


def _jacobian_rhs(data, state, row, g, J):
    """-x e_k + sum_{s != k} pi_s (x e_s + J_s), the right-hand side of
    category ``row``'s implicit-function equations, shape (n, (K-1) p).

    ``g`` is the row's :func:`_fixed_logit_parts`, x'beta_k -
    log(1 + sum_{l != k} e^{eta_l}), so pi_s = e^{eta_s + g - x'beta_k}.
    """
    X = _x_blocks(data, J.shape[0])
    A = data.x @ state.beta.T + state.m.T
    log_rest = g - (A[:, row] - state.m[row])
    rhs = -X[row]
    for s in range(J.shape[0]):
        if s != row:
            rhs = rhs + np.exp(A[:, s] + log_rest)[:, None] * (X[s] + J[s])
    return rhs


def _profile_jacobian(data, state, wcache, J=None, tol=_JACOBIAN_TOL):
    """J_s = dm_s/dbeta at the observation points, (K-1, n, (K-1) p).

    Solves the implicit-function equations of the module docstring by
    Gauss-Seidel passes of :func:`_category_pass` without y,
    Anderson-mixed like the curve solve, continuing from ``J`` (zeros
    when None), the closing curve sweep's, until a pass changes J by less
    than ``tol`` in max-norm; the fit's loop passes its forcing tolerance
    there.  With one category there is no
    coupling, so one pass is exact: a given J, made by a sweep's pass, is
    returned as it is, and from zeros the solve stops after its first
    pass.  Returns ``(J, converged, last max change)``, the change 0.0
    for a J returned as given.
    """
    n_rows = state.m.shape[0]
    if n_rows == 1 and J is not None:
        return J, True, 0.0
    shape = (n_rows, data.n, n_rows * data.p)
    tol = tol if n_rows > 1 else np.inf

    def gs_pass(x):
        J = x.reshape(shape).copy()
        for row in range(n_rows):
            _category_pass(data, state, row, wcache, J)
        return J.ravel()

    x0 = np.zeros(math.prod(shape)) if J is None else J.ravel()
    J, done, change = _mixed_passes(gs_pass, x0, tol, mix=True)
    return J.reshape(shape), done, change


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


def _category_pass(data, state, row, wcache, J, y=None):
    """One blocked pass of category ``row`` at the snapshot ``state``.

    With M_k = W * P * (1 - P) and D_k its row sums, the products of every
    block with [1 | rhs_k], rhs_k from the running dm/dbeta ``J``, give
    D_k and M_k rhs_k, and J[row] is replaced by D_k^{-1} M_k rhs_k.
    Given ``y``, category k's response indicator, the pass is also a curve
    sweep: it returns the local Newton step of m_k at every observation
    point, clipped at ``STEP_CAP``, and the number of clipped steps.
    """
    g = _fixed_logit_parts(data, state, row)
    logit = _Logistic(g)
    R = np.column_stack([logit.ones, _jacobian_rhs(data, state, row, g, J)])
    sums = _symmetric_sums(wcache, logit, state.m[row], y, R)
    first = int(y is not None)      # the score column, when there is one
    info = sums[:, first]
    if np.any(info <= 0.0):
        raise NumericalFailureError("nonnegative local curvature in a category pass")
    J[row] = sums[:, first + 1:] / sums[:, first:first + 1]
    if y is None:
        return None
    step = sums[:, 0] / info
    cap_hits = int(np.count_nonzero(np.abs(step) > STEP_CAP))
    return np.clip(step, -STEP_CAP, STEP_CAP), cap_hits


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


def _mixed_passes(gs_pass, x, tol, mix):
    """Iterate x <- G(x) = gs_pass(x) until max|G(x) - x| < tol, for at
    most ``_BURNIN_SWEEPS`` passes.

    With ``mix`` each next iterate is Anderson-mixed from the last
    ``_ANDERSON_DEPTH + 1`` pairs (x, G(x)); the history is dropped when
    the residual max-norm grows or the mixing coefficients are not
    finite.  Returns ``(G(x) at the stop or the last iterate, converged,
    last max change)``.
    """
    xs, gs = [], []
    delta = np.inf
    for _ in range(_BURNIN_SWEEPS):
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


def _resolve_all_m(data, state, cats, wcache, tol, J):
    """Solve all m rows onto the least favourable curve of state.beta.

    The fixed-point map G is one Gauss-Seidel pass of local Newton steps
    over the categories, iterated by :func:`_mixed_passes`.  With two or
    more non-reference categories the curves are coupled and plain passes
    converge only linearly, so the passes are Anderson-mixed.  With one
    category the pass is already a pointwise Newton step on an uncoupled
    curve and converges quadratically, so it is iterated plainly.  The
    solve stops when max|G(x) - x| < tol and leaves G(x), the last plain
    pass, in ``state.m``.

    Each sweep is a :func:`_category_pass` with the category's response
    indicator, so its Jacobian pass carries a running dm/dbeta from ``J``
    (zeros when None).  For one category the closing sweep's J is exact
    at that sweep's input m, which lies within tol of the returned m.

    Returns ``((worst per-sweep fraction of cap-clipped local updates,
    the closing sweep's J), converged, last max change)``; ``converged``
    is False when ``_BURNIN_SWEEPS`` passes did not reach tol.
    """
    shape = state.m.shape
    J = np.zeros((shape[0], data.n, shape[0] * data.p)) if J is None else J.copy()
    ys = [(data.y == k).astype(np.float64) for k in cats]
    worst_cap = 0.0

    def gs_pass(x):
        nonlocal worst_cap
        state.m = x.reshape(shape).copy()
        hits_total = 0
        for row, y in enumerate(ys):
            step, hits = _category_pass(data, state, row, wcache, J, y)
            state.m[row] += step
            hits_total += hits
        worst_cap = max(worst_cap, hits_total / state.m.size)
        return state.m.ravel().copy()

    m, done, delta = _mixed_passes(gs_pass, state.m.ravel().copy(), tol,
                                   mix=len(cats) > 1)
    state.m = m.reshape(shape)
    return (worst_cap, J), done, delta


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


def _initial_state(data: Dataset, kernel: KernelConfig, reference, start):
    """Check the inputs of a fit and return ``(state, reference, cats)``:
    ``start`` (copied) or the parametric start, the fit's reference and its
    non-reference categories."""
    K = data.n_categories
    if start is not None:
        if reference not in (None, start.reference):
            raise ConfigError(f"reference {reference} != start reference "
                              f"{start.reference}")
        reference = start.reference
        if start.beta.shape != (K - 1, data.p) or start.m.shape != (K - 1, data.n):
            raise ShapeError(
                f"start has beta {start.beta.shape} and m {start.m.shape}, "
                f"not ({K - 1}, {data.p}) and ({K - 1}, {data.n})")
    reference = K if reference is None else reference
    if data.q == 0:
        raise ConfigError("semiparametric fit needs at least one smooth covariate")
    if kernel.q != data.q:
        raise ShapeError(f"kernel has {kernel.q} bandwidths, data has q={data.q}")
    state = starting_state(data, reference) if start is None else start.copy()
    return state, reference, nonreference_categories(K, reference)


class _Solves:
    """The curve and Jacobian solves of one fit over one weight cache,
    with the record its warnings read: the worst step-cap share and the
    last max change of every solve stopped at its pass cap."""

    def __init__(self, data, kernel, cats, tol):
        self.data, self.cats = data, cats
        self.wcache = _WeightCache(kernel, data.t)
        self.tol = min(tol, _CURVE_TOL)
        self.worst_cap_fraction = 0.0
        self.capped = []

    def curve(self, state, J=None):
        """Solve ``state.m`` onto the least favourable curve of
        ``state.beta``, from ``state.m``, its sweeps carrying dm/dbeta from
        ``J``; returns the profile log-likelihood there and the closing
        sweep's J."""
        (cap, J), done, change = _resolve_all_m(
            self.data, state, self.cats, self.wcache, self.tol, J)
        self.worst_cap_fraction = max(self.worst_cap_fraction, cap)
        if not done:
            self.capped.append(change)
        return _joint_loglik(self.data, state.beta, state.m, state.reference), J

    def jacobian(self, state, J, tol):
        """dm/dbeta at ``state``, continuing from ``J`` until a pass
        changes it by less than ``tol``."""
        J, done, change = _profile_jacobian(self.data, state, self.wcache, J, tol)
        if not done:
            self.capped.append(change)
        return J


def profile_loglik(data: Dataset, kernel: KernelConfig, beta,
                   start: SmoothState, *, tol: float = 1e-6) -> float:
    """Profile log-likelihood at ``beta``: the joint log-likelihood with m
    solved onto the least favourable curve of ``beta`` from ``start.m``
    (``start.beta`` is not read).

    This is the first trace point of :func:`fit_semiparametric` started at
    ``SmoothState(beta, start.m, start.reference)`` with the same ``tol``,
    bit for bit, without the fit's Jacobian solve for ``beta_se``.
    """
    state, _, cats = _initial_state(
        data, kernel, None, SmoothState(beta, start.m, start.reference))
    return _Solves(data, kernel, cats, tol).curve(state)[0]


def fit_semiparametric(data: Dataset, kernel: KernelConfig, *,
                       reference: int | None = None, tol: float = 1e-6,
                       max_iter: int = 200,
                       start: SmoothState | None = None) -> SemiparametricFitResult:
    """Profile-Newton fit of the semiparametric MNL.

    Solves m onto the least favourable curve of the starting coefficients,
    then repeats one step: the joint Newton direction d = H^{-1} S on the
    profile score, m re-solved at beta + lam d from the first-order
    prediction m + lam J d, lam halved until the profile log-likelihood
    falls by no more than 1e-9, and the step accepted.  ``converged`` means
    that an undamped step moved (beta, m) by less than ``tol`` in max-norm
    and that the Newton step d of the exact score at the returned state is
    below ``tol`` as well, in beta (max|d|) and in m (max|J d|).  When it
    is not, the loop goes on from that step, with no further Jacobian
    solve.  ``loglik_trace`` records the profile log-likelihood after the
    first solve and after every step; it never decreases, and its gradient
    in beta is the exact score.  With ``max_iter=0`` the
    fit stops after the first solve, so ``loglik`` is the profile
    log-likelihood at the starting coefficients (:func:`profile_loglik`
    computes it alone).  ``start`` replaces the parametric start, and its
    reference is the fit's.  Local steps are clipped at ``STEP_CAP``, with
    at most ``_BURNIN_SWEEPS`` passes per solve.

    J = dm/dbeta comes from the closing sweep of the curve solve at the
    current coefficients (see the module docstring): with K = 2 that pass
    is exact, so J is exact up to the curve tolerance of the m it is taken
    at.  With K >= 3 the Jacobian solve continues from it to
    max(``_JACOBIAN_TOL``, ``_JACOBIAN_FORCING`` delta), where delta is
    the max-norm move of the state since J was last solved: the first
    curve solve's move of m, then the last accepted step's.  ``beta_se``
    comes from the full (K-1) p profile information H, with J solved to
    ``_JACOBIAN_TOL`` at the returned state on every path: the
    certificate's J when the fit converges, otherwise one closing solve
    from the last J, unless that was already tight.  A fit
    in which some curve or Jacobian solve stopped at its pass cap carries
    a warning, since the trace entry or score it fed is then inexact.
    """
    state, reference, cats = _initial_state(data, kernel, reference, start)
    solves = _Solves(data, kernel, cats, tol)
    warnings: list = []

    # Solve the local problems at the starting coefficients first, so the
    # recorded trace is a profile-likelihood trace: every entry has m on
    # (or near) the least favourable curve of the current coefficients.
    # Without this, starting values with a linear t-part would force the
    # joint likelihood downhill before the profile iteration can begin.
    m_start = state.m.copy()
    ll, J = solves.curve(state)
    trace = [ll]
    moved = float(np.abs(state.m - m_start).max())  # since J was last solved
    converged = False
    tight = False            # J was solved to _JACOBIAN_TOL at state
    direction = None         # the Newton step from J at state, once taken
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if direction is None:
            jac_tol = max(_JACOBIAN_TOL, _JACOBIAN_FORCING * moved)
            J = solves.jacobian(state, J, jac_tol)
            tight = jac_tol == _JACOBIAN_TOL
            direction = _newton_step(*_score_information(data, state, J))
        m_dir = J @ direction     # dm along the step: the predictor
        step = direction.reshape(state.beta.shape)
        beta_prev, m_prev = state.beta, state.m
        lam = 1.0
        for _ in range(61):
            state.beta = beta_prev + lam * step
            state.m = m_prev + lam * m_dir
            ll_new, J_new = solves.curve(state, J)
            if ll_new >= ll - 1e-9:
                break
            lam *= 0.5
        else:
            # back where this iteration's Jacobian solve was made
            state.beta, state.m = beta_prev, m_prev
            warnings.append(
                f"trace guard exhausted halvings at iteration {iterations}")
            break
        moved = max(float(np.abs(state.beta - beta_prev).max(initial=0.0)),
                    float(np.abs(state.m - m_prev).max()))
        ll, J, tight, direction = ll_new, J_new, False, None
        trace.append(ll)
        if lam == 1.0 and moved < tol:
            # the certificate: the exact Newton step at the new state
            J, tight = solves.jacobian(state, J, _JACOBIAN_TOL), True
            direction = _newton_step(*_score_information(data, state, J))
            if max(float(np.abs(direction).max(initial=0.0)),
                   float(np.abs(J @ direction).max())) < tol:
                converged = True
                break

    if not tight:
        J = solves.jacobian(state, J, _JACOBIAN_TOL)
    _, info = _score_information(data, state, J)
    if not converged:
        warnings.append(f"no convergence after {iterations} iterations")
    if solves.capped:
        warnings.append(
            f"least-favourable curve re-solve stopped at {_BURNIN_SWEEPS} "
            f"sweeps in {len(solves.capped)} solve(s) "
            f"(max change {max(solves.capped):.1e})")
    if solves.worst_cap_fraction > 0.10:
        warnings.append(
            "ill-conditioned local likelihoods: step cap hit at "
            f"{solves.worst_cap_fraction:.1%} of points in some sweep")

    return SemiparametricFitResult(
        beta=state.beta.copy(), beta_se=_standard_errors(info, state.beta.shape),
        smooth=state, loglik=ll, loglik_trace=trace, converged=converged,
        iterations=iterations, kernel=kernel, reference=reference,
        categories=cats, warnings=warnings,
        options={"tol": tol, "max_iter": max_iter},
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


def _bracketed_step(mu, newton, step, bracket):
    """``(mu + step, bracket)`` for the Newton steps ``newton`` clipped to
    ``step``, where a clipped step that would leave its root's bracket
    goes to the bracket's midpoint instead.  ``bracket`` (lo, hi), or None
    for (-inf, inf), is first narrowed to mu on the side each step leaves
    behind: the local score is decreasing, so the root lies in the step's
    direction."""
    lo, hi = (np.full(mu.shape, -np.inf), np.full(mu.shape, np.inf)) \
        if bracket is None else bracket
    lo = np.where(newton > 0.0, mu, lo)
    hi = np.where(newton < 0.0, mu, hi)
    nxt = mu + step
    out = (step != newton) & ((nxt <= lo) | (nxt >= hi))
    nxt[out] = 0.5 * (lo[out] + hi[out])
    return nxt, (lo, hi)


def _solve_m_at_points(data, state, kernel, Tq):
    """Solve the local first-order conditions at arbitrary points, (K-1, G).

    Each block of query points gets its kernel weights once.  On it every
    category's smooth takes local Newton steps clipped at ``STEP_CAP``
    from the nearest observation point's value, for at most
    ``_BURNIN_SWEEPS`` steps.  Each point solves f(mu) = sum_j w_j (y_j -
    sigma(g_j + mu)) = 0, where f' = -sum w sigma (1 - sigma) < 0 and
    |f''| <= |f'|, so |f'| changes by at most a factor e^|d| over a move
    d.  After a step s, Taylor's theorem gives |f(mu + s)| <= 1/2 s^2
    e^|s| |f'(mu + s)|, and the same factor puts the root within
    -log(1 - 1/2 s^2 e^|s|) of mu + s.  The block stops once its largest
    step s has s^2 e^(2s) <= ``_POINT_TOL``, which bounds every point's
    remaining error by 1/2 ``_POINT_TOL``, without a pass that only
    confirms it; a step clipped at the cap never meets the rule.  On a
    pass where some step is clipped, the signs of the steps bracket every
    root between the values such passes visited, and a clipped step that
    would leave its bracket goes to the bracket's midpoint instead
    (:func:`_bracketed_step`), so clipped steps cannot cycle; a pass
    without a clipped step is plain Newton.  The blocks stand alone and
    run on the pool; when several have a point without kernel weight, the
    first of them raises.
    """
    Tq = np.atleast_2d(np.asarray(Tq, dtype=np.float64))
    if Tq.shape[1] != data.q:
        raise ShapeError(f"query points must have dimension {data.q}")
    cats = state.categories()
    logits = [_Logistic(_fixed_logit_parts(data, state, row))
              for row in range(len(cats))]
    ys = [(data.y == k).astype(np.float64) for k in cats]
    mu = np.empty((len(cats), Tq.shape[0]))

    def solve_block(bounds):
        start, stop = bounds
        W, = _scratch("weights", (stop - start, data.n))
        with np.errstate(over="ignore"):     # a distance that overflows weighs 0
            _cross_weights(kernel, Tq[start:stop], data.t, out=W)
        empty = np.flatnonzero(W.sum(axis=1) == 0.0)
        if empty.size:
            raise NoLocalDataError("all kernel weights vanished at query point "
                                   f"{start + int(empty[0])}")
        # seed from the most-weighted (nearest) observation point
        nearest = np.argmax(W, axis=1)
        for row in range(len(cats)):
            Wy = np.dot(W, ys[row])      # fixed across the passes
            mub = state.m[row][nearest]
            bracket = None
            for _ in range(_BURNIN_SWEEPS):
                newton = _local_steps(W, Wy, logits[row], mub)
                step = np.clip(newton, -STEP_CAP, STEP_CAP)
                s = float(np.abs(step).max())
                if s < STEP_CAP:
                    mub = mub + step
                else:
                    mub, bracket = _bracketed_step(mub, newton, step, bracket)
                if s * s * math.exp(2.0 * s) <= _POINT_TOL:
                    break
            mu[row, start:stop] = mub

    _for_each(solve_block, _blocks(Tq.shape[0], _block_rows(data.n)))
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
    if x_fixed.shape != (data.p,):
        raise ShapeError(f"expected x of length {data.p}, got shape {x_fixed.shape}")
    eta = np.zeros((T_new.shape[0], data.n_categories))
    m_new = _solve_m_at_points(data, fit.smooth, fit.kernel, T_new)
    for row, k in enumerate(fit.categories):
        eta[:, int(k) - 1] = x_fixed @ fit.beta[row] + m_new[row]
    return softmax_probabilities(eta)
