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
Both solves are methods of :class:`_Solves`, the one way into either,
which keeps the weight cache and the record the fit's warnings read.
They loop over one such pass, :func:`_category_pass`: it forms rhs_k
from the running J and takes one product of every logistic block with
columns built from [1 | rhs_k], whose first gives the local information.
Given W y_k it also sums the local scores, so the pass is a curve sweep
too and returns its Newton step.  The running J is the previous
iteration's (zeros for the first solve), so a curve solve hands the
Jacobian solve the pass of its closing sweep.  That pass is made at the
closing sweep's input m, which lies within the curve tolerance of the
solved m.

Both solves are Gauss-Seidel passes over the categories.  With K >= 3
they are coupled and converge only linearly, so the stacked vector is
Anderson-mixed from its last few passes (Anderson 1965; Walker & Ni
2011), and the Jacobian solve continues from the closing sweep's J.
With K = 2 there is one uncoupled curve: each curve pass is a pointwise
Newton step converging quadratically and runs plain, and one Jacobian
pass is exact, so the closing sweep's J is the fit's and a K = 2 fit
makes no separate Jacobian pass.  Its offsets g = x beta do not depend
on m, so the local conditions are n scalar roots of the function of t
that the surface solve below evaluates.  With q = 1 and no given start,
the fit solves them exactly at coarse nodes, the first observation of
each ``_SEED_BIN``-bandwidth bin along t and the largest t, and
interpolates to every point (nested iteration, Brandt 1977): the burn-in
starts about 1/8 D^2 max|m''| off the curve, node spacing D, and takes
two sweeps instead of five.  At K >= 3 g depends on the other m, so a
node solve would be one Jacobi step.

Identifiability: the reference category's beta row and m row are
structurally zero and never stored.

The O(n^2) pass: a local Newton step of m_k(t_i) needs the kernel sums
sum_j w_ij y_j, sum_j w_ij p_ij and sum_j w_ij p_ij (1 - p_ij), where
p_ij = sigmoid(g_j + mu_i) for the fixed offsets g of
:func:`_fixed_logit_parts`; the Jacobian and the surface solve need the
same sums.  A fit makes W y_k once, in one pass for every category.  The
logistic factors: with c_ij = e^{-mu_i} e^{-g_j}, p = (1 + c) p^2 and
p (1 - p) = c p^2, so the block T = W / (1 + c)^2, made in four passes,
gives every other sum in one product with [1 | e^-g | e^-g r], and a
block costs only its rows' and columns' exponentials.  Where (1 + c)^2
could overflow, the call or pass takes the sigmoid form.  The score is
W y - sum w p, not W (y - 1) + sum w (1 - p): rounding leaves its step
off by about eps / (1 - p), not eps / p, and a category is locally rare
more often than dominant.  The weights are the Gaussian kernel without
its normalising constant, which cancels in every ratio formed here.

Between observation points the kernel is symmetric, w_ij = w_ji, so the
pass is triangular: row block I = [s, e) holds only W[I, s:], and each
weight is computed (or cached) once, apart from the diagonal blocks.
The block is read twice, and the per-point sums are accumulated over all
blocks before any step is taken.  Direction 1 covers rows I against
columns s: with c = e^{-mu_I} e^{-g_j}, summing along rows.  Direction 2
covers rows e: against columns I.  It uses the same block with
c' = e^{-g_I} e^{-mu_j} and sums down its columns, so no transpose is
formed.  Blocks hold at most ``_BLOCK_DOUBLES`` doubles, and so do the
temporaries.  Query points against observation points are not symmetric:
the surface solve runs plain row blocks through the same logistic.  Its
g is fixed, so each point's solve is scalar Newton, converging
quadratically, and it stops on a proven bound on the remaining error
rather than on a pass whose step is already negligible.  With one smooth
covariate it starts from a parabola through the fitted m along t, close
enough that a block near the fitted curve stops after one step; with
more it starts from the nearest observation point's m and usually takes
two.

Every pass uses every core the process may run on.  The blocks are cut
into ``_CHUNKS`` contiguous runs of about equal weight count, and the
calling thread and a module-level pool of one thread per further core
take the chunks in turn (numpy drops the GIL in its ufuncs and
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
from functools import cached_property

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
    InvalidPredictorError,
    NoLocalDataError,
    NumericalFailureError,
    ShapeError,
)
# kernel_weights is not called here, but perfbench's tracer wraps it as an
# attribute of this module (its kernels.kernel_weights.* metrics).
from .kernels import KernelConfig, kernel_weights  # noqa: F401
from .parametric import (_covariance, _halving_search, _newton_direction, fit_parametric,
                         standard_errors)

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
# Bin width, in bandwidths, of the coarse nodes that seed a K = 2, q = 1
# burn-in (see fit_semiparametric).  Burn-in sweeps on perfbench's
# k2-uncached draw (seed 5, n = 6100) by bin width:
#     h/8  3    h/16  3    h/32  2    h/64  2
# Above n/4 nodes the seed is skipped.  Fit time with it against without
# on sine_dgp(2, n, 1..8) of tests/conftest.py, scale 0.5:
#     n 300 / 600 / 1000 / 1500, nodes/n 0.55 / 0.34 / 0.22 / 0.15:
#     +4 / -7 / -11 / -21 %
_SEED_BIN = 1.0 / 32
_EXP_SAFE = 350.0     # (1 + e^-g e^-mu)^2 is finite while |g| + |mu| stays below


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


def _scratch(name: str, shape) -> np.ndarray:
    """An array of ``shape`` in this thread's reused buffer ``name``,
    overwritten by the next call.  Each thread allocates its buffer once,
    with room for the largest block, and grows it only for a larger
    one."""
    size = math.prod(shape)
    buf = getattr(_buffers, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(max(size, _BLOCK_DOUBLES))
        setattr(_buffers, name, buf)
    return buf[:size].reshape(shape)


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
    # a row per dimension: a strided column slows the outer difference
    Aq, A = (np.ascontiguousarray((X * scale).T) for X in (Tq, T))
    for d in range(A.shape[0]):
        z = out if d == 0 else _scratch("distance", out.shape)
        np.subtract.outer(Aq[d], A[d], out=z)
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
                W = _scratch("weights", (stop - start, n - start))
                yield start, stop, self._fill(start, stop, W)

    def sums(self, width, block):
        """Sums at every observation point over the triangle, (n, width):
        ``block(W, s, e, down)`` sums the block W[s:e, s:] along its rows
        for the rows s:e, and with ``down`` its part W[s:e, e:] down its
        columns for the rows e:.  Each chunk adds into its own partial
        sums, added up in chunk order, whichever thread made each."""
        n = self.T.shape[0]
        partials = np.zeros((len(self.chunks), n, width))

        def chunk_sums(c):
            sums = partials[c]
            for s, e, W in self.blocks(self.chunks[c]):
                sums[s:e] += block(W, s, e, False)
                if e < n:
                    sums[e:] += block(W[:, e - s:], s, e, True)

        _for_each(chunk_sums, range(len(self.chunks)))
        return partials.sum(axis=0)

    def dot(self, Y):
        """W Y for an (n, r) Y, in one pass over the triangle."""
        return self.sums(Y.shape[1], lambda W, s, e, down: (
            np.dot(W.T, Y[s:e]) if down else np.dot(W, Y[s:])))


class _Logistic:
    """Kernel sums of p = sigmoid(g + mu) between fixed offsets g of the
    observations and points mu, by the factored block T = W p^2 of the
    module docstring.  Blocks live in the calling thread's scratch, so
    one instance serves every thread of a pass."""

    def __init__(self, g: np.ndarray):
        self.g = g
        self.headroom = _EXP_SAFE - float(np.abs(g).max())
        self.plain = np.ones((g.shape[0], 2))
        # e^-g contiguous too: a strided column slows the outer product
        self.eg = None if self.headroom <= 0.0 else np.exp(-g)
        self.factored = None if self.eg is None else np.column_stack(
            [self.plain[:, 0], self.eg])

    def columns(self, mu, R=None) -> tuple:
        """(e^-mu, [1 | e^-g | e^-g R]) for the points mu, or, when some
        (1 + e^-g e^-mu)^2 could overflow, (None, [1 | 1 | R]) for the
        sigmoid form."""
        if self.factored is None or float(np.abs(mu).max()) >= self.headroom:
            emu, C = None, self.plain
        else:
            emu, C = np.exp(-mu), self.factored
        return emu, C if R is None else np.hstack([C, C[:, 1:] * R])

    def sums(self, W, mu, emu, obs, C, down=False) -> np.ndarray:
        """T C[obs], T = W p^2 between the points mu of W's rows and the
        observations ``obs`` of its columns (with ``down``, of its columns
        and rows).  The sigmoid form sums the columns past the first with
        W p (1 - p) instead: :meth:`totals` with e^-mu = 1."""
        # np.dot, not @: numpy's matmul keeps the interpreter lock through
        # a single product, and the other threads wait
        C = C[obs]
        if emu is not None:
            T = _scratch("logistic", W.shape)
            eg = self.eg[obs]
            np.multiply.outer(*((eg, emu) if down else (emu, eg)), out=T)
            T += 1.0
            T *= T
            np.divide(W, T, out=T)
            return np.dot(T.T, C) if down else np.dot(T, C)
        z = np.add.outer(*((self.g[obs], mu) if down else (mu, self.g[obs])))
        P = sigmoid(z)
        blocks = (W * P * P, W * P * sigmoid(-z))     # 1 - p is 0 once p rounds to 1
        A, B = (block.T for block in blocks) if down else blocks
        return np.column_stack([np.dot(A, C[:, 0]), np.dot(B, C[:, 1:])])

    @staticmethod
    def totals(S, emu) -> tuple:
        """(sum_j w p, sum_j w p (1 - p) [1 | R_j]) from the summed
        :meth:`sums` S: e^-mu T (e^-g r) and T 1 + e^-mu T e^-g."""
        wpq = S[:, 1:] if emu is None else emu[:, None] * S[:, 1:]
        return S[:, 0] + wpq[:, 0], wpq


def _local_steps(W, Wy, logit, mu):
    """Local Newton steps (Wy - sum_j w p) / sum_j w p (1 - p) of m at the
    query points mu of W's rows, Wy = W y_k."""
    emu, C = logit.columns(mu)
    wp, wpq = logit.totals(logit.sums(W, mu, emu, slice(None), C), emu)
    if np.any(wpq[:, 0] <= 0.0):
        raise NumericalFailureError("nonnegative local curvature at a query point")
    return (Wy - wp) / wpq[:, 0]


def _symmetric_sums(wcache, logit, mu, R):
    """sum_j w_ij p_ij, shape (n,), and sum_j w_ij p_ij (1 - p_ij) [1 | R_j],
    shape (n, 1 + r), over the packed triangle, p_ij = sigmoid(g_j + mu_i).
    The first column is the local information; W y less the first sum is
    the local score.  The pass takes the factored or the sigmoid form as a
    whole."""
    emu, C = logit.columns(mu, R)

    def block(W, s, e, down):
        pts = slice(e, None) if down else slice(s, e)
        return logit.sums(W, mu[pts], None if emu is None else emu[pts],
                          slice(s, e) if down else slice(s, None), C, down)

    return logit.totals(wcache.sums(C.shape[1], block), emu)


def _fixed_logit_parts(data: Dataset, state: SmoothState, row: int) -> tuple:
    """(g, pi) of category ``row`` at the observation points, from one
    evaluation of the predictors x beta' + m'.

    g is the per-observation offset such that p_ik(mu) = sigmoid(g_i + mu):
    it collapses the categories other than k (including the reference's
    zero predictor), and the candidate value of m_k at the query point
    enters only through mu.  g = x'beta_k - log(1 + sum_{l != k} e^{eta_l}),
    so column j of pi, (n, K-2), is pi_s = e^{eta_s + g - x'beta_k} of the
    j-th category row s other than ``row``.
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
    g = c - M - np.log(S)
    return g, np.exp(other + (g - c)[:, None])


def _eta_gradients(data, J):
    """E_s = x e_s + J_s = d eta_s / d beta for every category row s,
    (K-1, n, (K-1) p): x added into a copy of J, in row s's block of E_s."""
    E, p = J.copy(), data.p
    for s in range(J.shape[0]):
        E[s, :, s * p:(s + 1) * p] += data.x
    return E


def _score_information(data, state, J):
    """Profile score S and information H, flattened in beta's layout.

    With E_s = x e_s + J_s = d eta_s / d beta, S = sum_s E_s' (y_s - p_s)
    is the gradient of the profile log-likelihood, and
    H = sum_i U_i' (diag p_i - p_i p_i') U_i, U_i stacking the rows i of
    the E_s, is its information.
    """
    cats = state.categories()
    n_rows, n, P = J.shape
    E = _eta_gradients(data, J).reshape(n_rows * n, P)
    eta = linear_predictors(state.beta, state.m, data.x, state.reference)
    prob = softmax_probabilities(eta)[:, cats - 1].T.reshape(-1, 1)
    resid = (data.y == cats[:, None]).reshape(-1, 1) - prob
    PE = prob * E
    V = PE.reshape(J.shape).sum(axis=0)
    return E.T @ resid[:, 0], PE.T @ E - V.T @ V


def _newton_step(score, info):
    """Newton direction H^{-1} S.  Components are clipped at 10 so a badly
    scaled early step cannot fling the iterate into saturation."""
    return np.clip(_newton_direction(score, info), -10.0, 10.0)


def _category_pass(data, state, row, wcache, J, Wy=None):
    """One blocked pass of category ``row`` at the snapshot ``state``.

    With M_k = W * P * Q, Q = 1 - P, and D_k its row sums, the products of
    every logistic block with [1 | e^-g | e^-g rhs_k], where
    rhs_k = -x e_k + sum_{s != k} pi_s E_s, E_s = x e_s + J_s from the
    running dm/dbeta ``J``, give D_k and M_k rhs_k (:func:`_symmetric_sums`),
    and J[row] is replaced by D_k^{-1} M_k rhs_k.  Given ``Wy`` = W y_k,
    y_k category k's response indicator, the pass is also a curve sweep:
    it returns the local Newton step of m_k at every observation point,
    clipped at ``STEP_CAP``, and the number of clipped steps.  The products
    are the same either way, so the sweep's J is the Jacobian pass's to
    the last bit.
    """
    g, pi = _fixed_logit_parts(data, state, row)
    rhs = np.zeros(J.shape[1:])
    rhs[:, row * data.p:(row + 1) * data.p] = -data.x
    for pi_s, E_s in zip(pi.T, np.delete(_eta_gradients(data, J), row, axis=0)):
        rhs += pi_s[:, None] * E_s
    wp, sums = _symmetric_sums(wcache, _Logistic(g), state.m[row], rhs)
    info = sums[:, 0]
    if np.any(info <= 0.0):
        raise NumericalFailureError("nonnegative local curvature in a category pass")
    J[row] = sums[:, 1:] / sums[:, :1]
    if Wy is None:
        return None
    step = (Wy - wp) / info
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
    if start is not None:
        if reference not in (None, start.reference):
            raise ConfigError(f"reference {reference} != start reference "
                              f"{start.reference}")
        reference = start.reference
    reference = data.n_categories if reference is None else reference
    if data.q == 0:
        raise ConfigError("semiparametric fit needs at least one smooth covariate")
    _check_fit(data, kernel, start)
    state = starting_state(data, reference) if start is None else start.copy()
    return state, reference, nonreference_categories(data.n_categories, reference)


def _check_fit(data: Dataset, kernel: KernelConfig, state=None):
    """ShapeError unless ``kernel`` has ``data``'s q and ``state``, when
    given, has beta (K-1, p) and m (K-1, n)."""
    K = data.n_categories
    if kernel.q != data.q:
        raise ShapeError(f"kernel has {kernel.q} bandwidths, data has q={data.q}")
    if state is not None and (state.beta.shape != (K - 1, data.p)
                              or state.m.shape != (K - 1, data.n)):
        raise ShapeError(
            f"state has beta {state.beta.shape} and m {state.m.shape}, "
            f"not ({K - 1}, {data.p}) and ({K - 1}, {data.n})")


class _Solves:
    """The curve and Jacobian solves over one weight cache, the only way
    into either, with the record a fit's warnings read: the worst share of
    cap-clipped local steps in any sweep, and the last max change of every
    solve stopped at ``_BURNIN_SWEEPS`` passes.  Both solves are
    Gauss-Seidel passes over the categories (:meth:`_passes`), as the
    module docstring describes."""

    def __init__(self, data, kernel, cats, tol):
        self.data, self.cats = data, cats
        self.wcache = _WeightCache(kernel, data.t)
        self.tol = min(tol, _CURVE_TOL)
        self.worst_cap_fraction = 0.0
        self.capped = []

    @cached_property
    def Wy(self):
        """W y_k, a row per category of ``cats``: the fixed part of the
        local scores, formed by the first curve solve."""
        return self.wcache.dot((self.data.y[:, None] == self.cats) * 1.0).T

    def curve(self, state, J=None):
        """Solve ``state.m`` onto the least favourable curve of
        ``state.beta``, from ``state.m``; returns the profile
        log-likelihood there and the closing sweep's J.

        The solve stops when a pass moves m by less than the curve
        tolerance and leaves that last plain pass in ``state.m``.  Each
        sweep is a :func:`_category_pass` given row k of ``Wy``, so its
        Jacobian pass carries a running dm/dbeta from ``J`` (zeros when
        None).  For one category the closing sweep's J is exact at that
        sweep's input m, which lies within the tolerance of the returned m.
        """
        data, shape = self.data, state.m.shape
        J = np.zeros((shape[0], data.n, shape[0] * data.p)) if J is None else J.copy()

        def gs_pass(x):
            state.m = x.reshape(shape).copy()
            hits = 0
            for row, wy in enumerate(self.Wy):
                step, row_hits = _category_pass(data, state, row, self.wcache, J, wy)
                state.m[row] += step
                hits += row_hits
            self.worst_cap_fraction = max(self.worst_cap_fraction, hits / state.m.size)
            return state.m.ravel().copy()

        m = self._passes(gs_pass, state.m.ravel().copy(), self.tol, shape[0] > 1)
        state.m = m.reshape(shape)
        eta = linear_predictors(state.beta, state.m, data.x, state.reference)
        return dataset_log_likelihood(data, eta), J

    def jacobian(self, state, J=None, tol=_JACOBIAN_TOL):
        """J_s = dm_s/dbeta at the observation points of ``state``,
        (K-1, n, (K-1) p): the implicit-function equations of the module
        docstring, solved by passes of :func:`_category_pass` without y,
        continuing from ``J`` (zeros when None), until a pass changes J by
        less than ``tol``.  With one category there is no coupling, so one
        pass is exact: a given J, made by a sweep's pass, is returned as it
        is, and from zeros the solve stops after its first pass."""
        n_rows = state.m.shape[0]
        if n_rows == 1 and J is not None:
            return J
        shape = (n_rows, self.data.n, n_rows * self.data.p)

        def gs_pass(x):
            J = x.reshape(shape).copy()
            for row in range(n_rows):
                _category_pass(self.data, state, row, self.wcache, J)
            return J.ravel()

        x0 = np.zeros(math.prod(shape)) if J is None else J.ravel()
        return self._passes(gs_pass, x0, tol if n_rows > 1 else np.inf,
                            True).reshape(shape)

    def _passes(self, gs_pass, x, tol, mix):
        """Iterate x <- G(x) = gs_pass(x) until max|G(x) - x| < tol and
        return that G(x); after ``_BURNIN_SWEEPS`` passes, record the last
        max change in ``capped`` and return the last iterate.

        With ``mix`` each next iterate is Anderson-mixed from the last
        ``_ANDERSON_DEPTH + 1`` pairs (x, G(x)); the history is dropped when
        the residual max-norm grows or the mixing coefficients are not
        finite.
        """
        xs, gs = [], []
        delta = np.inf
        for _ in range(_BURNIN_SWEEPS):
            gx = gs_pass(x)
            prev_delta, delta = delta, float(np.abs(gx - x).max(initial=0.0))
            if delta < tol:
                return gx
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
        self.capped.append(delta)
        return x


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
    reference is the fit's.  Without it, a K = 2 fit with one smooth
    covariate starts its first solve from the curve solved at coarse
    nodes (module docstring), unless they number more than n/4.  Local
    steps are clipped at ``STEP_CAP``, with at most ``_BURNIN_SWEEPS``
    passes per solve.

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
    if start is None and len(cats) == 1 and data.q == 1:
        # nested iteration: the curve solved exactly at coarse nodes, the
        # first observation of each bin and the last, seeds every point
        t = np.sort(data.t[:, 0])
        bins = np.floor((t - t[0]) / (_SEED_BIN * kernel.bandwidths[0]))
        nodes = np.unique(np.append(t[np.diff(bins, prepend=-1.0) > 0.0], t[-1]))
        if nodes.size <= data.n / 4:
            mu = _solve_m_at_points(data, state, kernel, nodes[:, None])
            state.m = np.interp(data.t[:, 0], nodes, mu[0])[None, :]
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

        def trial(lam):
            state.beta = beta_prev + lam * step
            state.m = m_prev + lam * m_dir
            ll_new, J_new = solves.curve(state, J)
            return ll_new - ll, (ll_new, J_new)

        found = _halving_search(trial, 1e-9, 60)
        if found is None:
            # back where this iteration's Jacobian solve was made
            state.beta, state.m = beta_prev, m_prev
            warnings.append(f"trace guard exhausted halvings at iteration {iterations}")
            break
        lam, (ll, J) = found
        moved = max(float(np.abs(state.beta - beta_prev).max(initial=0.0)),
                    float(np.abs(state.m - m_prev).max()))
        tight, direction = False, None
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
    beta_se = standard_errors(_covariance(info), state.beta.shape)
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
        beta=state.beta.copy(), beta_se=beta_se,
        smooth=state, loglik=ll, loglik_trace=trace, converged=converged,
        iterations=iterations, kernel=kernel, reference=reference,
        categories=cats, warnings=warnings,
        options={"tol": tol, "max_iter": max_iter},
    )


def profile_scores(data: Dataset, state: SmoothState,
                   kernel: KernelConfig) -> np.ndarray:
    """Gradient of the profile log-likelihood in beta, (K-1, p).

    sum_s sum_i (y_is - p_is)(x_i e_s + dm_s/dbeta(t_i)), with the full
    dm/dbeta of every category; m should lie on the least favourable
    curve of ``state.beta``.
    """
    state, _, cats = _initial_state(data, kernel, None, state)
    J = _Solves(data, kernel, cats, _CURVE_TOL).jacobian(state)
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


def _interpolated(nodes, values, x):
    """The rows of ``values``, sampled at the sorted distinct ``nodes``, at
    the points ``x`` held within the nodes' range: the parabola through
    the three consecutive nodes whose middle one is nearest, or the line
    through two neighbours when there are fewer than three nodes."""
    if nodes.size < 3:
        return np.array([np.interp(x, nodes, v) for v in values])
    x = np.clip(x, nodes[0], nodes[-1])
    i = np.clip(np.searchsorted(nodes, x), 1, nodes.size - 1)
    i -= x - nodes[i - 1] < nodes[i] - x
    j = np.clip(i - 1, 0, nodes.size - 3)
    a, b, c = nodes[j], nodes[j + 1], nodes[j + 2]
    return (values[:, j] * ((x - b) * (x - c) / ((a - b) * (a - c)))
            + values[:, j + 1] * ((x - a) * (x - c) / ((b - a) * (b - c)))
            + values[:, j + 2] * ((x - a) * (x - b) / ((c - a) * (c - b))))


def _solve_m_at_points(data, state, kernel, Tq):
    """Solve the local first-order conditions at arbitrary points, (K-1, G):
    the surfaces' values, and the coarse nodes that seed a K = 2 fit.

    Each block of query points gets its kernel weights once.  On it every
    category's smooth takes local Newton steps clipped at ``STEP_CAP``, for
    at most ``_BURNIN_SWEEPS`` steps, from a seed.  With one smooth
    covariate (q = 1) the seed is the fitted m interpolated along t by
    :func:`_interpolated` at the sorted distinct t values (the first
    observation of each tie), held at the end values outside the observed
    range: the fitted m samples the same smooth root function the query
    solve evaluates, so the parabola is off by at most about
    D^3 max|m'''| / 16 for observation spacing D, third order, and near
    the fitted curve one step proves the bound below at every K.  With
    q >= 2 the seed is the nearest observation point's value, about
    |grad m| D / 2 off, and a block usually takes two steps.  Each point
    solves f(mu) = sum_j w_j (y_j - sigma(g_j + mu)) = 0, where f' = -sum w
    sigma (1 - sigma) < 0 and |f''| <= |f'|, so |f'| changes by at most a
    factor e^|d| over a move d.  After a step s, Taylor's theorem gives
    |f(mu + s)| <= 1/2 s^2 e^|s| |f'(mu + s)|, and the same factor puts the
    root within -log(1 - 1/2 s^2 e^|s|) of mu + s.  The block stops once its
    largest step s has s^2 e^(2s) <= ``_POINT_TOL``, which bounds every
    point's remaining error by 1/2 ``_POINT_TOL``, without a pass that only
    confirms it; a step clipped at the cap never meets the rule.  On a pass
    where some step is clipped, the signs of the steps bracket every root
    between the values such passes visited, and a clipped step that would
    leave its bracket goes to the bracket's midpoint instead
    (:func:`_bracketed_step`), so clipped steps cannot cycle; a pass without
    a clipped step is plain Newton.  A query point that is not finite raises
    before any step.  The blocks stand alone and run on the pool; when
    several have a point without kernel weight, the first of them raises.
    """
    Tq = np.atleast_2d(np.asarray(Tq, dtype=np.float64))
    if Tq.shape[1] != data.q:
        raise ShapeError(f"query points must have dimension {data.q}")
    bad = np.flatnonzero(~np.isfinite(Tq).all(axis=1))
    if bad.size:
        raise InvalidPredictorError(f"query point {int(bad[0])} is not finite")
    cats = state.categories()
    if data.q == 1:
        order = np.argsort(data.t[:, 0], kind="stable")
        t_sorted = data.t[order, 0]
        first = np.diff(t_sorted, prepend=-np.inf) > 0.0    # first of each tie
        seeds = _interpolated(t_sorted[first], state.m[:, order[first]], Tq[:, 0])
    logits = [_Logistic(_fixed_logit_parts(data, state, row)[0])
              for row in range(len(cats))]
    Y = (data.y[:, None] == cats) * 1.0     # y_k, a column per category
    mu = np.empty((len(cats), Tq.shape[0]))

    def solve_block(bounds):
        start, stop = bounds
        W = _scratch("weights", (stop - start, data.n))
        with np.errstate(over="ignore"):     # a distance that overflows weighs 0
            _cross_weights(kernel, Tq[start:stop], data.t, out=W)
        # the most-weighted (nearest) observation point seeds q >= 2; the
        # weights are >= 0, so a point whose largest is 0 has none
        nearest = np.argmax(W, axis=1)
        empty = np.flatnonzero(W[np.arange(stop - start), nearest] == 0.0)
        if empty.size:
            raise NoLocalDataError("all kernel weights vanished at query point "
                                   f"{start + int(empty[0])}")
        Wy = np.dot(W, Y)      # W y_k, fixed across the passes
        block_seeds = seeds[:, start:stop] if data.q == 1 else state.m[:, nearest]
        for row, mub in enumerate(block_seeds):
            bracket = None
            for _ in range(_BURNIN_SWEEPS):
                newton = _local_steps(W, Wy[:, row], logits[row], mub)
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
    fixed), seeded by the parabola through the fitted m at three
    neighbouring distinct t values when there is one smooth covariate (an
    error of third order in their spacing) and by the nearest observation
    point's value otherwise; the probabilities then follow from the
    softmax of the new predictors.
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
    _check_fit(data, fit.kernel, fit.smooth)
    eta = np.zeros((T_new.shape[0], data.n_categories))
    m_new = _solve_m_at_points(data, fit.smooth, fit.kernel, T_new)
    for row, k in enumerate(fit.categories):
        eta[:, int(k) - 1] = x_fixed @ fit.beta[row] + m_new[row]
    return softmax_probabilities(eta)
