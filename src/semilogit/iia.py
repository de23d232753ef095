"""Hausman-McFadden and Small-Hsiao tests of the IIA assumption.

Both tests compare the parametric MNL fitted on all categories with a
refit on the subsample that excludes one category: under independence of
irrelevant alternatives the shared coefficients should not move.  The
Hausman-McFadden statistic may come out negative in finite samples (the
difference of covariance matrices need not be positive definite); it is
reported as computed, with a note, rather than clamped.  A note also
names each fit behind a statistic that did not converge.  A batch over
the drops shares one full-sample fit (Hausman-McFadden) or one pair of
half-sample fits (Small-Hsiao); each drop adds one restricted fit.

The chi-square upper tail is computed in-package from the regularized
incomplete gamma function (series for small arguments, Lentz continued
fraction otherwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, nonreference_categories
from .exceptions import ConfigError, InsufficientDataError
from .parametric import coefficient_log_likelihood, fit_parametric

_SQRT_HALF = 1.0 / math.sqrt(2.0)
_GAMMA_TOL = 1e-16
_GAMMA_MAX_ITER = 1000


# --------------------------------------------------------------------------
# chi-square tail via regularized incomplete gamma
# --------------------------------------------------------------------------

def _gamma_p_series(a: float, x: float) -> float:
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(_GAMMA_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _GAMMA_TOL:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q_continued_fraction(a: float, x: float) -> float:
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_TOL:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def regularized_gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x), for a > 0, x >= 0."""
    if a <= 0:
        raise ConfigError(f"shape parameter must be positive, got {a}")
    if x < 0:
        raise ConfigError(f"argument must be nonnegative, got {x}")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _gamma_p_series(a, x)
    return 1.0 - _gamma_q_continued_fraction(a, x)


def chi_square_upper_tail(statistic: float, df: int) -> float:
    """P(chi2_df > statistic); returns 1 for nonpositive statistics."""
    if df < 1:
        raise ConfigError(f"degrees of freedom must be >= 1, got {df}")
    if statistic <= 0.0:
        return 1.0
    a, x = 0.5 * df, 0.5 * statistic
    if x < a + 1.0:
        return 1.0 - _gamma_p_series(a, x)
    return _gamma_q_continued_fraction(a, x)


# --------------------------------------------------------------------------
# the tests
# --------------------------------------------------------------------------

@dataclass
class IIATestResult:
    statistic: float
    df: int
    p_value: float
    dropped_category: int
    method: str
    note: str = ""


def _drop_category(data: Dataset, drop: int, reference: int):
    """Subsample without category ``drop``, relabelled to 1..K-1, and the
    relabelled reference."""
    keep_rows = data.y != drop
    kept = np.array([k for k in range(1, data.n_categories + 1) if k != drop])
    new_y = np.searchsorted(kept, data.y[keep_rows]) + 1
    labels = tuple(data.labels[k - 1] for k in kept) if data.labels else ()
    restricted = Dataset(y=new_y, x=data.x[keep_rows], t=data.t[keep_rows],
                         n_categories=data.n_categories - 1, labels=labels)
    return restricted, int(np.searchsorted(kept, reference) + 1)


def _check_drop(data, drop, reference):
    if data.n_categories < 3:
        raise ConfigError("IIA tests need at least 3 categories")
    if drop == reference:
        raise ConfigError("cannot drop the reference category")
    if not 1 <= drop <= data.n_categories:
        raise ConfigError(f"drop category {drop} outside 1..{data.n_categories}")


def _entry(method, drop, statistic, df, notes, *fits):
    """One drop's result; each (name, fit) that did not converge adds a note."""
    notes = notes + [f"{name} fit did not converge" for name, f in fits if not f.converged]
    return IIATestResult(statistic=statistic, df=df,
                         p_value=chi_square_upper_tail(statistic, df),
                         dropped_category=drop, method=method, note="; ".join(notes))


def _hausman_mcfadden(data, reference):
    """The test of each drop, against one full-sample fit made here."""
    full = fit_parametric(data, reference=reference)

    def test(drop):
        restricted_data, new_ref = _drop_category(data, drop, reference)
        restricted = fit_parametric(restricted_data, reference=new_ref)
        rows = np.flatnonzero(full.categories != drop)   # rows the drop keeps
        flat = np.arange(full.vcov.shape[0]).reshape(full.coefficients.shape)[rows].ravel()
        d = restricted.coefficients.ravel() - full.coefficients[rows].ravel()
        V = restricted.vcov - full.vcov[np.ix_(flat, flat)]
        notes = []
        try:
            np.linalg.cholesky(V)
            statistic = float(d @ np.linalg.solve(V, d))
        except np.linalg.LinAlgError:
            statistic = float(d @ np.linalg.pinv(V) @ d)
            notes.append("covariance difference not positive definite; "
                         "generalized inverse used")
        if statistic < 0:
            notes.append("negative statistic (finite-sample pathology)")
        return _entry("HausmanMcFadden", drop, statistic, d.size, notes,
                      ("full", full), ("restricted", restricted))
    return test


def hausman_mcfadden(data: Dataset, drop: int, *,
                     reference: int | None = None) -> IIATestResult:
    """Hausman-McFadden IIA test dropping one non-reference category.

    statistic = d' (V_r - V_f)^{-1} d over the shared coefficients, where
    d is the restricted-minus-full coefficient difference.  When the
    covariance difference is not positive definite, a generalized inverse
    is used and the result carries a note.
    """
    reference = data.n_categories if reference is None else reference
    _check_drop(data, drop, reference)
    return _hausman_mcfadden(data, reference)(drop)


def _small_hsiao(data, seed, reference):
    """The test of each drop, against one pair of half-sample fits made here."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    perm = rng.permutation(data.n)
    half_a = data.subset(np.sort(perm[:data.n // 2]))
    half_b = data.subset(np.sort(perm[data.n // 2:]))
    for half, name in ((half_a, "A"), (half_b, "B")):
        if np.any(half.category_counts() == 0):
            raise InsufficientDataError(
                f"half-sample {name} lost a category; need more data")

    fit_a = fit_parametric(half_a, reference=reference)
    fit_b = fit_parametric(half_b, reference=reference)
    blend = _SQRT_HALF * fit_a.coefficients + (1.0 - _SQRT_HALF) * fit_b.coefficients

    def test(drop):
        restricted_b, new_ref = _drop_category(half_b, drop, reference)
        rows = np.flatnonzero(fit_b.categories != drop)
        ll_blend = coefficient_log_likelihood(restricted_b, blend[rows], new_ref)
        refit = fit_parametric(restricted_b, reference=new_ref)
        return _entry("SmallHsiao", drop, float(-2.0 * (ll_blend - refit.loglik)),
                      refit.coefficients.size, [], ("half-sample A", fit_a),
                      ("half-sample B", fit_b), ("restricted", refit))
    return test


def small_hsiao(data: Dataset, drop: int, seed: int, *,
                reference: int | None = None) -> IIATestResult:
    """Small-Hsiao IIA test with a seeded random half-split.

    Full-model fits on both halves are blended as
    ``beta_AB = beta_A / sqrt(2) + (1 - 1/sqrt(2)) beta_B``; the statistic
    is the likelihood-ratio distance, on the restricted half-B sample,
    between that blend and the restricted refit.
    """
    reference = data.n_categories if reference is None else reference
    _check_drop(data, drop, reference)
    return _small_hsiao(data, seed, reference)(drop)


def iia_all_permutations(data: Dataset, method: str, seed: int = 0, *,
                         reference: int | None = None) -> list:
    """Run one IIA test per eligible dropped category.

    Individual failures become entries with NaN statistics and the error
    message in the note; they do not abort the batch.  A shared fit that
    fails is made again for the next drop, so each entry reads as the
    single-drop call would.
    """
    reference = data.n_categories if reference is None else reference
    tests = {"HausmanMcFadden": lambda: _hausman_mcfadden(data, reference),
             "SmallHsiao": lambda: _small_hsiao(data, seed, reference)}
    if method not in tests:
        raise ConfigError(f"unknown IIA test method {method!r}")
    results, test = [], None
    for drop in nonreference_categories(data.n_categories, reference):
        try:
            if test is None:
                _check_drop(data, int(drop), reference)
                test = tests[method]()
            res = test(int(drop))
        except Exception as err:  # per-entry failure, not fatal
            res = IIATestResult(statistic=float("nan"), df=0,
                                p_value=float("nan"), dropped_category=int(drop),
                                method=method, note=f"failed: {err}")
        results.append(res)
    return results
