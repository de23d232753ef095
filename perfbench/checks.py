"""Output checks made apart from the package, with numpy and scipy only.

Each function returns a list of failure messages (empty when the check
passes).  The kernel weights, local first-order conditions, true smooth
functions, MNL likelihood and chi-square tail are all computed here; the
package is called only where a check needs the package's own objective
(the profile log-likelihood of ``profile_stationarity``).
"""

from __future__ import annotations

import numpy as np
from scipy import optimize, stats

# Tolerances, set from the methods rather than from measured residuals:
FOC_TOL = 1e-6         # |sum_j w_ij (1{y_j=k} - p_jk)| / sum_j w_ij
BRENTQ_TOL = 1e-6      # |m from the surface - brentq root|
ROW_SUM_TOL = 1e-12    # |sum_k P_k - 1| per surface row
TRACE_SLACK = 1e-9     # the fitter's own monotone-trace guard tolerance
STATIONARY_TOL = 1e-3  # |central difference of the profile log-likelihood|
FD_STEP = 1e-4
SE_MULTIPLE = 5.0      # |beta_hat - beta_true| <= 5 SE
MNL_TOL = 1e-6         # |CLI coefficient - scipy MNL coefficient|
PVALUE_TOL = 1e-9      # relative, against scipy.stats.chi2.sf


def true_smooth(desc: dict, T: np.ndarray) -> np.ndarray:
    """The DGP's smooth function, written out from its description."""
    kind = desc["kind"]
    if kind == "zero":
        return np.zeros(T.shape[0])
    if kind == "linear":
        slopes = np.broadcast_to(np.atleast_1d(desc.get("slopes", 0.0)), (T.shape[1],))
        return desc.get("intercept", 0.0) + T @ slopes
    if kind == "sine":
        return desc.get("amplitude", 1.0) * np.sin(desc.get("frequency", 1.0) * T[:, 0])
    if kind == "ridge-interaction":
        return desc.get("a", 1.0) * T[:, 0] * T[:, 1]
    raise ValueError(f"unknown smooth kind {kind!r}")


def gaussian_weights(tq: np.ndarray, T: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Product Gaussian weights between query rows and observation rows,
    up to the constant factor that cancels in every ratio used here."""
    z = (tq[:, None, :] - T[None, :, :]) / h
    return np.exp(-0.5 * np.sum(z * z, axis=2))


def _local_probability(mu, k_row, X, beta, m, cats, K):
    """p_jk at every observation j with m_k replaced by the scalar mu and
    the other categories at their own observation-point values."""
    eta = np.zeros((X.shape[0], K))
    eta[:, cats - 1] = X @ beta.T + m.T
    eta[:, cats[k_row] - 1] = X @ beta[k_row] + mu
    eta -= eta.max(axis=1, keepdims=True)
    w = np.exp(eta)
    return w[:, cats[k_row] - 1] / w.sum(axis=1)


def local_condition(mu, tq, k_row, y, X, T, beta, m, cats, K, h):
    """Normalised local score sum_j w_j (1{y_j=k} - p_jk(mu)) / sum_j w_j."""
    w = gaussian_weights(np.atleast_2d(tq), T, h)[0]
    p = _local_probability(mu, k_row, X, beta, m, cats, K)
    return float(w @ ((y == cats[k_row]) - p) / w.sum())


def local_foc(y, X, T, beta, m, cats, K, h, idx) -> list:
    """The fitted m solves the local first-order condition at obs points idx."""
    worst = 0.0
    for i in idx:
        for r in range(len(cats)):
            worst = max(worst, abs(local_condition(m[r, i], T[i], r, y, X, T,
                                                   beta, m, cats, K, h)))
    return [] if worst <= FOC_TOL else [f"local FOC residual {worst:.2e} > {FOC_TOL:g}"]


def surface_checks(P, Tq, x_fixed, y, X, T, beta, m, cats, K, h, idx) -> list:
    """Rows sum to 1, and m recovered from the surface is a brentq root of
    the local condition at the sampled grid points idx."""
    fails = []
    dev = float(np.abs(P.sum(axis=1) - 1.0).max())
    if not dev <= ROW_SUM_TOL:
        fails.append(f"surface rows sum to 1 within {dev:.1e}")
    ref = np.setdiff1d(np.arange(1, K + 1), cats)[0]
    worst = 0.0
    for g in idx:
        for r, k in enumerate(cats):
            m_surface = np.log(P[g, k - 1] / P[g, ref - 1]) - x_fixed @ beta[r]
            f = lambda mu: local_condition(mu, Tq[g], r, y, X, T, beta, m, cats, K, h)
            lo, hi = m_surface - 1.0, m_surface + 1.0
            while f(lo) < 0.0:
                lo -= 2.0 * (hi - lo)
            while f(hi) > 0.0:
                hi += 2.0 * (hi - lo)
            root = optimize.brentq(f, lo, hi, xtol=1e-13, rtol=1e-14)
            worst = max(worst, abs(m_surface - root))
    if not worst <= BRENTQ_TOL:
        fails.append(f"surface m differs from brentq root by {worst:.2e}")
    return fails


def trace_nondecreasing(trace) -> list:
    """No step falls by more than the guard's slack, plus the rounding of
    the guard's own comparison at the trace's magnitude."""
    trace = np.asarray(trace, dtype=float)
    slack = TRACE_SLACK + 4.0 * np.finfo(float).eps * float(np.abs(trace).max(initial=0.0))
    drop = float(np.min(np.diff(trace), initial=0.0))
    return [] if drop >= -slack else [f"log-likelihood trace fell by {-drop:.2e}"]


def recovery(m_hat, m_true, beta_hat, beta_se, beta_true, rmse_max) -> list:
    """RMSE of m_hat against the true curves, and beta_hat within a few SEs."""
    fails = []
    rmse = float(np.sqrt(np.mean((m_hat - m_true) ** 2)))
    if not rmse <= rmse_max:
        fails.append(f"m RMSE {rmse:.3f} > {rmse_max}")
    z = np.abs(beta_hat - beta_true) / beta_se
    if not np.all(z <= SE_MULTIPLE):
        fails.append(f"beta off by {float(np.max(z)):.1f} SE")
    return fails


def profile_stationarity(profile_loglik, beta) -> list:
    """The central difference of the profile log-likelihood at the returned
    beta is near 0, i.e. the fitter stopped at a stationary point of the
    objective it records."""
    grad = np.zeros_like(beta)
    for idx in np.ndindex(beta.shape):
        up, down = beta.copy(), beta.copy()
        up[idx] += FD_STEP
        down[idx] -= FD_STEP
        grad[idx] = (profile_loglik(up) - profile_loglik(down)) / (2.0 * FD_STEP)
    worst = float(np.abs(grad).max())
    return [] if worst <= STATIONARY_TOL else [
        f"profile not stationary: |d loglik / d beta| = {worst:.3g}"]


def _mnl_parts(theta, Z, y, cats, K):
    """Negative log-likelihood and the non-reference probabilities."""
    eta = np.zeros((Z.shape[0], K))
    eta[:, cats - 1] = Z @ theta.reshape(len(cats), -1).T
    eta -= eta.max(axis=1, keepdims=True)
    lse = np.log(np.exp(eta).sum(axis=1))
    nll = -float(np.sum(eta[np.arange(len(y)), y - 1] - lse))
    return nll, np.exp(eta - lse[:, None])[:, cats - 1]


def scipy_mnl(y, Z, K, reference) -> np.ndarray:
    """Parametric MNL maximum likelihood by scipy's trust-region Newton."""
    cats = np.setdiff1d(np.arange(1, K + 1), [reference])
    Y1h = (y[:, None] == cats[None, :]).astype(float)
    q = Z.shape[1]

    def fun(theta):
        return _mnl_parts(theta, Z, y, cats, K)[0]

    def jac(theta):
        P = _mnl_parts(theta, Z, y, cats, K)[1]
        return -((Y1h - P).T @ Z).ravel()

    def hess(theta):
        P = _mnl_parts(theta, Z, y, cats, K)[1]
        H = np.empty((len(cats) * q, len(cats) * q))
        for a in range(len(cats)):
            for b in range(len(cats)):
                w = P[:, a] * ((a == b) - P[:, b])
                H[a * q:(a + 1) * q, b * q:(b + 1) * q] = Z.T @ (w[:, None] * Z)
        return H

    res = optimize.minimize(fun, np.zeros(len(cats) * q), jac=jac, hess=hess,
                            method="trust-exact", options={"gtol": 1e-8})
    return res.x.reshape(len(cats), q)


def mnl_match(coef, y, Z, K, reference) -> list:
    ref = scipy_mnl(y, Z, K, reference)
    dev = float(np.abs(coef - ref).max())
    return [] if dev <= MNL_TOL else [f"coefficients differ from scipy MNL by {dev:.2e}"]


def iia_rows(rows) -> list:
    """p-values equal chi2.sf(stat, df); Small-Hsiao statistics are >= 0."""
    fails = []
    for r in rows:
        stat, df, p = float(r["statistic"]), int(r["df"]), float(r["p_value"])
        ref = float(stats.chi2.sf(stat, df))
        if not abs(p - ref) <= PVALUE_TOL * max(ref, 1e-300):
            fails.append(f"{r['method']} drop {r['dropped_category']}: p {p!r} vs chi2.sf {ref!r}")
        if r["method"] == "SmallHsiao" and not stat >= 0.0:
            fails.append(f"Small-Hsiao statistic {stat!r} < 0")
    return fails
