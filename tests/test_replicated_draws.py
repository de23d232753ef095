"""Replicated-draw checks: over R independent draws every fit converges
without a warning, and the standard errors match the spread of beta-hat.
The bounds come from R alone, never from the values seen: sd/se within
1 +- 3 / sqrt(2R), and the coverage of the 95 % intervals at least
0.95 - 3 sqrt(0.0475 / R), three Monte Carlo standard errors each, for
every coefficient."""

import numpy as np
import pytest

from semilogit import bandwidth_from_scale, fit_semiparametric
from conftest import q2_draw, sine_dgp

TRUE_BETA = {sine_dgp: np.array([1.0, -0.5, 0.3]),
             q2_draw: np.array([1.0, -0.5, 0.3, 0.6])}


def check_calibration(draw, K, n, R, converges=True):
    """Fit ``draw(K, n, s)`` on the seeds s = 5001, ..., 5000 + R at kernel
    scale 0.5 and check every fit and the calibration of ``beta_se``."""
    betas, ses = [], []
    for seed in range(5001, 5001 + R):
        data = draw(K, n, seed)
        fit = fit_semiparametric(data, bandwidth_from_scale(data.t, 0.5))
        if converges:
            assert fit.converged and fit.warnings == [], (seed, fit.warnings)
        betas.append(fit.beta[:, 0])
        ses.append(fit.beta_se[:, 0])
    betas, ses = np.array(betas), np.array(ses)
    ratio = betas.std(axis=0, ddof=1) / np.sqrt(np.mean(ses ** 2, axis=0))
    cover = np.mean(np.abs(betas - TRUE_BETA[draw][:K - 1]) <= 1.96 * ses, axis=0)
    assert np.all(np.abs(ratio - 1.0) <= 3.0 / np.sqrt(2 * R)), ratio
    assert np.all(cover >= 0.95 - 3.0 * np.sqrt(0.0475 / R)), cover


@pytest.mark.slow
def test_k2_standard_errors_are_calibrated():
    # about 0.1 s per fit on two cores
    check_calibration(sine_dgp, 2, 2000, 100)


# 3 to 30 s per cell on two cores.  At K = 3, q = 1 three of these draws
# (5027, 5099, 5100) stop on the exhausted trace guard (ROADMAP item 1),
# so that cell checks the standard errors of every fit but not convergence.
@pytest.mark.slow
@pytest.mark.parametrize("draw, K, converges", [
    (sine_dgp, 3, False), (sine_dgp, 4, True),
    (q2_draw, 2, True), (q2_draw, 3, True), (q2_draw, 4, True),
], ids=["q1-K3", "q1-K4", "q2-K2", "q2-K3", "q2-K4"])
def test_standard_errors_are_calibrated(draw, K, converges):
    check_calibration(draw, K, 800, 100, converges)
