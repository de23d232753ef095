"""Replicated-draw checks: over R independent draws every fit converges
without a warning, and the standard errors match the spread of beta-hat.
The bounds come from R alone, never from the values seen: sd/se within
1 +- 3 / sqrt(2R), and the coverage of the 95 % intervals at least
0.95 - 3 sqrt(0.0475 / R), three Monte Carlo standard errors each."""

import numpy as np
import pytest

from semilogit import bandwidth_from_scale, fit_semiparametric
from conftest import sine_dgp


@pytest.mark.slow
def test_k2_standard_errors_are_calibrated():
    # about 0.1 s per fit on two cores
    R, true_beta = 100, 1.0
    betas, ses = [], []
    for seed in range(5001, 5001 + R):
        data = sine_dgp(2, 2000, seed)
        fit = fit_semiparametric(data, bandwidth_from_scale(data.t, 0.5))
        assert fit.converged and fit.warnings == [], (seed, fit.warnings)
        betas.append(fit.beta[0, 0])
        ses.append(fit.beta_se[0, 0])
    betas, ses = np.array(betas), np.array(ses)
    ratio = betas.std(ddof=1) / np.sqrt(np.mean(ses ** 2))
    cover = np.mean(np.abs(betas - true_beta) <= 1.96 * ses)
    assert abs(ratio - 1.0) <= 3.0 / np.sqrt(2 * R), ratio
    assert cover >= 0.95 - 3.0 * np.sqrt(0.0475 / R), cover
