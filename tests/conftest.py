"""Shared builders for the test suite."""

import numpy as np
import pytest

from semilogit import DGPSpec, Dataset, profile, simulate

# one line per acceptance criterion, printed after the run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def make_dgp(K=3, n=200, seed=0, p=2, kind="linear"):
    """A well-behaved parametric-ish DGP for fitter tests."""
    beta = np.linspace(-1.0, 1.0, (K - 1) * p).reshape(K - 1, p)
    if kind == "linear":
        smooth = tuple({"kind": "linear", "intercept": 0.3 * (j + 1) - 0.5,
                        "slopes": 0.4} for j in range(K - 1))
    else:
        smooth = tuple({"kind": "zero"} for _ in range(K - 1))
    x_laws = ({"kind": "normal"}, {"kind": "bernoulli", "p": 0.4})[:p]
    return DGPSpec(n_categories=K, n=n, seed=seed, beta=beta, smooth=smooth,
                   x_laws=x_laws,
                   t_laws=({"kind": "uniform", "lo": -1, "hi": 1},))


def random_state_dataset(seed, n=40, p=2, q=1, K=3):
    """Random dataset plus a random smooth-state for local-problem tests."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    t = rng.normal(size=(n, q))
    y = rng.integers(1, K + 1, size=n)
    data = Dataset(y=y, x=x, t=t, n_categories=K)
    beta = 0.5 * rng.normal(size=(K - 1, p))
    m = 0.3 * rng.normal(size=(K - 1, n))
    return data, beta, m


def cold_jacobian(data, state):
    """J = 0, the running dm/dbeta a fit's first curve solve starts from."""
    n_rows = state.m.shape[0]
    return np.zeros((n_rows, data.n, n_rows * data.p))


def cold_sweep(data, state, row, wcache):
    """Category ``row``'s m after one curve sweep at ``state``, its
    Jacobian pass made from J = 0."""
    y = (data.y == state.categories()[row]).astype(np.float64)
    step, _ = profile._category_pass(data, state, row, wcache,
                                     cold_jacobian(data, state), y)
    return state.m[row] + step


def sine_dgp(K, n, seed):
    """K categories: a sine curve and linear ones, beta near 1 in size."""
    smooth = ({"kind": "sine", "amplitude": 1.0, "frequency": 1.0},
              {"kind": "linear", "slopes": 0.5},
              {"kind": "linear", "slopes": -0.3})[:K - 1]
    beta = [[1.0], [-0.5], [0.3]][:K - 1]
    return simulate(DGPSpec(
        n_categories=K, n=n, seed=seed, beta=beta, smooth=smooth,
        x_laws=({"kind": "normal"},),
        t_laws=({"kind": "uniform", "lo": -2.0, "hi": 2.0},)))


@pytest.fixture
def small_binary_data():
    spec = DGPSpec(
        n_categories=2, n=120, seed=42, beta=[[1.2]],
        smooth=({"kind": "linear", "intercept": -0.3, "slopes": 0.5},),
        x_laws=({"kind": "normal"},),
        t_laws=({"kind": "uniform", "lo": -1, "hi": 1},))
    return simulate(spec)


@pytest.fixture
def pass_counts(monkeypatch):
    """Counts the profile fitter's category passes: "sweeps" are the curve
    sweeps (passes given y), "jacobian" the Jacobian-only passes."""
    counts = {"sweeps": 0, "jacobian": 0}
    real = profile._category_pass

    def counted(data, state, row, wcache, J, y=None):
        counts["jacobian" if y is None else "sweeps"] += 1
        return real(data, state, row, wcache, J, y)

    monkeypatch.setattr(profile, "_category_pass", counted)
    return counts
