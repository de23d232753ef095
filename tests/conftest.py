"""Shared builders for the test suite."""

import numpy as np
import pytest

from semilogit import DGPSpec, Dataset, KernelConfig, SmoothState, profile, simulate

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


def score_terms(data, cats, wcache):
    """W y_k of every category of ``cats``, one row each: the fixed part of
    the local scores, in a pass of its own over the weight triangle (a fit
    forms them in its first sweep)."""
    Y = (data.y[:, None] == cats) * 1.0
    return wcache.sums(Y.shape[1], lambda W, s, e, down: (
        np.dot(W.T, Y[s:e]) if down else np.dot(W, Y[s:]))).T


def cold_sweep(data, state, row, wcache, Wy=None):
    """Category ``row``'s m after one curve sweep at ``state``, its
    Jacobian pass made from J = 0; ``Wy`` is its row of
    :func:`score_terms`, made here when None."""
    if Wy is None:
        Wy = score_terms(data, state.categories(), wcache)[row]
    step, _ = profile._category_pass(data, state, row, wcache,
                                     cold_jacobian(data, state), Wy)
    return state.m[row] + step


MISMATCHES = ["kernel", "m", "beta"]


def mismatched(kernel, state, part):
    """``(kernel, state)`` with one ``part`` of :data:`MISMATCHES` made not
    to fit the data: the kernel given one more bandwidth than the data has
    smooth covariates, m one value less, or beta one column more."""
    if part == "kernel":
        return KernelConfig(np.append(kernel.bandwidths, 1.0)), state
    if part == "m":
        return kernel, SmoothState(state.beta, state.m[:, 1:], state.reference)
    return kernel, SmoothState(np.hstack([state.beta, state.beta]), state.m,
                               state.reference)


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


def integer_t(data):
    """``data`` with sine_dgp's t in whole units, like age in years: 40
    values, each tied about n / 40 times."""
    return Dataset(y=data.y, x=data.x, t=np.floor(10.0 * (data.t + 2.0)),
                   n_categories=data.n_categories)


def linear_q2_dgp(K, n, seed):
    """K categories with two smooth covariates t ~ (U(-2, 2), N(0, 1)):
    every smooth is 0.5 t1 - 0.3 t2, and beta is sine_dgp's."""
    return simulate(DGPSpec(
        n_categories=K, n=n, seed=seed, beta=[[1.0], [-0.5], [0.3]][:K - 1],
        smooth=tuple({"kind": "linear", "slopes": [0.5, -0.3]}
                     for _ in range(K - 1)),
        x_laws=({"kind": "normal"},),
        t_laws=({"kind": "uniform", "lo": -2.0, "hi": 2.0}, {"kind": "normal"})))


def q2_draw(K, n, seed):
    """K categories with two smooth covariates t ~ (U(-2, 2), N(0, 1)), the
    first K - 1 of a ridge interaction, a sine in t1 and two planes as
    smooths, and beta rows the first K - 1 of (1, -0.5, 0.3, 0.6).  At
    K = 5 it has the shape of the paper's application: about five
    parties, two smooth covariates."""
    smooth = ({"kind": "ridge-interaction", "a": 1.0},
              {"kind": "sine", "amplitude": 1.0, "frequency": 1.0},
              {"kind": "linear", "slopes": [0.5, -0.3]},
              {"kind": "linear", "slopes": [-0.3, 0.2]})[:K - 1]
    return simulate(DGPSpec(
        n_categories=K, n=n, seed=seed, beta=[[1.0], [-0.5], [0.3], [0.6]][:K - 1],
        smooth=smooth, x_laws=({"kind": "normal"},),
        t_laws=({"kind": "uniform", "lo": -2.0, "hi": 2.0}, {"kind": "normal"})))


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
    sweeps (passes given W y_k), "jacobian" the Jacobian-only passes."""
    counts = {"sweeps": 0, "jacobian": 0}
    real = profile._category_pass

    def counted(data, state, row, wcache, J, Wy=None):
        counts["jacobian" if Wy is None else "sweeps"] += 1
        return real(data, state, row, wcache, J, Wy)

    monkeypatch.setattr(profile, "_category_pass", counted)
    return counts


@pytest.fixture
def solve_log(monkeypatch, pass_counts):
    """Every curve and Jacobian solve made through ``profile._Solves``, in
    order, as a dict: its ``kind`` ("curve" or "jacobian"), copies of the
    ``beta`` and the starting ``m`` of its state, the ``given`` J, its
    ``tol``, the category ``passes`` it made, whether it was ``capped`` at
    ``_BURNIN_SWEEPS`` passes, and the ``J`` and the ``solved`` m it left."""
    log = []

    def record(kind):
        real = getattr(profile._Solves, kind)

        def recorded(solves, state, J=None, *tol):
            entry = {"kind": kind, "beta": state.beta.copy(), "m": state.m.copy(),
                     "given": J, "tol": tol[0] if tol else (
                         solves.tol if kind == "curve" else profile._JACOBIAN_TOL)}
            passes, capped = sum(pass_counts.values()), len(solves.capped)
            out = real(solves, state, J, *tol)
            entry.update(passes=sum(pass_counts.values()) - passes,
                         capped=len(solves.capped) > capped,
                         J=out[1] if kind == "curve" else out, solved=state.m.copy())
            log.append(entry)
            return out

        monkeypatch.setattr(profile._Solves, kind, recorded)

    record("curve")
    record("jacobian")
    return log
