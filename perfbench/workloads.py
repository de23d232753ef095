"""The four workloads: how each makes its inputs, runs one round of
operations, and checks every operation's outputs.

A round is a fixed list of operations.  Each operation is timed alone and
recorded as a dict with its ``kind`` (``fit``, ``surface`` or a CLI
subcommand), ``s`` (wall seconds) and the outputs its checks need.  The
package is called through module attributes (``profile.fit_semiparametric``
and so on), so that the wrappers of ``tracing.py`` see every call.
"""

from __future__ import annotations

import csv
import json
import shutil
import time
from pathlib import Path

import numpy as np

import checks
from semilogit import cli, kernels, profile, synthesis
from semilogit.core import Dataset

_NORMAL = {"kind": "normal"}
_T_LAW = {"kind": "uniform", "lo": -2.0, "hi": 2.0}
_SINE = {"kind": "sine", "amplitude": 1.0, "frequency": 1.0}
_LINEAR = {"kind": "linear", "slopes": 0.5}

FOC_POINTS = 24       # observation points per fit for the local FOC check
BRENTQ_POINTS = 6     # grid points per surface for the brentq check


def sub_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed for one round's inputs, derived from the run's seed."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def _sample(seed, n, size, *keys):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7, *keys]))
    return np.sort(rng.choice(n, size=min(size, n), replace=False))


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


# --------------------------------------------------------------------------
# library workloads: fit_semiparametric, then predict_surface
# --------------------------------------------------------------------------

class LibraryWorkload:
    """Semiparametric fits through the library API, each followed by
    probability surfaces over a 1-D grid of t, one per fixed x value.  The
    surfaces cost the same at every x, so their median is steadier than
    a single call's time."""

    surface_xs = (-0.5, 0.5, 1.5)

    def __init__(self, name, n, n_categories, grid_points, rmse_max,
                 quick_n, fixed_dgp_seeds=None):
        self.name = name
        self.n = n
        self.K = n_categories
        self.grid_points = grid_points
        self.rmse_max = rmse_max
        self.quick_n = quick_n
        # When set, every run fits the same datasets, whatever --seed says.
        self.fixed_dgp_seeds = fixed_dgp_seeds

    def specs(self, seed, round_index, quick):
        n = self.quick_n if quick else self.n
        smooth = (_SINE, _LINEAR)[:self.K - 1]
        beta = [[1.0], [-0.5]][:self.K - 1]
        dgp_seeds = self.fixed_dgp_seeds or [sub_seed(seed, round_index)]
        return [synthesis.DGPSpec(n_categories=self.K, n=n, seed=s, beta=beta,
                                  smooth=smooth, x_laws=(_NORMAL,),
                                  t_laws=(_T_LAW,))
                for s in dgp_seeds]

    def make_inputs(self, seed, round_index, quick):
        items = []
        for spec in self.specs(seed, round_index, quick):
            data = synthesis.simulate(spec)
            kernel = kernels.bandwidth_from_scale(data.t, 0.5)
            items.append({"spec": spec, "data": data, "kernel": kernel})
        offset = np.random.default_rng(sub_seed(seed, round_index, 1)).uniform(0, 0.05)
        grid = np.linspace(-1.9 + offset, 1.9 - offset, self.grid_points)[:, None]
        return {"items": items, "grid": grid, "seed": seed, "round": round_index}

    def run_round(self, inputs, workdir):
        ops = []
        for j, item in enumerate(inputs["items"]):
            fit, s = _timed(profile.fit_semiparametric, item["data"], item["kernel"])
            ops.append({"kind": "fit", "s": s, "item": j, "fit": fit,
                        "note": f"{fit.iterations} iterations"})
            for x in self.surface_xs:
                P, s = _timed(profile.predict_surface, fit, item["data"],
                              inputs["grid"], np.array([x]))
                ops.append({"kind": "surface", "s": s, "item": j, "fit": fit,
                            "x": x, "P": P, "points": inputs["grid"].shape[0]})
        return ops

    def same_outputs(self, a, b):
        if a["kind"] == "fit":
            return (np.array_equal(a["fit"].beta, b["fit"].beta)
                    and np.array_equal(a["fit"].smooth.m, b["fit"].smooth.m))
        return np.array_equal(a["P"], b["P"])

    def check(self, inputs, op):
        item = inputs["items"][op["item"]]
        data, kernel, spec, fit = item["data"], item["kernel"], item["spec"], op["fit"]
        args = (data.y, data.x, data.t, fit.beta, fit.smooth.m, fit.categories,
                data.n_categories, kernel.bandwidths)
        keys = (inputs["round"], op["item"])
        if op["kind"] == "surface":
            idx = _sample(inputs["seed"], op["points"], BRENTQ_POINTS, 2, *keys)
            return checks.surface_checks(op["P"], inputs["grid"], np.array([op["x"]]),
                                         *args, idx)
        m_true = np.vstack([checks.true_smooth(d, data.t) for d in spec.smooth])
        fails = checks.local_foc(*args, _sample(inputs["seed"], data.n,
                                                FOC_POINTS, 1, *keys))
        fails += checks.trace_nondecreasing(fit.loglik_trace)
        fails += checks.recovery(fit.smooth.m, m_true, fit.beta, fit.beta_se,
                                 spec.beta, self.rmse_max)
        fails += checks.profile_stationarity(
            lambda b: profile_loglik(data, kernel, fit.smooth.m, fit.reference, b),
            fit.beta)
        return fails


def profile_loglik(data, kernel, m, reference, beta):
    """The package's recorded profile log-likelihood at another beta: the
    fitter re-solves m from the given start and stops before any step."""
    start = profile.SmoothState(beta, m, reference)
    return profile.fit_semiparametric(data, kernel, reference=reference,
                                      start=start, max_iter=0).loglik


# --------------------------------------------------------------------------
# CLI workload: two JSON configs through semilogit.cli.main
# --------------------------------------------------------------------------

# Simulate and config seeds of the parametric config (b), the same in
# every run.  On this dataset and half-split, one Small-Hsiao refit stalls
# at max_iter with about 20 step-halvings per iteration: the absolute
# _LL_SLACK of parametric.py is below the rounding of a 10000-term
# log-likelihood sum.  It showed on one of about seventy draws tried, so a
# seeded draw would make iia-test time bimodal across runs; a fixed draw
# keeps the fault in every round, where fixing it must move round_s.
PARAMETRIC_SEEDS = (1596810412, 1596810411)


class CliWorkload:
    """(a) semiparametric K=2, q=2: simulate -> fit -> surface, drawn from
    the run's seed; (b) parametric K=4, p=2, q=1 on a fixed draw:
    fit -> iia-test with both methods."""

    name = "cli-pipeline"
    grid_steps = 40
    rmse_max = 0.6

    def configs(self, seed, round_index, quick):
        s = sub_seed(seed, round_index)
        semi = {
            "simulate": {
                "n_categories": 2, "n": 300 if quick else 1500, "seed": s,
                "beta": [[0.7]], "smooth": [{"kind": "ridge-interaction", "a": 0.8}],
                "x_laws": [_NORMAL], "t_laws": [_T_LAW, _T_LAW]},
            "model": "semiparametric", "kernel": {"scale": 0.6}, "seed": s,
            "surface": {
                "axes": [{"name": "t1", "lo": -1.5, "hi": 1.5,
                          "steps": 8 if quick else self.grid_steps},
                         {"name": "t2", "lo": -1.5, "hi": 1.5,
                          "steps": 8 if quick else self.grid_steps}],
                "fixed": {"x1": 1.0}},
        }
        par = {
            "simulate": {
                "n_categories": 4, "n": 2000 if quick else 20000,
                "seed": PARAMETRIC_SEEDS[0],
                "beta": [[0.8, -0.5], [-0.6, 0.4], [0.3, 0.9]],
                "smooth": [{"kind": "linear", "intercept": 0.2, "slopes": 0.5},
                           {"kind": "linear", "intercept": -0.3, "slopes": -0.4},
                           {"kind": "linear", "intercept": 0.1, "slopes": 0.2}],
                "x_laws": [_NORMAL, {"kind": "bernoulli", "p": 0.4}],
                "t_laws": [_T_LAW]},
            "model": "parametric", "seed": PARAMETRIC_SEEDS[1],
            "iia": {"method": "both"},
        }
        return semi, par

    def make_inputs(self, seed, round_index, quick):
        semi, par = self.configs(seed, round_index, quick)
        return {"semi": semi, "par": par, "seed": seed, "round": round_index}

    def run_round(self, inputs, workdir):
        work = Path(workdir) / f"round-{inputs['round']}"
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        a, b = work / "semi.json", work / "par.json"
        a.write_text(json.dumps(inputs["semi"]))
        b.write_text(json.dumps(inputs["par"]))
        steps = [
            ("simulate", ["simulate", "--config", a, "--out", work / "sim"], work / "sim"),
            ("fit", ["fit", "--config", a, "--out", work / "fit"], work / "fit"),
            ("surface", ["surface", "--config", a, "--fit-dir", work / "fit",
                         "--out", work / "surf"], work / "surf"),
            ("parametric-fit", ["fit", "--config", b, "--out", work / "pfit"], work / "pfit"),
            ("iia-test", ["iia-test", "--config", b, "--out", work / "iia"], work / "iia"),
        ]
        ops = []
        for kind, argv, out in steps:
            code, s = _timed(cli.main, [str(v) for v in argv])
            op = {"kind": kind, "s": s, "code": code, "dir": out,
                  "bytes": sum(f.stat().st_size for f in out.iterdir())}
            if kind == "surface":
                op["points"] = self.grid_points(inputs)
            ops.append(op)
        return ops

    def grid_points(self, inputs):
        axes = inputs["semi"]["surface"]["axes"]
        return axes[0]["steps"] * axes[1]["steps"]

    def same_outputs(self, a, b):
        return all((a["dir"] / f.name).read_bytes() == f.read_bytes()
                   for f in b["dir"].iterdir())

    def check(self, inputs, op):
        if op["code"] != 0:
            return [f"{op['kind']} exited with {op['code']}"]
        kind, work = op["kind"], op["dir"].parent
        if kind == "simulate":
            n = len(_read_csv(op["dir"] / "data.csv"))
            want = inputs["semi"]["simulate"]["n"]
            return [] if n == want else [f"data.csv has {n} rows, want {want}"]
        if kind == "fit":
            return self._check_semi_fit(inputs, work)
        if kind == "surface":
            return self._check_surface(inputs, work)
        if kind == "parametric-fit":
            return self._check_parametric(inputs, op["dir"])
        rows = _read_csv(op["dir"] / "iia_results.csv")
        fails = checks.iia_rows(rows)
        if len(rows) != 6:
            fails.append(f"iia_results.csv has {len(rows)} rows, want 6")
        return fails

    @staticmethod
    def _state(work):
        s = json.loads((work / "fit" / "fit_state.json").read_text())
        arr = lambda rows: np.array([[float(v) for v in r] for r in rows])
        return s, np.array(s["y"]), arr(s["x"]), arr(s["t"]), arr(s["beta"]), arr(s["m"])

    def _check_semi_fit(self, inputs, work):
        s, y, X, T, beta, m = self._state(work)
        fails = []
        # 17-digit artifacts: the fit's copy of the data equals simulate's.
        sim = _read_csv(work / "sim" / "data.csv")
        if not (np.array_equal(X[:, 0], [float(r["x1"]) for r in sim])
                and np.array_equal(T, [[float(r["t1"]), float(r["t2"])] for r in sim])
                and np.array_equal(y, [int(r["y"]) for r in sim])):
            fails.append("fit_state.json data differs from simulate's data.csv")
        h = np.array([float(v) for v in s["bandwidths"]])
        cats = np.array([1])
        idx = _sample(inputs["seed"], len(y), FOC_POINTS, 3, inputs["round"])
        fails += checks.local_foc(y, X, T, beta, m, cats, 2, h, idx)
        trace = [float(r["loglik"]) for r in _read_csv(work / "fit" / "loglik_trace.csv")]
        fails += checks.trace_nondecreasing(trace)
        coef = _read_csv(work / "fit" / "coefficients.csv")
        se = np.array([[float(r["std_error"]) for r in coef]])
        dgp = inputs["semi"]["simulate"]
        m_true = checks.true_smooth(dgp["smooth"][0], T)[None, :]
        fails += checks.recovery(m, m_true, beta, se, np.array(dgp["beta"]), self.rmse_max)
        data = Dataset(y=y, x=X, t=T, n_categories=2)
        kernel = kernels.KernelConfig(bandwidths=h)
        fails += checks.profile_stationarity(
            lambda b: profile_loglik(data, kernel, m, 2, b), beta)
        return fails

    def _check_surface(self, inputs, work):
        s, y, X, T, beta, m = self._state(work)
        rows = _read_csv(work / "surf" / "surface.csv")
        G = self.grid_points(inputs)
        if len(rows) != 2 * G:
            return [f"surface.csv has {len(rows)} rows, want {2 * G}"]
        P = np.array([float(r["probability"]) for r in rows]).reshape(G, 2)
        Tq = np.array([[float(r["t1"]), float(r["t2"])] for r in rows[::2]])
        h = np.array([float(v) for v in s["bandwidths"]])
        idx = _sample(inputs["seed"], G, BRENTQ_POINTS, 4, inputs["round"])
        return checks.surface_checks(P, Tq, np.array([1.0]), y, X, T, beta, m,
                                     np.array([1]), 2, h, idx)

    def _check_parametric(self, inputs, out):
        spec = synthesis.DGPSpec.from_dict(inputs["par"]["simulate"])
        data = synthesis.simulate(spec)
        rows = _read_csv(out / "coefficients.csv")
        K = data.n_categories
        coef = np.array([float(r["estimate"]) for r in rows]).reshape(K - 1, -1)
        Z = np.hstack([np.ones((data.n, 1)), data.x, data.t])
        return checks.mnl_match(coef, data.y, Z, K, K)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


WORKLOADS = {
    w.name: w for w in [
        LibraryWorkload("k2-cached", n=5000, n_categories=2, grid_points=2000,
                        rmse_max=0.3, quick_n=300),
        LibraryWorkload("k2-uncached", n=6100, n_categories=2, grid_points=1000,
                        rmse_max=0.3, quick_n=400),
        LibraryWorkload("k3-curve", n=800, n_categories=3, grid_points=400,
                        rmse_max=0.6, quick_n=250, fixed_dgp_seeds=[1, 3, 5]),
        CliWorkload(),
    ]
}

# The fault that ROADMAP item 2 names: at K >= 3 the fitter drops the
# cross-category terms of the profile score, so its fits stop away from a
# stationary point of the profile log-likelihood they record.  These are
# the only failures a run may contain without being incorrect.
KNOWN_FAULT = ("k3-curve", "fit", "profile not stationary")
