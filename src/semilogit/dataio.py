"""Dataset ingestion, run configuration, and artifact export.

The run configuration is one declarative JSON file (flag overrides come
from the CLI).  Ingestion maps response labels to category indices by
first appearance, applies per-column transforms, and drops unusable rows
with per-reason counts; everything needed to reproduce a run lands in a
``manifest.txt`` of sorted ``key = value`` lines.  Numbers are written
with 17 significant digits so artifacts round-trip bit-exactly and
reruns with the same seed are byte-identical (no timestamps anywhere).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .core import Dataset
from .exceptions import ConfigError, EmptyDatasetError
from .iia import hausman_mcfadden, iia_all_permutations, small_hsiao
from .kernels import KernelConfig, bandwidth_from_scale, bandwidth_grid
from .parametric import fit_parametric
from .profile import SemiparametricFitResult, SmoothState, fit_semiparametric, predict_surface
from .schema import GRID, IIA, RUN, SURFACE, walk
from .synthesis import DGPSpec, simulate


def fmt(v) -> str:
    """17-significant-digit decimal form; round-trips float64 exactly."""
    return format(float(v), ".17g")


def _read_json_object(path) -> dict:
    """The JSON object in the file at ``path``; a ConfigError naming the
    file when it holds anything else."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except ValueError as err:     # JSONDecodeError or UnicodeDecodeError
            raise ConfigError(f"{path} is not valid JSON: {err}") from None
    if not isinstance(d, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    return d


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------

def read_config(d: dict) -> dict:
    """The run configuration ``d`` read through the config table, with
    exactly one response column among any columns it names."""
    config = walk(RUN, d, "")
    roles = [c["role"] for c in config["columns"].values()]
    if roles and roles.count("response") != 1:
        raise ConfigError("need exactly one response column")
    return config


# --------------------------------------------------------------------------
# ingestion
# --------------------------------------------------------------------------

@dataclass
class IngestReport:
    labels: list                   # category label per index 1..K
    rows_in: int
    rows_used: int
    drops: dict                    # reason -> count
    x_names: list
    t_names: list

    @property
    def rows_dropped(self) -> int:
        return sum(self.drops.values())


def _apply_transforms(value: float, transforms: list):
    """Returns (value, squared-or-None) or raises ValueError('log-domain');
    a plain ValueError when the value, or what a transform makes of it,
    is not finite."""
    squared = None
    for tr in transforms:
        kind = tr["kind"]
        if kind == "log":
            if value <= 0:
                raise ValueError("log-domain")
            value = math.log(value)
        elif kind == "divide-by":
            value = value / tr["by"]
        elif kind == "square-augment":
            squared = value * value
    if not math.isfinite(value) or squared is not None and not math.isfinite(squared):
        raise ValueError("non-finite")
    return value, squared


def load_csv(path, config: dict):
    """Parse a CSV into a Dataset, applying roles, transforms, imputation.

    Response labels map to categories 1..K by first appearance.  Rows
    with unparseable, non-finite or missing required fields (or a log
    transform of a nonpositive value) are dropped and counted by reason.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"input file {path} does not exist")
    columns, impute = config["columns"], config["impute"]
    response = [name for name, c in columns.items() if c["role"] == "response"]
    if len(response) != 1:
        raise ConfigError("need exactly one response column")
    covariates = [(name, c) for name, c in columns.items()
                  if c["role"] in ("parametric", "smooth")]

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDatasetError(f"{path} is empty") from None
        missing_cols = [name for name, c in columns.items()
                        if c["role"] != "ignore" and name not in header]
        if missing_cols:
            raise ConfigError(f"columns {missing_cols} not in header {header}")
        idx = {name: header.index(name) for name in columns if name in header}

        labels: list = []
        label_to_k: dict = {}
        ys, rows = [], []
        drops = {"parse": 0, "missing": 0, "log-domain": 0}
        rows_in = 0
        for record in reader:
            if not record or all(not f.strip() for f in record):
                continue
            rows_in += 1
            values, squares = [], []
            try:
                label = record[idx[response[0]]].strip()
                if not label:
                    raise ValueError("missing")
                for name, col in covariates:
                    raw = record[idx[name]].strip()
                    if not raw:
                        if name in impute:
                            v = float(impute[name])
                        else:
                            raise ValueError("missing")
                    else:
                        v = float(raw)
                    v, sq = _apply_transforms(v, col["transforms"])
                    values.append(v)
                    squares.append(sq)
            except (ValueError, IndexError) as err:
                reason = str(err)
                if reason == "missing":
                    drops["missing"] += 1
                elif reason == "log-domain":
                    drops["log-domain"] += 1
                else:
                    drops["parse"] += 1
                continue
            if label not in label_to_k:
                label_to_k[label] = len(labels) + 1
                labels.append(label)
            ys.append(label_to_k[label])
            rows.append((values, squares))

    if not rows:
        raise EmptyDatasetError(f"no usable rows in {path} "
                                f"(of {rows_in} read; drops {drops})")
    if len(labels) < 2:
        raise EmptyDatasetError(
            f"only one response category ({labels[0]!r}) survived ingestion")

    x_names, t_names = [], []
    x_parts, t_parts = [], []
    for j, (col_name, col) in enumerate(covariates):
        base = np.array([r[0][j] for r in rows])
        cols = [(col_name, base)]
        if any(r[1][j] is not None for r in rows):
            cols.append((col_name + "_sq", np.array([r[1][j] for r in rows])))
        for name, vec in cols:
            if col["role"] == "parametric":
                x_names.append(name)
                x_parts.append(vec)
            else:
                t_names.append(name)
                t_parts.append(vec)

    n = len(rows)
    x = np.column_stack(x_parts) if x_parts else np.zeros((n, 0))
    t = np.column_stack(t_parts) if t_parts else np.zeros((n, 0))
    data = Dataset(y=np.array(ys), x=x, t=t, n_categories=len(labels),
                   labels=tuple(labels))
    report = IngestReport(labels=labels, rows_in=rows_in, rows_used=n,
                          drops=drops, x_names=x_names, t_names=t_names)
    return data, report


def _write_csv(path, header, rows):
    """One header line, then one line per row; newline-terminated."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _default_names(data: Dataset):
    """Column names x1..xp and t1..tq."""
    return ([f"x{j + 1}" for j in range(data.p)],
            [f"t{d + 1}" for d in range(data.q)])


def write_dataset_csv(data: Dataset, path, x_names=None, t_names=None):
    """Dataset to CSV with 17-digit floats; inverse of load_csv."""
    default_x, default_t = _default_names(data)
    header = ["y"] + (x_names or default_x) + (t_names or default_t)
    _write_csv(path, header, (
        [data.label_of(int(y))] + [fmt(v) for v in x + t]
        for y, x, t in zip(data.y, data.x.tolist(), data.t.tolist())))


# --------------------------------------------------------------------------
# reporting helpers
# --------------------------------------------------------------------------

def normal_two_sided_p(z: float) -> float:
    return math.erfc(abs(z) / math.sqrt(2.0))


def significance_stars(p: float) -> str:
    if p <= 0.01:
        return "**"
    if p <= 0.05:
        return "*"
    if p <= 0.10:
        return "."
    return ""


def _write_manifest(path, entries: dict):
    lines = [f"{k} = {v}" for k, v in sorted(entries.items())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _config_echo(config: dict) -> dict:
    kernel = config["kernel"]
    e = {
        "config.model": config["model"],
        "config.seed": config["seed"],
        "config.kernel_scale": fmt(kernel["scale"]),
        "versions.semilogit": __version__, "versions.numpy": np.__version__,
    }
    if config.get("input"):
        e["config.input"] = config["input"]
    if "simulate" in config:
        e["config.simulate"] = json.dumps(config["simulate"], sort_keys=True)
    if kernel.get("bandwidths"):
        e["config.bandwidths"] = ",".join(fmt(h) for h in kernel["bandwidths"])
    for name, c in config["columns"].items():
        desc = c["role"]
        if c["transforms"]:
            desc += ";" + ";".join(
                tr["kind"] + (f"({tr.get('by')})" if tr["kind"] == "divide-by" else "")
                for tr in c["transforms"])
        e[f"config.column.{name}"] = desc
    for name, v in sorted(config["impute"].items()):
        e[f"config.impute.{name}"] = fmt(v)
    for k, v in sorted(config["fit"].items()):
        e[f"config.fit.{k}"] = fmt(v) if isinstance(v, float) else str(v)
    return e


def _resolve_reference(config: dict, data: Dataset):
    ref = config.get("reference")
    if ref is None:
        return data.n_categories
    if isinstance(ref, str):
        if data.labels and ref in data.labels:
            return data.labels.index(ref) + 1
        raise ConfigError(f"reference label {ref!r} not among {data.labels}")
    if not 1 <= ref <= data.n_categories:
        raise ConfigError(f"reference {ref} outside 1..{data.n_categories}")
    return ref


def _obtain_dataset(config: dict):
    """Dataset plus ingest report (None when simulated) and term names."""
    if "simulate" in config:
        data = simulate(DGPSpec.from_dict({"seed": config["seed"], **config["simulate"]}))
        return (data, None) + _default_names(data)
    if not config.get("input"):
        raise ConfigError("config needs either 'input' or 'simulate'")
    data, report = load_csv(config["input"], config)
    return data, report, report.x_names, report.t_names


def _ingest_entries(report: IngestReport | None) -> dict:
    if report is None:
        return {"data.source": "simulated"}
    e = {
        "data.source": "csv",
        "data.rows_in": report.rows_in,
        "data.rows_used": report.rows_used,
        "data.rows_dropped": report.rows_dropped,
    }
    for reason, count in sorted(report.drops.items()):
        e[f"data.drop.{reason}"] = count
    for k, label in enumerate(report.labels, start=1):
        e[f"labels.{k}"] = label
    return e


# --------------------------------------------------------------------------
# subcommand implementations
# --------------------------------------------------------------------------

def run_simulate(config: dict) -> int:
    """Draw the configured DGP and write data.csv plus a manifest."""
    if "simulate" not in config:
        raise ConfigError("simulate requires a 'simulate' block in the config")
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    data, _, x_names, t_names = _obtain_dataset(config)
    write_dataset_csv(data, out / "data.csv", x_names, t_names)
    entries = _config_echo(config)
    entries.update({
        "data.n": data.n, "data.p": data.p, "data.q": data.q,
        "data.n_categories": data.n_categories,
    })
    counts = data.category_counts()
    for k in range(1, data.n_categories + 1):
        entries[f"data.count.{k}"] = int(counts[k - 1])
    _write_manifest(out / "manifest.txt", entries)
    return 0


def _write_coefficient_table(path, categories, labels, term_names,
                             estimates, ses):
    rows = []
    for r, k in enumerate(categories):
        label = labels[k - 1] if labels else str(k)
        for c, term in enumerate(term_names):
            est, se = estimates[r, c], ses[r, c]
            if se > 0 and np.isfinite(se):
                z = est / se
                p = normal_two_sided_p(z)
                rows.append([k, label, term, fmt(est), fmt(se),
                             fmt(z), fmt(p), significance_stars(p)])
            else:
                rows.append([k, label, term, fmt(est), "", "", "", ""])
    _write_csv(path, ["category", "label", "term", "estimate",
                      "std_error", "z", "p_value", "stars"], rows)


def _write_trace(path, trace):
    _write_csv(path, ["iteration", "loglik"],
               ([i, fmt(ll)] for i, ll in enumerate(trace)))


def _write_m_values(path, data: Dataset, fit: SemiparametricFitResult, t_names):
    header = ["index"] + list(t_names) + [f"m_{int(k)}" for k in fit.categories]
    rows = zip(data.t.tolist(), fit.smooth.m.T.tolist())
    _write_csv(path, header, ([i] + [fmt(v) for v in t + m]
                              for i, (t, m) in enumerate(rows)))


def _write_fit_state(path, data: Dataset, fit: SemiparametricFitResult,
                     x_names, t_names):
    state = {
        "beta": [[fmt(v) for v in row] for row in fit.beta],
        "m": [[fmt(v) for v in row] for row in fit.smooth.m],
        "bandwidths": [fmt(h) for h in fit.kernel.bandwidths],
        "reference": fit.reference,
        "n_categories": data.n_categories,
        "labels": list(data.labels) if data.labels else [],
        "converged": fit.converged,
        "options": {k: (fmt(v) if isinstance(v, float) else v)
                    for k, v in fit.options.items()},
        "x_names": x_names, "t_names": t_names,
        "y": [int(v) for v in data.y],
        "x": [[fmt(v) for v in row] for row in data.x],
        "t": [[fmt(v) for v in row] for row in data.t],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_fit_state(path):
    """Rebuild (data, fit result) from a fit_state.json artifact."""
    s = _read_json_object(path)

    def grid_array(rows, n_rows):
        out = np.array([[float(v) for v in row] for row in rows], dtype=float)
        return out.reshape(n_rows, -1) if out.size else np.zeros((n_rows, 0))

    try:
        n, Km1 = len(s["y"]), int(s["n_categories"]) - 1
        data = Dataset(y=np.array(s["y"]), x=grid_array(s["x"], n),
                       t=grid_array(s["t"], n),
                       n_categories=int(s["n_categories"]),
                       labels=tuple(s.get("labels") or ()))
        kernel = KernelConfig(bandwidths=[float(h) for h in s["bandwidths"]])
        smooth = SmoothState(beta=grid_array(s["beta"], Km1),
                             m=grid_array(s["m"], Km1), reference=int(s["reference"]))
        options = {k: (float(v) if isinstance(v, str) else v)
                   for k, v in s.get("options", {}).items()}
        converged = bool(s["converged"])
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"{path} is not a fit state: {err!r}") from None
    fit = SemiparametricFitResult(
        beta=smooth.beta, beta_se=np.full_like(smooth.beta, np.nan),
        smooth=smooth, loglik=np.nan, loglik_trace=[],
        converged=converged, iterations=0, kernel=kernel,
        reference=smooth.reference, categories=smooth.categories(),
        options=options)
    return data, fit, s.get("x_names", []), s.get("t_names", [])


def run_fit(config: dict) -> int:
    """Fit the configured model; write tables, trace, manifest, state.

    Exit status 0 iff the fit converged (3 otherwise).
    """
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    data, report, x_names, t_names = _obtain_dataset(config)
    reference = _resolve_reference(config, data)

    entries = _config_echo(config)
    entries.update(_ingest_entries(report))
    entries.update({
        "data.n": data.n, "data.p": data.p, "data.q": data.q,
        "data.n_categories": data.n_categories,
        "fit.reference": reference,
    })

    # any other fit key is echoed in the manifest and otherwise ignored
    opts = {k: config["fit"][k] for k in ("tol", "max_iter") if k in config["fit"]}
    if config["model"] == "parametric":
        fit = fit_parametric(data, reference=reference,
                             term_names=["intercept"] + x_names + t_names,
                             **opts)
        _write_coefficient_table(out / "coefficients.csv", fit.categories,
                                 data.labels, fit.term_names,
                                 fit.coefficients, fit.std_errors)
        _write_trace(out / "loglik_trace.csv", fit.loglik_trace)
        entries.update({
            "fit.converged": fit.converged, "fit.iterations": fit.iterations,
            "fit.loglik": fmt(fit.loglik), "fit.score_max": fmt(fit.score_max),
        })
    else:
        if "bandwidths" in config["kernel"]:
            kernel = KernelConfig(bandwidths=config["kernel"]["bandwidths"])
        else:
            kernel = bandwidth_from_scale(data.t, config["kernel"]["scale"])
        fit = fit_semiparametric(data, kernel, reference=reference, **opts)
        _write_coefficient_table(out / "coefficients.csv", fit.categories,
                                 data.labels, x_names, fit.beta, fit.beta_se)
        _write_trace(out / "loglik_trace.csv", fit.loglik_trace)
        _write_m_values(out / "m_values.csv", data, fit, t_names)
        _write_fit_state(out / "fit_state.json", data, fit, x_names, t_names)
        entries.update({
            "fit.converged": fit.converged, "fit.iterations": fit.iterations,
            "fit.loglik": fmt(fit.loglik),
            "fit.se_construction": "profile-information",
            "kernel.scale": fmt(kernel.scale) if kernel.scale else "explicit",
        })
        for d, h in enumerate(kernel.bandwidths, start=1):
            entries[f"kernel.bandwidth.{d}"] = fmt(h)
        for w, warning in enumerate(fit.warnings, start=1):
            entries[f"fit.warning.{w}"] = warning

    _write_manifest(out / "manifest.txt", entries)
    return 0 if fit.converged else 3


def run_surface(config: dict, fit_dir=None) -> int:
    """Probability surface over a grid of the two smooth covariates."""
    request = walk(SURFACE, config.get("surface"), "surface")
    fit_dir = Path(fit_dir or config["out"])
    state_path = fit_dir / "fit_state.json"
    if not state_path.exists():
        raise ConfigError(f"no semiparametric fit artifacts at {state_path}")
    data, fit, x_names, t_names = load_fit_state(state_path)
    if not fit.converged:
        raise ConfigError("surface export needs a converged fit")
    if data.q != 2:
        raise ConfigError("surface export needs exactly two smooth covariates")

    axes = request["axes"]
    order = [t_names.index(ax["name"]) if ax["name"] in t_names else -1 for ax in axes]
    if sorted(order) != [0, 1]:
        raise ConfigError(f"surface axes {[ax['name'] for ax in axes]} must name "
                          f"both smooth covariates {t_names}")
    grids = [np.linspace(ax["lo"], ax["hi"], ax["steps"]) for ax in axes]

    fixed = request["fixed"]
    missing = [name for name in x_names if name not in fixed]
    if missing:
        raise ConfigError(f"surface.fixed must give a value for {missing}")
    x_fixed = np.array([fixed[name] for name in x_names], dtype=float)

    K = data.n_categories
    cats = request.get("categories") or list(range(1, K + 1))
    if not all(1 <= k <= K for k in cats):
        raise ConfigError(f"surface.categories must lie in 1..{K}, got {cats}")

    a, b = (g.ravel() for g in np.meshgrid(*grids, indexing="ij"))
    grid = np.empty((a.size, 2))
    grid[:, order[0]], grid[:, order[1]] = a, b
    probs = predict_surface(fit, data, grid, x_fixed)

    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "surface.csv",
               [axes[0]["name"], axes[1]["name"], "category", "probability"],
               ([fmt(a[i]), fmt(b[i]), k, fmt(probs[i, k - 1])]
                for i in range(a.size) for k in cats))
    return 0


def run_iia(config: dict) -> int:
    """IIA tests for every eligible dropped category; writes a table."""
    request = walk(IIA, config.get("iia"), "iia")
    method, drop = request["method"], request.get("drop")
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    data, report, _, _ = _obtain_dataset(config)
    reference = _resolve_reference(config, data)
    methods = {"hausman-mcfadden": ["HausmanMcFadden"],
               "small-hsiao": ["SmallHsiao"],
               "both": ["HausmanMcFadden", "SmallHsiao"]}[method]
    results = []
    for m in methods:
        if drop is None:
            results.extend(iia_all_permutations(data, m, seed=config["seed"],
                                                reference=reference))
        elif m == "HausmanMcFadden":
            results.append(hausman_mcfadden(data, drop, reference=reference))
        else:
            results.append(small_hsiao(data, drop, config["seed"],
                                       reference=reference))

    _write_csv(out / "iia_results.csv",
               ["method", "dropped_category", "dropped_label", "statistic",
                "df", "p_value", "note"],
               ([r.method, r.dropped_category, data.label_of(r.dropped_category),
                 fmt(r.statistic), r.df, fmt(r.p_value), r.note] for r in results))
    entries = _config_echo(config)
    entries.update(_ingest_entries(report))
    entries.update({"iia.method": method, "iia.reference": reference})
    _write_manifest(out / "manifest.txt", entries)
    return 0


def run_bandwidth_grid(config: dict) -> int:
    """Bandwidth grid over the smooth covariates; writes scale table."""
    grid = walk(GRID, config.get("grid"), "grid")
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    data, _, _, t_names = _obtain_dataset(config)
    if data.q == 0:
        raise ConfigError("bandwidth grid needs at least one smooth covariate")
    _write_csv(out / "bandwidth_grid.csv",
               ["scale"] + [f"h_{name}" for name in t_names],
               ([fmt(kc.scale)] + [fmt(h) for h in kc.bandwidths]
                for kc in bandwidth_grid(data.t, grid["lo"], grid["hi"], grid["steps"])))
    return 0
