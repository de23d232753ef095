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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .core import Dataset
from .exceptions import ConfigError, EmptyDatasetError, ShapeError, config_number
from .iia import hausman_mcfadden, iia_all_permutations, small_hsiao
from .kernels import KernelConfig, bandwidth_from_scale, bandwidth_grid
from .parametric import fit_parametric
from .profile import SemiparametricFitResult, SmoothState, fit_semiparametric, predict_surface
from .synthesis import DGPSpec, simulate

ROLES = ("response", "parametric", "smooth", "ignore")
TRANSFORM_KINDS = ("none", "log", "divide-by", "square-augment")


def fmt(v) -> str:
    """17-significant-digit decimal form; round-trips float64 exactly."""
    return format(float(v), ".17g")


def _section(d: dict, key: str):
    """``d[key]`` when it is a JSON object; None when it is absent."""
    value = d.get(key)
    if value is not None and not isinstance(value, dict):
        raise ConfigError(f"{key} must be a JSON object, got {value!r}")
    return value


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------

@dataclass
class ColumnSpec:
    name: str
    role: str
    transforms: list = field(default_factory=list)

    def __post_init__(self):
        if self.role not in ROLES:
            raise ConfigError(f"unknown column role {self.role!r} for {self.name!r}")
        for tr in self.transforms:
            kind = tr.get("kind")
            if kind not in TRANSFORM_KINDS:
                raise ConfigError(f"unknown transform {kind!r} on {self.name!r}")
            if kind == "divide-by":
                by = tr.get("by")
                if not isinstance(by, (int, float)) or not by or not math.isfinite(by):
                    raise ConfigError(f"divide-by needs a nonzero 'by' on {self.name!r}")


@dataclass
class RunConfig:
    """Declarative description of one run (any subcommand)."""

    columns: list = field(default_factory=list)     # ColumnSpec, input order
    input_path: str | None = None
    simulate: dict | None = None                    # DGPSpec dict
    model: str = "parametric"
    kernel_scale: float = 0.5
    bandwidths: list | None = None
    fit_options: dict = field(default_factory=dict)
    reference: object = None                        # label or 1-based index
    seed: int = 0
    out: str = "run-output"
    surface: dict | None = None
    iia: dict | None = None
    impute: dict = field(default_factory=dict)      # column -> default value
    grid: dict | None = None                        # lo, hi, steps

    def __post_init__(self):
        if self.model not in ("parametric", "semiparametric"):
            raise ConfigError(f"unknown model kind {self.model!r}")
        roles = [c.role for c in self.columns]
        if self.columns and roles.count("response") != 1:
            raise ConfigError("need exactly one response column")
        if self.kernel_scale is not None and self.kernel_scale <= 0:
            raise ConfigError("kernel scale must be positive")

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        cols = []
        for name, spec in (_section(d, "columns") or {}).items():
            if isinstance(spec, str):
                spec = {"role": spec}
            if not isinstance(spec, dict):
                raise ConfigError(f"column {name!r} needs a role or a JSON object")
            transforms = spec.get("transforms", [])
            if isinstance(transforms, dict):
                transforms = [transforms]
            cols.append(ColumnSpec(name=name, role=spec.get("role", "ignore"),
                                   transforms=transforms))
        kernel = _section(d, "kernel") or {}
        bandwidths = kernel.get("bandwidths")
        if bandwidths is not None:
            if not isinstance(bandwidths, list):
                raise ConfigError(f"kernel.bandwidths must be a list, got {bandwidths!r}")
            bandwidths = [config_number(h, "kernel.bandwidths") for h in bandwidths]
        fit = dict(_section(d, "fit") or {})
        for key, kind in (("tol", float), ("max_iter", int)):
            if key in fit:
                fit[key] = config_number(fit[key], f"fit.{key}", kind)
        return cls(
            columns=cols,
            input_path=d.get("input"),
            simulate=_section(d, "simulate"),
            model=d.get("model", "parametric"),
            kernel_scale=config_number(kernel.get("scale", 0.5), "kernel.scale"),
            bandwidths=bandwidths,
            fit_options=fit,
            reference=d.get("reference"),
            seed=config_number(d.get("seed", 0), "seed", int),
            out=d.get("out", "run-output"),
            surface=_section(d, "surface"),
            iia=_section(d, "iia"),
            impute={name: config_number(v, f"impute.{name}")
                    for name, v in (_section(d, "impute") or {}).items()},
            grid=_section(d, "grid"),
        )

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                d = json.load(fh)
            except ValueError as err:     # JSONDecodeError or UnicodeDecodeError
                raise ConfigError(f"{path} is not valid JSON: {err}") from None
        if not isinstance(d, dict):
            raise ConfigError(f"{path} must hold a JSON object")
        return cls.from_dict(d)

    def parametric_names(self) -> list:
        return [c.name for c in self.columns if c.role == "parametric"]

    def smooth_names(self) -> list:
        return [c.name for c in self.columns if c.role == "smooth"]


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
    """Returns (value, squared-or-None) or raises ValueError('log-domain')."""
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
    return value, squared


def load_csv(path, config: RunConfig):
    """Parse a CSV into a Dataset, applying roles, transforms, imputation.

    Response labels map to categories 1..K by first appearance.  Rows
    with unparseable or missing required fields (or a log transform of a
    nonpositive value) are dropped and counted by reason.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"input file {path} does not exist")
    by_name = {c.name: c for c in config.columns}
    response = [c for c in config.columns if c.role == "response"]
    if len(response) != 1:
        raise ConfigError("need exactly one response column")
    response = response[0]
    covariate_cols = [c for c in config.columns if c.role in ("parametric", "smooth")]

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDatasetError(f"{path} is empty") from None
        missing_cols = [c.name for c in config.columns
                        if c.role != "ignore" and c.name not in header]
        if missing_cols:
            raise ConfigError(f"columns {missing_cols} not in header {header}")
        idx = {name: header.index(name) for name in by_name if name in header}

        labels: list = []
        label_to_k: dict = {}
        ys, rows = [], []
        drops = {"parse": 0, "missing": 0, "log-domain": 0}
        rows_in = 0
        for record in reader:
            if not record or all(not f.strip() for f in record):
                continue
            rows_in += 1
            label = record[idx[response.name]].strip()
            if not label:
                drops["missing"] += 1
                continue
            values, squares = [], []
            try:
                for col in covariate_cols:
                    raw = record[idx[col.name]].strip()
                    if not raw:
                        if col.name in config.impute:
                            v = float(config.impute[col.name])
                        else:
                            raise ValueError("missing")
                    else:
                        v = float(raw)
                    v, sq = _apply_transforms(v, col.transforms)
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
    for j, col in enumerate(covariate_cols):
        base = np.array([r[0][j] for r in rows])
        cols = [(col.name, base)]
        if any(r[1][j] is not None for r in rows):
            cols.append((col.name + "_sq", np.array([r[1][j] for r in rows])))
        for name, vec in cols:
            if col.role == "parametric":
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


def dataset_config(data: Dataset, x_names=None, t_names=None) -> RunConfig:
    """RunConfig whose columns reload a write_dataset_csv file."""
    default_x, default_t = _default_names(data)
    x_names, t_names = x_names or default_x, t_names or default_t
    cols = [ColumnSpec("y", "response")]
    cols += [ColumnSpec(n, "parametric") for n in x_names]
    cols += [ColumnSpec(n, "smooth") for n in t_names]
    return RunConfig(columns=cols)


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


def _config_echo(config: RunConfig) -> dict:
    e = {
        "config.model": config.model,
        "config.seed": config.seed,
        "config.kernel_scale": fmt(config.kernel_scale),
        "versions.semilogit": __version__, "versions.numpy": np.__version__,
    }
    if config.input_path:
        e["config.input"] = config.input_path
    if config.simulate is not None:
        e["config.simulate"] = json.dumps(config.simulate, sort_keys=True)
    if config.bandwidths:
        e["config.bandwidths"] = ",".join(fmt(h) for h in config.bandwidths)
    for c in config.columns:
        desc = c.role
        if c.transforms:
            desc += ";" + ";".join(
                tr["kind"] + (f"({tr.get('by')})" if tr["kind"] == "divide-by" else "")
                for tr in c.transforms)
        e[f"config.column.{c.name}"] = desc
    for name, v in sorted(config.impute.items()):
        e[f"config.impute.{name}"] = fmt(v)
    if config.fit_options:
        for k, v in sorted(config.fit_options.items()):
            e[f"config.fit.{k}"] = fmt(v) if isinstance(v, float) else str(v)
    return e


def _resolve_reference(config: RunConfig, data: Dataset):
    ref = config.reference
    if ref is None:
        return data.n_categories
    if isinstance(ref, str):
        if data.labels and ref in data.labels:
            return data.labels.index(ref) + 1
        raise ConfigError(f"reference label {ref!r} not among {data.labels}")
    ref = config_number(ref, "reference", int)
    if not 1 <= ref <= data.n_categories:
        raise ConfigError(f"reference {ref} outside 1..{data.n_categories}")
    return ref


def _obtain_dataset(config: RunConfig):
    """Dataset plus ingest report (None when simulated) and term names."""
    if config.simulate is not None:
        spec_dict = dict(config.simulate)
        spec_dict.setdefault("seed", config.seed)
        spec = DGPSpec.from_dict(spec_dict)
        data = simulate(spec)
        return (data, None) + _default_names(data)
    if not config.input_path:
        raise ConfigError("config needs either 'input' or 'simulate'")
    data, report = load_csv(config.input_path, config)
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

def run_simulate(config: RunConfig) -> int:
    """Draw the configured DGP and write data.csv plus a manifest."""
    if config.simulate is None:
        raise ConfigError("simulate requires a 'simulate' block in the config")
    out = Path(config.out)
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
    with open(path, "r", encoding="utf-8") as fh:
        s = json.load(fh)
    n = len(s["y"])
    Km1 = int(s["n_categories"]) - 1

    def grid_array(rows, n_rows):
        out = np.array([[float(v) for v in row] for row in rows], dtype=float)
        return out.reshape(n_rows, -1) if out.size else np.zeros((n_rows, 0))

    data = Dataset(y=np.array(s["y"]), x=grid_array(s["x"], n),
                   t=grid_array(s["t"], n),
                   n_categories=int(s["n_categories"]),
                   labels=tuple(s.get("labels") or ()))
    beta = grid_array(s["beta"], Km1)
    m = grid_array(s["m"], Km1)
    kernel = KernelConfig(bandwidths=[float(h) for h in s["bandwidths"]])
    smooth = SmoothState(beta=beta, m=m, reference=int(s["reference"]))
    options = {k: (float(v) if isinstance(v, str) else v)
               for k, v in s.get("options", {}).items()}
    fit = SemiparametricFitResult(
        beta=smooth.beta, beta_se=np.full_like(smooth.beta, np.nan),
        smooth=smooth, loglik=np.nan, loglik_trace=[],
        converged=bool(s["converged"]), iterations=0, kernel=kernel,
        reference=int(s["reference"]), categories=smooth.categories(),
        options=options)
    return data, fit, s.get("x_names", []), s.get("t_names", [])


def run_fit(config: RunConfig) -> int:
    """Fit the configured model; write tables, trace, manifest, state.

    Exit status 0 iff the fit converged (3 otherwise).
    """
    out = Path(config.out)
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
    opts = {k: config.fit_options[k] for k in ("tol", "max_iter")
            if k in config.fit_options}
    if config.model == "parametric":
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
        if config.bandwidths is not None:
            kernel = KernelConfig(bandwidths=config.bandwidths)
            if kernel.q != data.q:
                raise ShapeError(f"{kernel.q} bandwidths for q={data.q}")
        else:
            kernel = bandwidth_from_scale(data.t, config.kernel_scale)
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


def run_surface(config: RunConfig, fit_dir=None) -> int:
    """Probability surface over a grid of the two smooth covariates."""
    request = config.surface
    if not request:
        raise ConfigError("surface requires a 'surface' block in the config")
    fit_dir = Path(fit_dir or config.out)
    state_path = fit_dir / "fit_state.json"
    if not state_path.exists():
        raise ConfigError(f"no semiparametric fit artifacts at {state_path}")
    data, fit, x_names, t_names = load_fit_state(state_path)
    if not fit.converged:
        raise ConfigError("surface export needs a converged fit")
    if data.q != 2:
        raise ConfigError("surface export needs exactly two smooth covariates")

    axes = request.get("axes")
    if not isinstance(axes, list) or len(axes) != 2:
        raise ConfigError("surface.axes must list the two smooth covariates")
    order, grids = [], []
    for i, ax in enumerate(axes):
        if not isinstance(ax, dict):
            raise ConfigError(f"surface.axes[{i}] must be a JSON object, got {ax!r}")
        name = ax.get("name")
        if name not in t_names:
            raise ConfigError(f"axis {name!r} is not a smooth covariate "
                              f"(have {t_names})")
        what = f"surface.axes[{i}]"
        lo = config_number(ax.get("lo", 0.0), f"{what}.lo")
        hi = config_number(ax.get("hi", 1.0), f"{what}.hi")
        steps = config_number(ax.get("steps", 0), f"{what}.steps", int)
        if steps < 2:
            raise ConfigError("each axis needs steps >= 2")
        if not lo < hi:
            raise ConfigError("each axis needs lo < hi")
        order.append(t_names.index(name))
        grids.append(np.linspace(lo, hi, steps))
    if set(order) != {0, 1}:
        raise ConfigError("surface axes must name both smooth covariates")

    fixed = _section(request, "fixed") or {}
    x_fixed = np.zeros(data.p)
    for j, name in enumerate(x_names):
        if name not in fixed:
            raise ConfigError(f"surface.fixed must give a value for {name!r}")
        x_fixed[j] = config_number(fixed[name], f"surface.fixed.{name}")

    K = data.n_categories
    cats = request.get("categories") or list(range(1, K + 1))
    if not isinstance(cats, list):
        raise ConfigError(f"surface.categories must be a list, got {cats!r}")
    cats = [config_number(k, "surface.categories", int) for k in cats]
    if not all(1 <= k <= K for k in cats):
        raise ConfigError(f"surface.categories must lie in 1..{K}, got {cats}")

    a, b = (g.ravel() for g in np.meshgrid(*grids, indexing="ij"))
    grid = np.empty((a.size, 2))
    grid[:, order[0]], grid[:, order[1]] = a, b
    probs = predict_surface(fit, data, grid, x_fixed)

    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "surface.csv",
               [axes[0]["name"], axes[1]["name"], "category", "probability"],
               ([fmt(a[i]), fmt(b[i]), k, fmt(probs[i, k - 1])]
                for i in range(a.size) for k in cats))
    return 0


def run_iia(config: RunConfig) -> int:
    """IIA tests for every eligible dropped category; writes a table."""
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    data, report, _, _ = _obtain_dataset(config)
    reference = _resolve_reference(config, data)
    request = config.iia or {}
    method = request.get("method", "both")
    methods = {"hausman-mcfadden": ["HausmanMcFadden"],
               "small-hsiao": ["SmallHsiao"],
               "both": ["HausmanMcFadden", "SmallHsiao"]}.get(method)
    if methods is None:
        raise ConfigError(f"unknown IIA method {method!r}")

    drop = request.get("drop")
    if drop is not None:
        drop = config_number(drop, "iia.drop", int)
    results = []
    for m in methods:
        if drop is None:
            results.extend(iia_all_permutations(data, m, seed=config.seed,
                                                reference=reference))
        elif m == "HausmanMcFadden":
            results.append(hausman_mcfadden(data, drop, reference=reference))
        else:
            results.append(small_hsiao(data, drop, config.seed,
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


def run_bandwidth_grid(config: RunConfig) -> int:
    """Bandwidth grid over the smooth covariates; writes scale table."""
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    data, _, _, t_names = _obtain_dataset(config)
    if data.q == 0:
        raise ConfigError("bandwidth grid needs at least one smooth covariate")
    grid_cfg = config.grid or {}
    lo = config_number(grid_cfg.get("lo", 0.4), "grid.lo")
    hi = config_number(grid_cfg.get("hi", 1.0), "grid.hi")
    steps = config_number(grid_cfg.get("steps", 7), "grid.steps", int)
    _write_csv(out / "bandwidth_grid.csv",
               ["scale"] + [f"h_{name}" for name in t_names],
               ([fmt(kc.scale)] + [fmt(h) for h in kc.bandwidths]
                for kc in bandwidth_grid(data.t, lo, hi, steps)))
    return 0
