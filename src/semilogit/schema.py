"""Every value a run configuration can hold, in one table, and the walk
that reads a section of a configuration through it.

Checks that need the data (an axis must be a smooth covariate, a category
must lie in 1..K) stay with the code that has the data.
"""

from __future__ import annotations

import numbers
import operator
import sys
from functools import partial

import numpy as np

from .exceptions import ConfigError

REQUIRED = object()      # default of a value that must be given
_OPS = {"<=": operator.le, ">": operator.gt, ">=": operator.ge, "!=": operator.ne}


class Entry:
    """One row of the table: a value's type, its range and its default.

    ``args`` are a number's bounds (such as ``"> 0"``), a string's choices,
    an object's fields, a list's item, a kind's variants (``kind`` picks
    the fields) or an either's options (the first that reads the value).
    ``parts`` are an object's ``each`` (entry of the keys it does not name),
    ``short`` (the field a bare value stands for) and ``ordered`` (two
    fields that must increase), and a list's ``lone`` (a bare item is a
    list of one).
    """

    def __init__(self, name, *args, default=None, **parts):
        self.type, self.args, self.default, self.parts = name, args, default, parts


Num, Int, Str, Matrix, List, Obj, Kind, Either = (partial(Entry, t) for t in (
    "number", "integer", "string", "matrix", "list", "object", "kind", "either"))


def walk(entry: Entry, v, path: str):
    """A copy of ``v`` with each value it declares checked and each absent
    one (None, or a JSON null) given its default; a ConfigError naming the
    dotted path, such as ``simulate.x_laws[0].sd``, for a value that fails.
    Keys it does not declare pass through unchecked."""
    if v is None:
        if entry.default is REQUIRED:
            raise ConfigError(f"{path} is missing")
        if entry.default is None:
            return None
        v = entry.default
    return _read(entry, v, path)


def _fail(path, what, v):
    raise ConfigError(f"{path} must be {what}, got {v!r}")


def _read(e: Entry, v, path: str):
    t, args, parts = e.type, e.args, e.parts
    if t in ("number", "integer"):
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            _fail(path, "a number", v)
        lo, hi, what = ((-2 ** 63, 2 ** 63 - 1, "within int64") if t == "integer"
                        else (-sys.float_info.max, sys.float_info.max, "finite"))
        if not lo <= v <= hi:
            _fail(path, what, v)
        if t == "integer" and not float(v).is_integer():
            _fail(path, "an integer", v)
        for bound in args:
            op, limit = bound.split()
            if not _OPS[op](v, float(limit)):
                _fail(path, bound, v)
        return int(v) if t == "integer" else v
    if t == "string":
        if not isinstance(v, str) or args and v not in args:
            _fail(path, "one of " + ", ".join(args) if args else "a string", v)
        return v
    if t == "matrix":
        try:
            a = np.asarray(v)
        except ValueError:                    # ragged rows
            a = np.asarray(None)
        if a.dtype.kind not in "iuf" or a.ndim > 2 or not np.isfinite(a).all():
            _fail(path, "a matrix of finite numbers", v)
        return np.atleast_2d(a.astype(np.float64))
    if t == "either":
        for option in args[:-1]:
            try:
                return _read(option, v, path)
            except ConfigError:
                pass
        return _read(args[-1], v, path)
    if t == "list":
        if parts.get("lone") and not isinstance(v, (list, tuple)):
            v = [v]
        if not isinstance(v, (list, tuple)):
            _fail(path, "a list", v)
        return [_read(args[0], x, f"{path}[{i}]") for i, x in enumerate(v)]
    if "short" in parts and not isinstance(v, dict):
        v = {parts["short"]: v}
    if not isinstance(v, dict):
        _fail(path, "a JSON object", v)
    if t == "kind":
        kind = walk(Str(*args[0], default=REQUIRED), v.get("kind"), f"{path}.kind")
        return _read(args[0][kind], v, path)
    fields, out = args[0] if args else {}, dict(v)
    for key in fields:
        out[key] = walk(fields[key], v.get(key), f"{path}.{key}" if path else key)
        if out[key] is None:
            del out[key]
    for key in v:
        if "each" in parts and key not in fields:
            out[key] = _read(parts["each"], v[key], f"{path}.{key}")
    if "ordered" in parts:
        lo, hi = parts["ordered"]
        if not out[lo] < out[hi]:
            raise ConfigError(f"{path} needs {lo} < {hi}, got {out[lo]!r} and {out[hi]!r}")
    return out


# --------------------------------------------------------------------------
# the table
# --------------------------------------------------------------------------
COLUMN = Obj({
    "role": Str("response", "parametric", "smooth", "ignore", default="ignore"),
    "transforms": List(Kind({
        "none": Obj(), "log": Obj(), "square-augment": Obj(),
        "divide-by": Obj({"by": Num("!= 0", default=REQUIRED)}),
    }), lone=True, default=[]),
}, short="role")

# read by RunConfig.from_dict, whose fields hold their own defaults; the
# code that uses simulate, surface, iia or grid reads it through its entry
# below, so a subcommand ignores a section it does not read
RUN = Obj({
    "input": Str(),
    "columns": Obj(each=COLUMN, default={}),
    "model": Str("parametric", "semiparametric"),
    "kernel": Obj({"scale": Num("> 0"), "bandwidths": List(Num("> 0"))}, default={}),
    # fit keys the table does not name are echoed in the manifest only
    "fit": Obj({"tol": Num("> 0"), "max_iter": Int(">= 0")}, default={}),
    "impute": Obj(each=Num(), default={}),
    "reference": Either(Str(), Int()),     # label or 1-based index
    "seed": Int(">= 0"),             # numpy rejects seeds < 0
    "out": Str(),
    "simulate": Obj(), "surface": Obj(), "iia": Obj(), "grid": Obj(),
})

LAW = Kind({
    "uniform": Obj({"lo": Num(default=0.0), "hi": Num(default=1.0)},
                   ordered=("lo", "hi")),
    "normal": Obj({"mu": Num(default=0.0), "sd": Num("> 0", default=1.0)}),
    "bernoulli": Obj({"p": Num(">= 0", "<= 1", default=0.5)}),
    "lognormal": Obj({"mu": Num(default=0.0), "sigma": Num("> 0", default=1.0)}),
})

SMOOTH = Kind({
    "zero": Obj(),
    "linear": Obj({"intercept": Num(default=0.0),
                   "slopes": List(Num(), lone=True, default=0.0)}),
    "sine": Obj({"amplitude": Num(default=1.0), "frequency": Num(default=1.0)}),
    "ridge-interaction": Obj({"a": Num(default=1.0)}),
})

SIMULATE = Obj({
    "n_categories": Int(">= 2", default=REQUIRED),
    "n": Int(">= 1", default=REQUIRED),
    "seed": Int(">= 0", default=REQUIRED),
    "beta": Matrix(default=[]),
    "smooth": List(SMOOTH, default=[]),
    "x_laws": List(LAW, default=[]),
    "t_laws": List(LAW, default=[]),
})

SURFACE = Obj({
    "axes": List(Obj({
        "name": Str(default=REQUIRED),
        "lo": Num(default=0.0), "hi": Num(default=1.0),
        "steps": Int(">= 2", default=REQUIRED),
    }, ordered=("lo", "hi")), default=REQUIRED),
    "fixed": Obj(each=Num(), default={}),
    "categories": List(Int()),             # default: every one
}, default=REQUIRED)

IIA = Obj({
    "method": Str("hausman-mcfadden", "small-hsiao", "both", default="both"),
    "drop": Int(),                          # default: every one
}, default={})

GRID = Obj({
    "lo": Num("> 0", default=0.4), "hi": Num("> 0", default=1.0),
    "steps": Int(">= 1", default=7),
}, default={})
