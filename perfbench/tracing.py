"""Timing wrappers installed on the attributes through which one semilogit
module calls another.

Nothing here edits the package: each wrapper replaces a module attribute
(``semilogit.profile.sigmoid`` and so on) for the life of a ``Tracer`` and
puts the original back on ``uninstall``.  Every call becomes a span
(name, start, end, parent) kept in memory; self times, call counts and the
work counts named in ``COUNTERS`` are derived from the spans when the run
ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time

# (module that makes the call, attribute it calls through, span name).
# The span name is the module that does the work.
BOUNDARIES = [
    ("profile", "sigmoid", "core.sigmoid"),
    ("profile", "dataset_log_likelihood", "core.dataset_log_likelihood"),
    ("parametric", "dataset_log_likelihood", "core.dataset_log_likelihood"),
    ("profile", "kernel_weights", "kernels.kernel_weights"),
    ("profile", "fit_parametric", "parametric.fit_parametric"),
    ("iia", "fit_parametric", "parametric.fit_parametric"),
    ("dataio", "fit_parametric", "parametric.fit_parametric"),
    ("profile", "fit_semiparametric", "profile.fit_semiparametric"),
    ("dataio", "fit_semiparametric", "profile.fit_semiparametric"),
    ("profile", "predict_surface", "profile.predict_surface"),
    ("dataio", "predict_surface", "profile.predict_surface"),
    ("synthesis", "simulate", "synthesis.simulate"),
    ("dataio", "simulate", "synthesis.simulate"),
    ("iia", "hausman_mcfadden", "iia.hausman_mcfadden"),
    ("dataio", "hausman_mcfadden", "iia.hausman_mcfadden"),
    ("iia", "small_hsiao", "iia.small_hsiao"),
    ("dataio", "small_hsiao", "iia.small_hsiao"),
    ("dataio", "load_fit_state", "dataio.load_fit_state"),
    ("cli", "run_fit", "dataio.run_fit"),
    ("cli", "run_surface", "dataio.run_surface"),
    ("cli", "run_iia", "dataio.run_iia"),
    ("cli", "run_simulate", "dataio.run_simulate"),
    ("cli", "main", "cli.main"),
]


def _sigmoid_elements(args, kwargs, result):
    return {"elements": int(getattr(result, "size", 1))}


def _parametric_counts(args, kwargs, result):
    return {"iterations": int(result.iterations),
            "unconverged": int(not result.converged)}


def _semiparametric_counts(args, kwargs, result):
    return {"outer_iterations": int(result.iterations),
            "trace_points": len(result.loglik_trace)}


# Work counts read from a call's arguments or result, per span name.
COUNTERS = {
    "core.sigmoid": _sigmoid_elements,
    "parametric.fit_parametric": _parametric_counts,
    "profile.fit_semiparametric": _semiparametric_counts,
}


class Tracer:
    """Spans in memory for every call across the wrapped boundaries."""

    def __init__(self):
        self.spans: list = []      # [name, start, end, parent index]
        self.extra: list = []      # per-span work counts (dict or None)
        self._stack: list = []
        self._saved: list = []

    def _open(self, name) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.extra.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself around its own steps."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.extra[idx] = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        wrapped = {}
        for module_name, attr, span in BOUNDARIES:
            module = importlib.import_module(f"semilogit.{module_name}")
            original = getattr(module, attr)
            key = (id(original), span)
            if key not in wrapped:
                wrapped[key] = self._wrap(span, original)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapped[key])
        return self

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def summary(self) -> dict:
        """Per span name: calls, s, self_s and the summed work counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += (end - start) - child_time[i]
            for key, value in (self.extra[i] or {}).items():
                agg[key] = agg.get(key, 0) + value
        return out

    def write(self, path):
        """All spans as JSON lines: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     **(self.extra[i] or {})}) + "\n")
