#!/usr/bin/env python3
"""semilogit benchmark: end-to-end times of four workloads, or per-layer
figures from a traced run.

    python3 perfbench/run.py --workload k2-cached --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1       # every workload
    python3 perfbench/run.py --quick                       # tiny-n smoke run

The package is imported from ``src/`` next to this directory; nothing is
installed.  A run repeats whole rounds of its workload's operations until
``--seconds`` have passed, checks every operation's outputs, and prints as
its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 1`` it runs one untraced and two traced
rounds on the same inputs instead, and reports the per-layer metrics; the
spans are written to ``.perfbench/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread: the box the figures come from has two cores and is
# shared, and one thread is as fast there as two on these workloads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Metric names and units come from BENCHMARK.json.  A per-layer name is
# "<span>.<field>" of the traced summary, apart from the three derived in
# _layer_metrics and run_traced.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

# Counts that do not depend on the machine: they must repeat exactly.
EXACT_COUNTS = [name for name, unit in PER_LAYER.items() if unit == "count"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default=None,
                   help="workload name, or 'all' (default: all with --quick)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="one round of every check at tiny n")
    args = p.parse_args(argv)
    if args.workload is None:
        if not args.quick:
            p.error("--workload is required (or give --quick)")
        args.workload = "all"
    return args


def import_seconds(repeats=9):
    """Median time to import the package afresh, with numpy already loaded;
    every semilogit module is dropped from sys.modules before each import."""
    times = []
    for _ in range(repeats):
        for name in [m for m in sys.modules if m.split(".")[0] == "semilogit"]:
            del sys.modules[name]
        t0 = time.perf_counter()
        importlib.import_module("semilogit")
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def log(line):
    print(line, flush=True)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_ops(workload, inputs, ops):
    """(failed, unexpected) counts; the known fault is not unexpected."""
    from workloads import KNOWN_FAULT

    failed = unexpected = 0
    for op in ops:
        try:
            fails = workload.check(inputs, op)
        except Exception as err:  # a check that cannot run is a failure
            fails = [f"check raised {err!r}"]
        status = "ok" if not fails else "FAILED: " + "; ".join(fails)
        log(f"  {inputs['round']}:{op['kind']:<15} {op['s']:9.4f} s  "
            f"{op.get('note', ''):<14} {status}")
        if fails:
            failed += 1
            known = (workload.name, op["kind"]) == KNOWN_FAULT[:2] and all(
                f.startswith(KNOWN_FAULT[2]) for f in fails)
            unexpected += not known
    return failed, unexpected


def run_measured(workload, seed, seconds, quick, workdir, import_s):
    gen_times, round_times, rounds = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        inputs = workload.make_inputs(seed, len(rounds), quick)
        t1 = time.perf_counter()
        ops = workload.run_round(inputs, workdir)
        t2 = time.perf_counter()
        gen_times.append(t1 - t0)
        round_times.append(t2 - t1)
        rounds.append((inputs, ops))
        if quick or t2 - start >= seconds:
            break
    peak = peak_rss_mb()

    attempted = failed = unexpected = 0
    for inputs, ops in rounds:
        f, u = check_ops(workload, inputs, ops)
        attempted += len(ops)
        failed += f
        unexpected += u
    all_ops = [op for _, ops in rounds for op in ops]
    metrics = {
        "setup_s": import_s + statistics.median(gen_times),
        "fit_s": statistics.median(op["s"] for op in all_ops if op["kind"] == "fit"),
        "surface_pts_per_s": statistics.median(
            op["points"] / op["s"] for op in all_ops if op["kind"] == "surface"),
        "round_s": statistics.median(round_times),
        "peak_rss_mb": peak,
    }
    return unexpected == 0, attempted, failed, {
        k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def run_traced(workload, seed, quick, workdir):
    """Two traced rounds with an untraced one between them, all on the
    same inputs; the first pays any warm-up, which errs towards a larger
    tracing overhead."""
    from tracing import Tracer

    passes = []
    for label in ("traced-1", "untraced", "traced-2"):
        tracer = Tracer().install() if label != "untraced" else None
        span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
        try:
            with span("bench.setup"):
                inputs = workload.make_inputs(seed, 0, quick)
            t1 = time.perf_counter()
            with span("bench.round"):
                ops = workload.run_round(inputs, workdir / label)
            round_s = time.perf_counter() - t1
        finally:
            if tracer:
                tracer.uninstall()
        passes.append((tracer, inputs, ops, round_s))
    _, inputs, base_ops, base_s = passes.pop(1)

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    passes[0][0].write(spans_path)
    log(f"  spans written to {spans_path}")

    failed, unexpected = check_ops(workload, inputs, base_ops)
    consistent = True
    for _, _, ops, _ in passes:
        for a, b in zip(base_ops, ops):
            if not workload.same_outputs(a, b):
                log(f"  {a['kind']}: traced rerun gave different outputs")
                consistent = False

    layer = [_layer_metrics(tracer.summary(), ops) for tracer, _, ops, _ in passes]
    for name in EXACT_COUNTS:
        if layer[0][name] != layer[1][name]:
            log(f"  {name} differs between reruns: {layer[0][name]} vs {layer[1][name]}")
            consistent = False
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_pct":
            traced_s = statistics.mean(s for *_, s in passes)
            value = 100.0 * (traced_s / base_s - 1.0)
        elif unit == "count":
            value = layer[0][name]
        else:
            value = statistics.mean(m[name] for m in layer)
        metrics[name] = {"value": value, "unit": unit}
    return (unexpected == 0 and consistent), len(base_ops), failed, metrics


def _layer_metrics(summary, ops):
    out = {}
    for name in PER_LAYER:
        span, field = name.rsplit(".", 1)
        out[name] = summary.get(span, {}).get(field, 0)
    sig = summary.get("core.sigmoid")
    out["core.sigmoid.elements_per_s"] = sig["elements"] / sig["s"] if sig else 0.0
    out["dataio.artifact_bytes"] = sum(op.get("bytes", 0) for op in ops)
    return out


def run_one(workload, args, import_s):
    workdir = OUT / f"work-{os.getpid()}-{workload.name}"
    log(f"# {workload.name}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}"
        f"{'  quick' if args.quick else ''}")
    try:
        if args.trace:
            result = run_traced(workload, args.seed, args.quick, workdir)
        else:
            result = run_measured(workload, args.seed, args.seconds, args.quick,
                                  workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct, attempted, failed, metrics = result
    for key, m in metrics.items():
        log(f"  {key:<42} {m['value']:.6g} {m['unit']}")
    log(f"  attempted={attempted} failed={failed} correct={correct}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "semilogit" / "__init__.py").is_file():
        print(f"perfbench: no semilogit package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy  # noqa: F401  (loaded first, so that only the package's import is timed)
    import_s = import_seconds()
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}; "
              f"choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2

    results = {name: run_one(WORKLOADS[name], args, import_s) for name in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        for name, res in results.items():
            log(f"{name}: " + json.dumps(res))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
