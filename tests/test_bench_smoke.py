"""The benchmark harness runs end to end: every check at tiny n."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_quick(*flags):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--quick",
                           *flags], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    # ``correct`` forgives the failures the harness lists as a known fault;
    # that fault is mended, so no check may fail
    assert result["failed"] == 0, proc.stdout[-2000:]
    return result


def test_perfbench_quick_run_is_correct():
    run_quick()


def test_perfbench_traced_quick_run_is_correct():
    # the tracer wraps named module attributes, so it fails if one is renamed
    result = run_quick("--trace", "1")
    assert "cli-pipeline.dataio.run_fit.self_s" in result["metrics"]
    # one parametric fit, the semiparametric fit's start and 9 distinct IIA
    # fits at K = 4 (1 + 3 Hausman-McFadden, 2 + 3 Small-Hsiao)
    assert result["metrics"]["cli-pipeline.parametric.fit_parametric.calls"]["value"] == 11
