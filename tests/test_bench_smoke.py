"""The benchmark harness runs end to end: every check at tiny n."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_quick_run_is_correct():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--quick"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    # ``correct`` forgives the failures the harness lists as a known fault;
    # that fault is mended, so no check may fail
    assert result["failed"] == 0, proc.stdout[-2000:]
