"""`perfbench/run.py --smoke` runs every workload on its smallest inputs."""

import json
import subprocess
import sys

from conftest import ROOT


def test_benchmark_smoke_run_is_correct():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
