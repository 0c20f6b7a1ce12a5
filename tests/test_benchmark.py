"""Smoke test of the benchmark harness against the current library."""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_quick_run_is_correct():
    # the tracer skips names the library no longer has, so a renamed or
    # deleted layer must still leave every workload runnable and checked
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
