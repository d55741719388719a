"""The benchmark harness still runs against the library.

perfbench calls resflow's entry points and reads TransportSolution fields
(converged, iterations, residuals); its self-test runs every workload at
reduced size and fails when an op fails or a metric is missing.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_self_test_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--self-test"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
