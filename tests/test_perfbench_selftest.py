"""The benchmark harness still runs against the library.

perfbench calls resflow's entry points and reads TransportSolution fields
(converged, iterations, residuals); its self-test runs every workload at
reduced size and fails when an op fails or a metric is missing.
"""
import importlib
import importlib.util
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


# sites that name code already deleted from resflow; the benchmark reads 0 there
_DEAD_SITES = {"generalized_scaling_solve", "linprog", "nnls"}


def test_perfbench_trace_sites_resolve(monkeypatch):
    """Every module attribute the tracer wraps exists, apart from the known dead sites.

    The tracer skips a site that no longer exists, so a renamed or deleted
    function would silently read 0 calls in the per-layer metrics.
    """
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    missing = {(module, attr) for module, attr, _, _ in tracing.SITES
               if not hasattr(importlib.import_module(module), attr)}
    assert {attr for _, attr in missing} == _DEAD_SITES, missing
