"""Closed-loop benchmark of resflow's certified implicit step.

One caller in one process issues an op, waits for it, checks its outputs and
issues the next, for --seconds seconds. Run from the checkout root:

    python3 perfbench/run.py --workload traj-64 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --self-test

--trace 0 prints the end-to-end metrics of unwrapped ops; --trace 1 runs
every input twice, plain and traced, and prints the per-layer metrics. The
last line of stdout is the JSON result; spans and the full record are
written under .perfbench/ in the checkout.
"""
from __future__ import annotations

import os

# arrays are at most 66 x 66: pin the BLAS pools before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5

if not (ROOT / "src" / "resflow" / "__init__.py").is_file():
    sys.stderr.write(f"no resflow sources under {ROOT / 'src'}; run from a full checkout\n")
    sys.exit(2)
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


@dataclasses.dataclass
class RunResult:
    workload: str
    seed: int
    trace: int
    attempted: int
    failed: int
    metrics: dict          # name -> (value, unit)
    details: dict


def measure_setup(config_text: str, repeats: int) -> dict:
    """Median of each set-up phase over fresh interpreters."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    samples = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, str(probe), str(ROOT)], input=config_text,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def run_op(workload, inp: dict, scratch: Path, tracer, op_id: int) -> tuple[float, int, list[str]]:
    """One op: (wall seconds, certified solves, failure reasons). Never retried."""
    start = time.perf_counter()
    try:
        if tracer is None:
            out = workload.run(inp, scratch)
        else:
            with tracer.op(op_id):
                out = workload.run(inp, scratch)
    except Exception:  # a raised solver error fails the op; the run goes on
        return time.perf_counter() - start, 0, ["raised: " + traceback.format_exc()]
    wall = time.perf_counter() - start
    fails = workload.check(inp, out)
    return wall, 0 if fails else workload.solves(out), fails


def measure(workload, seed: int, seconds: float, trace: int,
            setup_repeats: int = SETUP_REPEATS) -> RunResult:
    """Set up, then run ops until the next one would overrun the window."""
    setup = measure_setup(workload.config_text, setup_repeats)
    rng = np.random.default_rng(seed)
    tracer = tracing.Tracer() if trace else None
    plain, traced, rates = [], [], []
    attempted = failed = 0
    scratch = OUT_DIR / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        deadline = time.perf_counter() + seconds
        k = 0
        while True:
            op_start = time.perf_counter()
            inp = workload.make_input(rng)
            # in a traced run each input runs plain and traced, in alternating order
            modes = [False] if not trace else ([False, True] if k % 2 == 0 else [True, False])
            for with_trace in modes:
                wall, n, fails = run_op(workload, inp, scratch,
                                        tracer if with_trace else None, k)
                attempted += 1
                (traced if with_trace else plain).append(wall)
                if not with_trace:
                    rates.append(n / wall)
                if fails:
                    failed += 1
                    sys.stderr.write(f"op {k} failed: {'; '.join(fails)}\n")
            k += 1
            # start another input only if it is expected to end inside the window
            now = time.perf_counter()
            if now + (now - op_start) > deadline:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    q1, p50, q3 = _quartiles(plain)
    details = {"ops": len(plain), "op_s_q1": q1, "op_s_q3": q3, "op_s_p50": p50,
               "op_s_all": plain, "setup": setup}
    if trace:
        # paired on identical inputs, so differences between inputs cancel out
        overhead = statistics.median(t / p for t, p in zip(traced, plain)) - 1.0
        metrics = tracing.layer_metrics(tracer.spans, setup, overhead)
        details["traced_op_s"] = traced
        details["spans"] = tracer.dump()
    else:
        metrics = {
            "setup_s": (setup["setup_s"], "s"),
            "op_s_p50": (p50, "s"),
            "steps_per_s": (statistics.median(rates), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    return RunResult(workload.name, seed, trace, attempted, failed, metrics, details)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, p50, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, p50, q3


def environment() -> dict:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = done.stdout.strip() if done.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def summary(res: RunResult) -> dict:
    return {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in res.metrics.items()},
    }


def report(res: RunResult) -> str:
    d = res.details
    lines = [
        f"workload {res.workload}  seed {res.seed}  trace {res.trace}: "
        f"{res.attempted} ops attempted, {res.failed} failed "
        f"(failed_fraction {res.failed / res.attempted:.4g})",
        f"  untraced ops: n={d['ops']}  q1={d['op_s_q1']:.4f} s  p50={d['op_s_p50']:.4f} s  "
        f"q3={d['op_s_q3']:.4f} s",
    ]
    lines += [f"  {name} = {value:.6g} {unit}" for name, (value, unit) in res.metrics.items()]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at reduced size and check the harness")
    args = parser.parse_args(argv)
    if args.self_test:
        import selftest
        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")

    env = environment()
    env["loadavg_start"] = loadavg()
    res = measure(workloads.make_workload(args.workload), args.seed, args.seconds, args.trace)
    env["loadavg_end"] = loadavg()

    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{res.workload}-seed{res.seed}-trace{res.trace}.json"
    record.write_text(json.dumps({"environment": env, "details": res.details,
                                  **summary(res)}, indent=1))
    print(report(res))
    print("environment " + json.dumps(env))
    print(f"record {record.relative_to(ROOT)}")
    print(json.dumps(summary(res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
