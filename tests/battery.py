"""Equivalence battery: random steps of every law, dumped and compared field by field.

The battery is 600 random instances drawn from default_rng(11), plus cold and
warm implicit steps on 64, 128 and 256 cells. Per random instance, in draw
order: the law cycles power / log / signed-power with the instance index; w
~ U(0.5, 1.5), q ~ U(0, 1), then beta ~ U(-0.5, 1) (power) or alpha ~ U(0.2,
1) (signed-power); n ~ integers in [1, 48]; tau log-uniform in [0.005, 1];
drift slope ~ U(-1, 1); the lower and upper wall densities ~ U(0.4, 1.5);
a ~ U(0, 0.5). The start is rho0 = 1 + a sin(2 pi x) on [0, 1]. An odd
instance is one fixed-target step to 1 + a cos(2 pi x); an even one is a cold
implicit step and then a warm one from its result and prices. The large
steps use the power law w = 1, beta = 0, q = 1, drift (0, 0.3), walls 1.0 /
0.8, tau 0.05 and rho0 = 1 + 0.1 sin(pi x).

Run from the repository root, with the library under test on the path:

    PYTHONPATH=src python tests/battery.py --dump A.pkl
    PYTHONPATH=src python tests/battery.py --compare A.pkl B.pkl

--dump writes, per solve, the plan as the nonzeros of gamma and every
field of the solution, or the StepFailure it raised. --compare prints, per
field, how many solves are bit-identical, the largest relative difference,
the failures on each side and the worst kkt_kappa; per stats key, each
side's total over the solves both sides ran ("-" where a side lacks the
key) and how many solves differ. It exits 1, naming them, when B raises on
a solve that A certified or returns converged=False there, and 0
otherwise, so "no certified solve lost" is the exit status, not a reading
of the table. A dump is a pickle: compare only dumps this script wrote. pytest does not collect this file; tests/test_battery.py
runs a third of the instances.
"""
from __future__ import annotations

import argparse
import math
import pickle
import sys
from typing import NamedTuple

import numpy as np

from resflow import (
    StepFailure,
    build_grid,
    build_model,
    make_reaction,
    solve_fixed_target,
    solve_jko_step,
)

KINDS = ("power", "log", "signed-power")
LARGE_CELLS = (64, 128, 256)


class Instance(NamedTuple):
    name: str
    kind: str
    params: dict
    n: int
    tau: float
    drift: float
    walls: tuple
    rho0: np.ndarray
    target: np.ndarray | None    # fixed-target step; None for a cold and a warm implicit step


def draw(count: int = 600, seed: int = 11) -> list[Instance]:
    """The random instances, in index order."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        kind = KINDS[i % 3]
        params = {"w": rng.uniform(0.5, 1.5), "q": rng.uniform(0.0, 1.0)}
        if kind == "power":
            params["beta"] = rng.uniform(-0.5, 1.0)
        elif kind == "signed-power":
            params["alpha"] = rng.uniform(0.2, 1.0)
        n = int(rng.integers(1, 49))
        tau = math.exp(rng.uniform(math.log(0.005), math.log(1.0)))
        drift = rng.uniform(-1.0, 1.0)
        walls = tuple(rng.uniform(0.4, 1.5, 2))
        a = rng.uniform(0.0, 0.5)
        x = build_grid(0.0, 1.0, n).cell_centers
        target = 1.0 + a * np.cos(2 * np.pi * x) if i % 2 else None
        out.append(Instance(f"instance {i}", kind, params, n, tau, drift, walls,
                            1.0 + a * np.sin(2 * np.pi * x), target))
    return out


def large() -> list[Instance]:
    """Cold and warm implicit steps of the README's drift model on finer grids."""
    out = []
    for n in LARGE_CELLS:
        x = build_grid(0.0, 1.0, n).cell_centers
        out.append(Instance(f"{n} cells", "power", {"w": 1.0, "beta": 0.0, "q": 1.0}, n,
                            0.05, 0.3, (1.0, 0.8), 1.0 + 0.1 * np.sin(np.pi * x), None))
    return out


def solves(inst: Instance):
    """Yield (label, mu, solution or StepFailure) for each solve of the instance."""
    model = build_model(0.0, 1.0, make_reaction(inst.kind, **inst.params),
                        drift=(0.0, inst.drift), boundary_density=inst.walls,
                        run_audit=False)
    grid = build_grid(0.0, 1.0, inst.n)
    mu = inst.rho0 * grid.cell_width
    if inst.target is not None:
        yield f"{inst.name} fixed", mu, _attempt(solve_fixed_target, model, grid, inst.tau,
                                                 mu, inst.target)
        return
    cold = _attempt(solve_jko_step, model, grid, inst.tau, mu)
    yield f"{inst.name} cold", mu, cold
    if isinstance(cold, StepFailure):
        return
    mu = cold.rho * grid.cell_width
    yield f"{inst.name} warm", mu, _attempt(solve_jko_step, model, grid, inst.tau, mu,
                                            init_phi_star=cold.phi_star)


def _attempt(solve, *args, **kwargs):
    try:
        return solve(*args, **kwargs)
    except StepFailure as exc:
        return exc


_FIELDS = ("h", "rho", "phi", "phi_star", "objective", "primal_value", "iterations",
           "converged")


def record(sol) -> dict:
    """Every field of a solve, the plan as the nonzeros of gamma."""
    if isinstance(sol, StepFailure):
        return {"failure": (sol.certificate, sol.value, sol.context)}
    gamma = sol.gamma
    rows, cols = np.nonzero(gamma)
    rec = {"plan": (rows, cols, gamma[rows, cols])}
    rec.update({key: getattr(sol, key) for key in _FIELDS})
    rec.update({f"residuals.{key}": val for key, val in sol.residuals.items()})
    rec["stats"] = dict(sol.stats)
    return rec


def dump(path: str) -> None:
    records = {}
    for inst in draw() + large():
        for label, _, sol in solves(inst):
            records[label] = record(sol)
    with open(path, "wb") as fh:
        pickle.dump(records, fh)
    failed = sum("failure" in rec for rec in records.values())
    print(f"{len(records)} solves, {failed} failures -> {path}")


def _bits(value) -> bytes:
    if isinstance(value, tuple):
        return b"|".join(_bits(v) for v in value)
    if isinstance(value, dict):
        return repr(sorted(value.items())).encode()
    return np.asarray(value).tobytes() + repr(np.shape(value)).encode()


def _rel(a, b) -> float:
    """Largest relative difference of two equally shaped fields; inf if shapes differ."""
    if isinstance(a, tuple):
        if any(np.shape(x) != np.shape(y) for x, y in zip(a, b)):
            return math.inf
        return max((_rel(x, y) for x, y in zip(a, b)), default=0.0)
    if isinstance(a, dict):
        return 0.0 if a == b else math.inf
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return math.inf
    if a.size == 0:
        return 0.0
    scale = np.maximum(np.abs(a), np.abs(b))
    diff = np.abs(a - b)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(diff == 0.0, 0.0, diff / scale)
    return float(np.max(rel))


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, "rb") as fh:
        a = pickle.load(fh)
    with open(path_b, "rb") as fh:
        b = pickle.load(fh)
    labels = [key for key in a if key in b]
    print(f"solves: {len(a)} in A, {len(b)} in B, {len(labels)} in both")
    for side, recs in (("A", a), ("B", b)):
        failed = [f"{key} ({rec['failure'][0]})" for key, rec in recs.items()
                  if "failure" in rec]
        print(f"failures in {side}: {len(failed)}" + (": " + ", ".join(failed) if failed else ""))
    both = [key for key in labels if "failure" not in a[key] and "failure" not in b[key]]
    fields = sorted(({f for key in both for f in a[key]} | {f for key in both for f in b[key]})
                    - {"stats"})
    print(f"{'field':28s} {'bit-identical':>15s} {'max rel diff':>13s}  at")
    for f in fields:
        same = 0
        worst, where = 0.0, "-"
        for key in both:
            va, vb = a[key].get(f), b[key].get(f)
            if _bits(va) == _bits(vb):
                same += 1
                continue
            rel = math.inf if va is None or vb is None else _rel(va, vb)
            if rel >= worst:
                worst, where = rel, key
        print(f"{f:28s} {same:>7d} / {len(both):<5d} {worst:13.3e}  {where}")
    keys = sorted({k for key in both for side in (a, b) for k in side[key]["stats"]})
    print(f"{'stats key':28s} {'total in A':>12s} {'total in B':>12s} {'solves differ':>14s}")
    for k in keys:
        totals = [sum(side[key]["stats"][k] for key in both) if all(
            k in side[key]["stats"] for key in both) else "-" for side in (a, b)]
        differ = sum(a[key]["stats"].get(k) != b[key]["stats"].get(k) for key in both)
        print(f"stats.{k:22s} {totals[0]:>12} {totals[1]:>12} {differ:>14d}")
    for side, recs in (("A", a), ("B", b)):
        kkt = [(rec["residuals.kkt_kappa"], key) for key, rec in recs.items()
               if "failure" not in rec]
        if kkt:
            val, key = max(kkt)
            print(f"worst kkt_kappa in {side}: {val:.3e} ({key})")
    lost = [key for key in labels if "failure" not in a[key] and a[key]["converged"]
            and ("failure" in b[key] or not b[key]["converged"])]
    print(f"certified in A, failed or unconverged in B: {len(lost)}"
          + (": " + ", ".join(lost) if lost else ""))
    return 1 if lost else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--dump", metavar="FILE", help="solve the battery and write every field")
    group.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two dumps")
    args = parser.parse_args(argv)
    if args.dump:
        dump(args.dump)
        return 0
    return compare(*args.compare)


if __name__ == "__main__":
    sys.exit(main())
