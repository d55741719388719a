"""CSV and report emission.

All files start with ``#``-prefixed header lines carrying a schema id, a
model fingerprint, and the step parameters that produced the data, followed
by one CSV header row and data rows. Floats are printed with 17 significant
digits, so writing and re-reading a file reproduces the doubles exactly;
re-running the same configuration reproduces the bytes exactly except for
the ``# written:`` line.
"""
from __future__ import annotations

import csv
import hashlib
import io as _io
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .fdref import FDSolution
from .flow import RefinementStudy, Trajectory
from .model import Model

TRAJECTORY_SCHEMA = "resflow-trajectory-v2"
SWEEP_SCHEMA = "resflow-sweep-v1"
FIELD_SCHEMA = "resflow-field-v1"


def _g17(value: float) -> str:
    return f"{float(value):.17g}"


def model_signature(model: Model) -> str:
    """Canonical one-line description of the model, input to the hash."""
    bd = model.boundary_density
    return (
        f"interval={_g17(model.x_lo)},{_g17(model.x_hi)};"
        f"reaction={model.reaction.canonical_key()};"
        f"drift={_g17(model.drift_coeff[0])},{_g17(model.drift_coeff[1])};"
        f"boundary_density={_g17(bd[0])},{_g17(bd[1])}"
    )


def model_hash(model: Model) -> str:
    return hashlib.sha256(model_signature(model).encode()).hexdigest()[:12]


def _header(schema: str, model: Model, extra: list[str]) -> list[str]:
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    return [
        f"# schema: {schema}",
        f"# model: {model_hash(model)}",
        *extra,
        f"# written: {stamp}",
    ]


def write_trajectory_csv(path: str | Path, trajectory: Trajectory, model: Model) -> None:
    """One row per (step, cell); h and phi_star are empty on step 0."""
    n = trajectory.grid.n_cells
    x = trajectory.grid.cell_centers
    buf = _io.StringIO()
    for line in _header(TRAJECTORY_SCHEMA, model, [
        f"# tau: {_g17(trajectory.tau)} t_final: {_g17(trajectory.t_final)}",
    ]):
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["step", "t", "x", "rho", "h", "phi_star"])
    for k in range(trajectory.n_steps + 1):
        sol = trajectory.solutions[k]
        for i in range(n):
            writer.writerow([
                k,
                _g17(trajectory.times[k]),
                _g17(x[i]),
                _g17(trajectory.densities[k, i]),
                "" if sol is None else _g17(sol.h[i]),
                "" if sol is None else _g17(sol.phi_star[i]),
            ])
    Path(path).write_text(buf.getvalue())


@dataclass(frozen=True)
class TrajectoryTable:
    """Per-step arrays read back from a trajectory CSV (nan where empty)."""

    times: np.ndarray
    x: np.ndarray
    rho: np.ndarray
    h: np.ndarray
    phi_star: np.ndarray


def read_trajectory_csv(path: str | Path) -> TrajectoryTable:
    rows = []
    with open(path, newline="") as handle:
        for record in csv.reader(line for line in handle if not line.startswith("#")):
            if record and record[0] != "step":
                step, t, x, rho, h, ps = record
                rows.append((int(step), float(t), float(x), float(rho),
                             float(h) if h else math.nan,
                             float(ps) if ps else math.nan))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    steps = sorted({r[0] for r in rows})
    xs = sorted({r[2] for r in rows})
    index = {v: i for i, v in enumerate(xs)}
    shape = (len(steps), len(xs))
    times = np.full(len(steps), math.nan)
    rho = np.full(shape, math.nan)
    h = np.full(shape, math.nan)
    ps = np.full(shape, math.nan)
    for step, t, x, r, hv, pv in rows:
        times[step] = t
        rho[step, index[x]] = r
        h[step, index[x]] = hv
        ps[step, index[x]] = pv
    return TrajectoryTable(times=times, x=np.array(xs), rho=rho, h=h, phi_star=ps)


def write_sweep_csv(path: str | Path, study: RefinementStudy, model: Model) -> None:
    buf = _io.StringIO()
    for line in _header(SWEEP_SCHEMA, model, []):
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["tau", "error"])
    for tau, err in zip(study.taus, study.errors):
        writer.writerow([_g17(tau), _g17(err)])
    buf.write(f"# fitted_order = {_g17(study.fitted_order)}\n")
    Path(path).write_text(buf.getvalue())


def write_field_csv(path: str | Path, solution: FDSolution, model: Model) -> None:
    """Reference-solver output: one row per (time, cell)."""
    x = solution.grid.cell_centers
    buf = _io.StringIO()
    dt = solution.times[1] - solution.times[0] if len(solution.times) > 1 else 0.0
    for line in _header(FIELD_SCHEMA, model, [f"# dt: {_g17(dt)}"]):
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "x", "rho"])
    for k, t in enumerate(solution.times):
        for i in range(solution.grid.n_cells):
            writer.writerow([_g17(t), _g17(x[i]), _g17(solution.values[k, i])])
    Path(path).write_text(buf.getvalue())


def emit_report(title: str, sections: dict[str, dict[str, object]]) -> str:
    """Aligned human-readable report; values formatted but never rounded."""
    lines = [title, "=" * len(title)]
    for name, mapping in sections.items():
        lines.append("")
        lines.append(f"[{name}]")
        width = max((len(k) for k in mapping), default=0)
        for key, value in mapping.items():
            if isinstance(value, float):
                value = _g17(value)
            lines.append(f"  {key:<{width}}  {value}")
    return "\n".join(lines) + "\n"
