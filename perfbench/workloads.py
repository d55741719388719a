"""The three benchmark workloads: inputs, one op each, and its correctness checks.

Every op is a closed-loop sequence of public resflow calls, looked up as
module attributes at call time so that the traced run can wrap them. The
inputs come only from the seeded generator handed to ``make_input``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from resflow import build_grid, build_model, make_reaction
from resflow import fdref, flow, oracle, transport
from resflow import io as rf_io

# an op fails beyond these; the marginal and oracle ones are `resflow verify`'s
GAP_TOL = 1e-8
MARGINAL_TOL = 1e-10
ORACLE_VALUE_TOL = 1e-6
ORACLE_H_TOL = 1e-4
LEDGER_SLACK_TOL = -1e-10

TAU = 0.05
DRIFT = (0.0, 0.3)
WALLS = (1.0, 0.8)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``make_input`` draws the input of the next op from the seeded generator.
    """

    name: str
    config_text: str
    make_input: Callable[[np.random.Generator], dict]
    run: Callable[[dict, Path], dict]
    check: Callable[[dict, dict], list[str]]
    solves: Callable[[dict], int]


def solution_failures(sol, mu: np.ndarray, tau: float, dx: float, label: str) -> list[str]:
    """Certificate, marginal and wall checks of one transport solution."""
    out = []
    gap = sol.residuals.get("polish_gap", math.inf)
    if not sol.converged or not gap <= GAP_TOL:
        out.append(f"{label}: converged={sol.converged} polish_gap={gap:.3e}")
    n = len(mu)
    row_err = float(np.max(np.abs(sol.gamma[:n].sum(axis=1) - mu)))
    col_err = float(np.max(np.abs(
        sol.gamma[:, :n].sum(axis=0) - (sol.rho + tau * sol.h) * dx)))
    if not max(row_err, col_err) <= MARGINAL_TOL:
        out.append(f"{label}: marginal error row {row_err:.3e} col {col_err:.3e}")
    wall_wall = float(sol.gamma[n:, n:].sum())
    if wall_wall != 0.0:
        out.append(f"{label}: wall-to-wall mass {wall_wall:.3e}")
    return out


def trajectory_failures(traj) -> list[str]:
    out = []
    dx = traj.grid.cell_width
    for k in range(1, traj.n_steps + 1):
        out += solution_failures(traj.solutions[k], traj.densities[k - 1] * dx,
                                 traj.tau, dx, f"step {k}")
    if not flow.barrier_check(traj).ok:
        out.append("barrier_check failed")
    return out


def sine_density(grid, amplitude: float, mode: int) -> np.ndarray:
    s = (grid.cell_centers - grid.x_lo) / (grid.x_hi - grid.x_lo)
    return 1.0 + amplitude * np.sin(mode * np.pi * s)


def config_text(n_cells: int, reaction: str, params: dict, t_final: float) -> str:
    lines = [
        f"domain.n_cells = {n_cells}",
        f"model.reaction = {reaction}",
        *(f"model.{k} = {v}" for k, v in params.items()),
        f"model.drift = {DRIFT[0]}, {DRIFT[1]}",
        f"model.boundary_density = {WALLS[0]}, {WALLS[1]}",
        f"scheme.tau = {TAU}",
        f"scheme.t_final = {t_final}",
        "initial.kind = sine",
        "initial.amplitude = 0.1",
    ]
    return "\n".join(lines) + "\n"


def sine_input(rng: np.random.Generator) -> dict:
    return {"amplitude": float(rng.uniform(0.05, 0.2)), "mode": int(rng.integers(1, 4))}


# -- traj-64 ----------------------------------------------------------------


def traj_workload(n_cells: int = 64, n_steps: int = 3) -> Workload:
    """`resflow solve`: a power-law trajectory with diagnostics, written as CSV."""
    params = {"w": 1.0, "beta": 0.0, "q": 1.0}
    model = build_model(0.0, 1.0, make_reaction("power", **params),
                        drift=DRIFT, boundary_density=WALLS)
    grid = build_grid(0.0, 1.0, n_cells)
    t_final = n_steps * TAU

    def run(inp: dict, scratch: Path) -> dict:
        rho0 = sine_density(grid, inp["amplitude"], inp["mode"])
        traj = flow.run_minimizing_movement(model, grid, rho0, TAU, t_final,
                                            with_diagnostics=True)
        path = scratch / "trajectory.csv"
        rf_io.write_trajectory_csv(path, traj, model)
        return {"traj": traj, "csv": path}

    def check(inp: dict, out: dict) -> list[str]:
        fails = trajectory_failures(out["traj"])
        if any(s.diagnostics is None for s in out["traj"].solutions[1:]):
            fails.append("a step carries no diagnostics")
        rows = out["csv"].read_text().count("\n")
        if rows < (n_steps + 1) * n_cells:
            fails.append(f"trajectory CSV has only {rows} lines")
        return fails

    return Workload(
        name=f"traj-{n_cells}",
        config_text=config_text(n_cells, "power", params, t_final),
        make_input=sine_input, run=run, check=check,
        solves=lambda out: out["traj"].n_steps,
    )


# -- audit-32 ---------------------------------------------------------------


def audit_workload(n_cells: int = 32, n_steps: int = 2) -> Workload:
    """`resflow compare` plus the dissipation ledger on the log law."""
    params = {"w": 1.2, "q": 0.3}
    model = build_model(0.0, 1.0, make_reaction("log", **params),
                        drift=DRIFT, boundary_density=WALLS)
    grid = build_grid(0.0, 1.0, n_cells)
    fine = build_grid(0.0, 1.0, 4 * n_cells)
    t_final = n_steps * TAU

    def run(inp: dict, scratch: Path) -> dict:
        traj = flow.run_minimizing_movement(
            model, grid, sine_density(grid, inp["amplitude"], inp["mode"]),
            TAU, t_final, with_diagnostics=False)
        ledger = flow.dissipation_ledger(traj, model)
        ref = fdref.solve_fd(model, fine, sine_density(fine, inp["amplitude"], inp["mode"]),
                             t_final, TAU / 8.0)
        dist = fdref.compare_trajectories(grid, traj.times, traj.densities,
                                          ref.grid, ref.times, ref.values)
        return {"traj": traj, "ledger": ledger, "fd_l2_distance": dist}

    def check(inp: dict, out: dict) -> list[str]:
        fails = trajectory_failures(out["traj"])
        slack = min(row.slack for row in out["ledger"])
        if not slack >= LEDGER_SLACK_TOL:
            fails.append(f"ledger slack {slack:.3e}")
        if not math.isfinite(out["fd_l2_distance"]):
            fails.append(f"fd_l2_distance {out['fd_l2_distance']}")
        return fails

    return Workload(
        name=f"audit-{n_cells}",
        config_text=config_text(n_cells, "log", params, t_final),
        make_input=sine_input, run=run, check=check,
        solves=lambda out: out["traj"].n_steps + len(out["ledger"]),
    )


# -- tiny-oracle --------------------------------------------------------------

# the reaction presets and parameter ranges of `resflow verify`
PRESETS = (
    ("power", {"w": 1.0, "beta": 0.5, "q": 0.8}),
    ("log", {"w": 1.2, "q": 0.3}),
    ("signed-power", {"w": 1.0, "alpha": 0.5, "q": 0.4}),
)
VERIFY_SEED = 20260814


def _tiny_battery(kinds: int) -> list[dict]:
    """Base instances, drawn once with the generator and ranges of `resflow verify`.

    Kind t uses law t % 3, the implicit step for even t and the fixed-target
    cost for odd t, on 1 + (t // 3) % 2 cells. Three cells are left out: the
    3-cell oracle takes 13-24 s per call, most of a run.
    """
    rng = np.random.default_rng(VERIFY_SEED)
    battery = []
    for t in range(kinds):
        n = 1 + (t // 3) % 2
        battery.append({
            "law": t % 3, "implicit": t % 2 == 0,
            "boundary": float(rng.uniform(0.8, 1.2)), "tau": float(rng.uniform(0.1, 0.3)),
            "mu": rng.uniform(0.3, 1.5, n), "rho": rng.uniform(0.3, 1.5, n),
        })
    return battery


def tiny_workload(kinds: int = 6) -> Workload:
    """`resflow verify`'s brute-force section: fast solves checked by the oracle.

    One op runs the whole battery, one instance of each kind, in an order
    drawn from the seed. The instances are fixed, as in verify: the sweep
    count of a solve is erratic in its parameters (one kind takes 313 or 2116
    sweeps over verify's ranges; a 0.1 % jitter still moved another from 7 s
    to 12 s), far more than a run of one or two ops can average away.
    """
    battery = _tiny_battery(kinds)
    grids = {n: build_grid(0.0, 1.0, n) for n in (1, 2)}

    def make_input(rng: np.random.Generator) -> dict:
        return {"order": [int(i) for i in rng.permutation(kinds)]}

    def solve_one(inst: dict) -> dict:
        kind, params = PRESETS[inst["law"]]
        grid = grids[len(inst["mu"])]
        model = build_model(0.0, 1.0, make_reaction(kind, **params),
                            boundary_density=inst["boundary"], run_audit=False)
        mu = inst["mu"] * grid.cell_width
        if inst["implicit"]:
            sol = transport.solve_jko_step(model, grid, inst["tau"], mu)
            ref = oracle.brute_force_small(model, grid, inst["tau"], mu)
        else:
            sol = transport.solve_fixed_target(model, grid, inst["tau"], mu, inst["rho"])
            ref = oracle.brute_force_small(model, grid, inst["tau"], mu, rho=inst["rho"])
        return {"kind": kind, "tau": inst["tau"], "sol": sol, "ref": ref,
                "mu": mu, "dx": grid.cell_width}

    def run(inp: dict, scratch: Path) -> dict:
        return {"instances": [solve_one(battery[i]) for i in inp["order"]]}

    def check(inp: dict, out: dict) -> list[str]:
        fails = []
        for t, one in zip(inp["order"], out["instances"]):
            sol, ref = one["sol"], one["ref"]
            label = f"kind {t} ({one['kind']})"
            fails += solution_failures(sol, one["mu"], one["tau"], one["dx"], label)
            obj_err = abs(sol.objective - ref.value)
            h_err = float(np.max(np.abs(sol.h - ref.h)))
            if not obj_err <= ORACLE_VALUE_TOL:
                fails.append(f"{label}: oracle objective disagreement {obj_err:.3e}")
            if not h_err <= ORACLE_H_TOL:
                fails.append(f"{label}: oracle creation-field disagreement {h_err:.3e}")
        return fails

    return Workload(
        name="tiny-oracle",
        config_text=config_text(2, "power", PRESETS[0][1], 0.2),
        make_input=make_input, run=run, check=check,
        solves=lambda out: len(out["instances"]),
    )


def make_workload(name: str, smoke: bool = False) -> Workload:
    """The named workload; smoke gives a reduced size for the self-test."""
    if name == "traj-64":
        return traj_workload(n_steps=1 if smoke else 3)
    if name == "audit-32":
        return audit_workload(n_steps=1 if smoke else 2)
    if name == "tiny-oracle":
        return tiny_workload(kinds=2 if smoke else 6)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("traj-64", "tiny-oracle", "audit-32")
