"""Command-line driver.

Subcommands: solve (one trajectory + diagnostics), sweep (step-size
refinement study), oracle (reference finite-difference solve), compare
(trajectory vs reference distance), audit (model assumption checks), verify
(invariant battery on small grids, including brute-force equivalence).

Exit codes: 0 success; 2 configuration problem (ConfigError); 3 solver
failure (RuntimeError, such as a StepFailure naming the step and the failed
certificate); 4 verification failure; 1 any other error, a program fault.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import flow, io
from .config import ConfigError, ExperimentConfig, parse_config
from .fdref import compare_trajectories, solve_fd, step_count
from .grid import build_grid
from .model import build_model
from .oracle import brute_force_small
from .reactions import make_reaction
from .transport import solve_fixed_target, solve_jko_step

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4


class VerificationFailure(Exception):
    """An invariant or audit check did not hold."""


def _load_config(args) -> ExperimentConfig:
    if args.config is None:
        cfg = ExperimentConfig()
    else:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        cfg = parse_config(text)
    if getattr(args, "output", None) is not None:
        cfg = dataclasses.replace(
            cfg, output=dataclasses.replace(cfg.output, directory=args.output))
    return cfg


def _out_path(cfg: ExperimentConfig, name: str) -> Path:
    directory = Path(cfg.output.directory)
    directory.mkdir(parents=True, exist_ok=True)
    return directory / name


def _reference_dt(t_final: float, target: float) -> float:
    return t_final / max(1, int(math.ceil(t_final / target - 1e-9)))


def _check_reference_dt(t_final: float, dt: float, source: str) -> None:
    """ConfigError unless the reference time step dt, set by source, divides t_final."""
    try:
        step_count(t_final, dt)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def _fd_reference(cfg: ExperimentConfig, model, grid):
    fine = build_grid(grid.x_lo, grid.x_hi, grid.n_cells * flow.REFERENCE_SPACE_FACTOR)
    dt = _reference_dt(cfg.scheme.t_final,
                       min(cfg.scheme.tau_list) / flow.REFERENCE_TIME_FACTOR)
    return solve_fd(model, fine, cfg.initial_density(fine), cfg.scheme.t_final, dt)


def _cmd_solve(args) -> int:
    cfg = _load_config(args)
    grid = cfg.build_grid()
    model = cfg.build_model()
    traj = flow.run_minimizing_movement(
        model, grid, cfg.initial_density(grid), cfg.scheme.tau, cfg.scheme.t_final,
        with_diagnostics=cfg.output.diagnostics,
    )
    path = _out_path(cfg, "trajectory.csv")
    io.write_trajectory_csv(path, traj, model)

    check = flow.barrier_check(traj)
    steps = traj.solutions[1:]
    worst = {key: max(abs(sol.residuals[key]) for sol in steps)
             for key in ("polish_gap", "kkt_kappa", "concavity_gap", "support_slack")}
    lp = (f"{max(sol.stats['lp_arcs'] for sol in steps)} arcs max, "
          f"{sum(sol.stats['pricing_rounds'] for sol in steps)} pricing rounds, "
          f"{sum(sol.stats['rejected_candidates'] for sol in steps)} rejected candidates, "
          f"{sum(sol.stats['prune_passes'] for sol in steps)} prune passes, "
          f"{sum(sol.stats['simplex_iterations'] for sol in steps)} simplex iterations")
    sections = {
        "model": {"hash": io.model_hash(model), "signature": io.model_signature(model)},
        "run": {"steps": traj.n_steps, "tau": traj.tau, "t_final": traj.t_final,
                "trajectory": str(path), "lp": lp},
        "energy": {"initial": float(traj.energies[0]), "final": float(traj.energies[-1]),
                   "total_step_cost": float(np.sum(traj.step_costs))},
        "barriers": {"ok": check.ok, "worst_margin": check.worst_margin,
                     "worst_step": check.worst_step},
        "residuals": worst,
    }
    report = io.emit_report("trajectory run", sections)
    _out_path(cfg, "report.txt").write_text(report)
    sys.stdout.write(report)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    if len(cfg.scheme.tau_list) < 3:
        raise ConfigError("sweep needs scheme.tau_list with at least 3 decreasing entries")
    _check_reference_dt(cfg.scheme.t_final,
                        cfg.scheme.tau_list[-1] / flow.REFERENCE_TIME_FACTOR,
                        "scheme.tau_list (reference step of the smallest tau)")
    grid = cfg.build_grid()
    model = cfg.build_model()
    fine = build_grid(grid.x_lo, grid.x_hi, grid.n_cells * flow.REFERENCE_SPACE_FACTOR)
    study = flow.tau_refinement_study(
        model, grid, cfg.initial_density(grid), cfg.scheme.t_final,
        cfg.scheme.tau_list, rho0_fine=cfg.initial_density(fine),
    )
    path = _out_path(cfg, "sweep.csv")
    io.write_sweep_csv(path, study, model)
    rows = {f"tau={tau:g}": err for tau, err in zip(study.taus, study.errors)}
    rows["fitted_order"] = study.fitted_order
    sys.stdout.write(io.emit_report("step-size refinement study", {
        "model": {"hash": io.model_hash(model)},
        "errors": rows,
        "output": {"table": str(path)},
    }))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    cfg = _load_config(args)
    grid = cfg.build_grid()
    model = cfg.build_model()
    dt = args.dt
    if dt is None:
        dt = _reference_dt(cfg.scheme.t_final, cfg.scheme.tau / flow.REFERENCE_TIME_FACTOR)
    _check_reference_dt(cfg.scheme.t_final, dt, "--dt")
    sol = solve_fd(model, grid, cfg.initial_density(grid), cfg.scheme.t_final, dt)
    path = _out_path(cfg, "reference.csv")
    io.write_field_csv(path, sol, model)
    sys.stdout.write(io.emit_report("reference solve", {
        "model": {"hash": io.model_hash(model)},
        "run": {"dt": dt, "steps": len(sol.times) - 1, "field": str(path)},
        "newton": {"max_iterations": sol.max_newton_iters, "halvings": sol.halvings_used},
    }))
    return EXIT_OK


def _cmd_compare(args) -> int:
    cfg = _load_config(args)
    grid = cfg.build_grid()
    model = cfg.build_model()
    tau = min(cfg.scheme.tau_list)
    traj = flow.run_minimizing_movement(
        model, grid, cfg.initial_density(grid), tau, cfg.scheme.t_final,
        with_diagnostics=False,
    )
    ref = _fd_reference(cfg, model, grid)
    dist = compare_trajectories(grid, traj.times, traj.densities,
                                ref.grid, ref.times, ref.values)
    sys.stdout.write(io.emit_report("trajectory vs reference", {
        "model": {"hash": io.model_hash(model)},
        "comparison": {"tau": tau, "t_final": cfg.scheme.t_final,
                       "interior_l2_distance": dist},
    }))
    return EXIT_OK


def _cmd_audit(args) -> int:
    cfg = _load_config(args)
    model = cfg.build_model()
    audit = model.audit
    rows = {}
    for check in audit.checks:
        verdict = "pass" if check.ok else "FAIL"
        rows[check.check_id] = f"{verdict}  worst={check.worst:.6g}"
    sys.stdout.write(io.emit_report("model assumption audit", {
        "model": {"hash": io.model_hash(model), "signature": io.model_signature(model)},
        "constants": {"s": audit.s, "s1": audit.s1, "b0": audit.b0, "c0": audit.c0},
        "checks": rows,
    }))
    if not audit.ok:
        raise VerificationFailure("one or more model assumption checks failed")
    return EXIT_OK


def _verify_battery():
    """Yield (name, ok, worst measure) for the built-in invariant suite."""
    rng = np.random.default_rng(20260814)
    presets = [
        ("power", {"w": 1.0, "beta": 0.5, "q": 0.8}),
        ("log", {"w": 1.2, "q": 0.3}),
        ("signed-power", {"w": 1.0, "alpha": 0.5, "q": 0.4}),
    ]

    # brute-force equivalence on tiny instances, fixed-target and implicit
    worst_val = 0.0
    worst_h = 0.0
    for trial in range(6):
        kind, params = presets[trial % 3]
        n = 1 + trial % 3
        grid = build_grid(0.0, 1.0, n)
        model = build_model(0.0, 1.0, make_reaction(kind, **params),
                            boundary_density=float(rng.uniform(0.8, 1.2)),
                            run_audit=False)
        tau = float(rng.uniform(0.1, 0.3))
        mu = rng.uniform(0.3, 1.5, n) * grid.cell_width
        if trial % 2:
            rho = rng.uniform(0.3, 1.5, n)
            sol = solve_fixed_target(model, grid, tau, mu, rho)
            ref = brute_force_small(model, grid, tau, mu, rho=rho)
        else:
            sol = solve_jko_step(model, grid, tau, mu)
            ref = brute_force_small(model, grid, tau, mu)
        worst_val = max(worst_val, abs(sol.objective - ref.value))
        worst_h = max(worst_h, float(np.max(np.abs(sol.h - ref.h))))
    yield "brute-force objective agreement", worst_val <= 1e-6, worst_val
    yield "brute-force creation agreement", worst_h <= 1e-4, worst_h

    # marginal feasibility and dual structure on a mid-size step
    grid = build_grid(0.0, 1.0, 12)
    model = build_model(0.0, 1.0, make_reaction("power", w=1.0, beta=0.0, q=1.0),
                        run_audit=False)
    mu = (1.0 + 0.2 * np.sin(2 * np.pi * grid.cell_centers)) * grid.cell_width
    sol = solve_jko_step(model, grid, 0.05, mu)
    n = grid.n_cells
    r, c, mass = sol.arcs
    rows, cols = r < n, c < n
    row_err = float(np.max(np.abs(np.bincount(r[rows], mass[rows], minlength=n) - mu)))
    col_err = float(np.max(np.abs(np.bincount(c[cols], mass[cols], minlength=n)
                                  - (sol.rho + 0.05 * sol.h) * grid.cell_width)))
    wall_wall = float(np.sum(mass[~rows & ~cols]))
    yield "row marginals", row_err <= 1e-10, row_err
    yield "column marginals", col_err <= 1e-10, col_err
    yield "no wall-to-wall mass", wall_wall == 0.0, wall_wall
    yield "step converged", sol.converged, sol.residuals["polish_gap"]
    kkt = sol.residuals["kkt_kappa"]
    yield "price identity", kkt <= 1e-6, kkt

    # stationary fixed point of the full scheme
    grid = build_grid(0.0, 1.0, 16)
    model = build_model(0.0, 1.0, make_reaction("power", w=1.0, beta=0.0, q=1.0),
                        run_audit=False)
    traj = flow.run_minimizing_movement(model, grid, np.ones(16), 0.1, 0.4,
                                        with_diagnostics=False)
    drift = float(np.max(np.abs(traj.densities - 1.0)))
    yield "stationary fixed point", drift <= 1e-6, drift

    # reference solver agrees on the stationary state
    fd = solve_fd(model, grid, np.ones(16), 0.4, 0.05)
    fd_drift = float(np.max(np.abs(fd.values - 1.0)))
    yield "reference stationary fixed point", fd_drift <= 1e-8, fd_drift


def _cmd_verify(args) -> int:
    _load_config(args)  # the battery is fixed; a given config must still parse
    failures = 0
    for name, ok, worst in _verify_battery():
        verdict = "PASS" if ok else "FAIL"
        sys.stdout.write(f"{verdict}  {name}  (worst {worst:.3e})\n")
        failures += 0 if ok else 1
    sys.stdout.write(f"{'all checks passed' if not failures else f'{failures} check(s) failed'}\n")
    if failures:
        raise VerificationFailure(f"{failures} invariant check(s) failed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resflow",
        description="Reservoir-coupled transport steps and interval evolutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "solve": ("run one trajectory and write it as CSV", _cmd_solve),
        "sweep": ("step-size refinement study against the reference solver", _cmd_sweep),
        "oracle": ("reference finite-difference solve", _cmd_oracle),
        "compare": ("distance between a trajectory and the reference", _cmd_compare),
        "audit": ("model assumption audit", _cmd_audit),
        "verify": ("invariant battery on small grids", _cmd_verify),
    }
    for name, (help_text, handler) in specs.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="path to a key = value configuration file")
        if name in ("solve", "sweep", "oracle"):
            cmd.add_argument("--output", help="output directory (overrides config)")
        if name == "oracle":
            cmd.add_argument("--dt", type=float, help="reference solver time step")
        cmd.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except VerificationFailure as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return EXIT_VERIFY
    except RuntimeError as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return EXIT_SOLVER
    except Exception as exc:
        sys.stderr.write(f"unexpected error: {exc!r}\n")
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
