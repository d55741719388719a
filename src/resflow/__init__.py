"""Reservoir-coupled transport steps driving interval evolutions.

The package solves a single-interval transport problem whose walls act as
mass reservoirs at prescribed prices, combines it with a pointwise creation
cost into one implicit free-energy step, iterates that step into density
trajectories, and checks everything against an independent finite-difference
reference plus a battery of structural estimates.
"""
from .config import (
    ConfigError,
    ExperimentConfig,
    parse_config,
    render_config,
)
from .diagnostics import (
    DiagnosticsReport,
    perturbation_inequalities,
    run_diagnostics,
    transported_mass_floor,
)
from .fdref import FDSolution, compare_trajectories, solve_fd, weak_residual
from .flow import (
    BarrierBounds,
    BarrierCheckResult,
    LedgerRow,
    RefinementStudy,
    Trajectory,
    barrier_check,
    calibrate_barriers,
    dissipation_ledger,
    run_minimizing_movement,
    tau_refinement_study,
    weak_window_budget,
)
from .grid import Grid, build_grid
from .io import (
    TrajectoryTable,
    emit_report,
    model_hash,
    model_signature,
    read_trajectory_csv,
    write_field_csv,
    write_sweep_csv,
    write_trajectory_csv,
)
from .model import FreeEnergy, Model, ModelAudit, build_model
from .oracle import OracleResult, brute_force_small, certified_price_window
from .reactions import REACTION_KINDS, ReactionLaw, make_reaction
from .transport import (
    CostMatrix,
    StepFailure,
    TransportSolution,
    build_cost_matrix,
    solve_fixed_target,
    solve_jko_step,
)

__version__ = "0.1.0"

__all__ = [
    "BarrierBounds",
    "BarrierCheckResult",
    "ConfigError",
    "CostMatrix",
    "DiagnosticsReport",
    "ExperimentConfig",
    "FDSolution",
    "FreeEnergy",
    "Grid",
    "LedgerRow",
    "Model",
    "ModelAudit",
    "OracleResult",
    "REACTION_KINDS",
    "ReactionLaw",
    "RefinementStudy",
    "StepFailure",
    "Trajectory",
    "TrajectoryTable",
    "TransportSolution",
    "barrier_check",
    "brute_force_small",
    "build_cost_matrix",
    "build_grid",
    "build_model",
    "calibrate_barriers",
    "certified_price_window",
    "compare_trajectories",
    "dissipation_ledger",
    "emit_report",
    "make_reaction",
    "model_hash",
    "model_signature",
    "parse_config",
    "perturbation_inequalities",
    "read_trajectory_csv",
    "render_config",
    "run_diagnostics",
    "run_minimizing_movement",
    "solve_fd",
    "solve_fixed_target",
    "solve_jko_step",
    "tau_refinement_study",
    "transported_mass_floor",
    "weak_residual",
    "weak_window_budget",
    "write_field_csv",
    "write_sweep_csv",
    "write_trajectory_csv",
    "__version__",
]
