"""Minimizing-movement trajectories built from repeated transport steps.

Each step feeds the previous density back as the transport source, warm
starting the solver with the prices it produced last time. The module also
owns the envelope bookkeeping (time-decaying lower and static upper density
barriers), the per-step dissipation ledger, and the step-size refinement
study against the finite-difference reference.
"""
from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .diagnostics import run_diagnostics
from .fdref import FDSolution, compare_trajectories, solve_fd
from .grid import Grid, build_grid
from .model import Model
from .transport import (
    StepFailure,
    TransportSolution,
    solve_fixed_target,
    solve_jko_step,
)

logger = logging.getLogger(__name__)

__all__ = [
    "BarrierBounds",
    "Trajectory",
    "LedgerRow",
    "RefinementStudy",
    "calibrate_barriers",
    "run_minimizing_movement",
    "barrier_check",
    "dissipation_ledger",
    "weak_window_budget",
    "tau_refinement_study",
]

# the finite-difference reference of a refinement study is this many times
# finer in space than the scheme's grid, and in time than its smallest step
REFERENCE_SPACE_FACTOR = 4
REFERENCE_TIME_FACTOR = 8


@dataclass(frozen=True)
class BarrierBounds:
    """Density envelopes respected by every step of a trajectory.

    The profiles are drift-weighted: lower_profile * (1 + growth_rate *
    tau)^-n bounds snapshot n from below and upper_profile bounds it from
    above, uniformly in n. lower_constant and upper_constant are the scale
    factors after clipping into the window where the envelope argument is
    valid; raw_* keep the values calibrated from the initial density and
    window_ok records whether clipping was needed (when it was, the
    envelopes still hold but are looser than the data itself).
    """

    tau: float
    growth_rate: float
    lower_constant: float
    upper_constant: float
    raw_lower: float
    raw_upper: float
    window_ok: bool
    lower_profile: np.ndarray
    upper_profile: np.ndarray

    def lower_envelope(self, step: int) -> np.ndarray:
        return self.lower_profile * (1.0 + self.growth_rate * self.tau) ** (-step)

    def upper_envelope(self) -> np.ndarray:
        return self.upper_profile

    def continuum_lower(self, t: float) -> np.ndarray:
        return self.lower_profile * math.exp(-self.growth_rate * t)


@dataclass(frozen=True)
class Trajectory:
    """One discrete flow: snapshot k is the density after k steps.

    solutions[k] is the transport step that produced snapshot k (None for
    the initial density), step_costs[k] its transport-plus-creation cost,
    and energies[k] the free energy of snapshot k. Each step retains O(n)
    numbers: its plan as at most 2n arcs, its creation field, density and
    prices, its residuals and counters, and its diagnostics if run.
    """

    grid: Grid
    tau: float
    t_final: float
    times: np.ndarray
    densities: np.ndarray
    energies: np.ndarray
    step_costs: np.ndarray
    solutions: tuple[TransportSolution | None, ...]
    barrier: BarrierBounds

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


def _drift_weight_range(model: Model, grid: Grid) -> tuple[np.ndarray, float, float]:
    """exp(-drift) on the cells plus its extremes over the closed interval.

    The drift is affine, so the extremes sit at the endpoints.
    """
    w = np.exp(-model.drift(grid.cell_centers))
    ends = np.exp(-model.drift(np.array([grid.x_lo, grid.x_hi])))
    w_sup = float(max(np.max(w), np.max(ends)))
    w_inf = float(min(np.min(w), np.min(ends)))
    return w, w_sup, w_inf


def calibrate_barriers(model: Model, grid: Grid, rho0: np.ndarray, tau: float) -> BarrierBounds:
    """Fit envelope constants to the initial density.

    The scale factors are the tightest ones whose profiles bracket rho0;
    they are then clipped into the window (below the smallest density at
    which the walls repel mass, above the largest creation equilibrium)
    where the envelope argument applies. The growth rate is the smallest
    constant with rate(r) <= growth_rate * r on the window, probed on a
    log grid; it degenerates to ~0 for purely destructive reactions, which
    makes the lower envelope time-uniform.
    """
    rho0 = np.asarray(rho0, dtype=float)
    x = grid.cell_centers
    w, w_sup, w_inf = _drift_weight_range(model, grid)
    raw_lower = float(np.min(rho0 * w_sup / w))
    raw_upper = float(np.max(rho0 * w_inf / w))

    bd_min = min(model.boundary_density)
    bd_max = max(model.boundary_density)
    equilibrium = float(np.max(model.reaction.density_at_rate(np.zeros_like(x), x)))
    window = min(1.0, bd_min, 1.0 / max(bd_max, equilibrium, 1e-12))
    lower = min(raw_lower, window)
    upper = max(raw_upper, 1.0 / window)
    window_ok = lower == raw_lower and upper == raw_upper

    probe = np.exp(np.linspace(math.log(1e-6 * window), math.log(window), 200))
    rates = model.reaction.rate(probe[:, None], x[None, :])
    growth = float(np.max(rates / probe[:, None]))
    growth = max(growth, 1e-9)

    return BarrierBounds(
        tau=tau,
        growth_rate=growth,
        lower_constant=lower,
        upper_constant=upper,
        raw_lower=raw_lower,
        raw_upper=raw_upper,
        window_ok=window_ok,
        lower_profile=lower / w_sup * w,
        upper_profile=upper / w_inf * w,
    )


def _certified_step(where: str, solve, *args, **kwargs) -> TransportSolution:
    """One exact solve that must certify, else StepFailure led by where."""
    try:
        sol = solve(*args, **kwargs)
    except StepFailure as exc:
        raise StepFailure(exc.certificate, exc.value, f"{where}: {exc.context}") from exc
    if not sol.converged:
        raise StepFailure("polish_gap", sol.residuals["polish_gap"], where)
    return sol


def run_minimizing_movement(
    model: Model,
    grid: Grid,
    rho0: np.ndarray,
    tau: float,
    t_final: float,
    *,
    with_diagnostics: bool = True,
) -> Trajectory:
    """Iterate the implicit transport step from rho0 up to t_final.

    The step count is ceil(t_final / tau); every step is warm started from
    the previous prices and must certify, otherwise the run raises
    StepFailure naming the step and the failed certificate. Diagnostics are
    attached to each step's solution unless switched off.
    """
    rho0 = np.asarray(rho0, dtype=float)
    if rho0.shape != (grid.n_cells,):
        raise ValueError(f"rho0 has shape {rho0.shape}, expected ({grid.n_cells},)")
    if not np.all(np.isfinite(rho0)):
        raise ValueError("initial density rho0 must be finite in every cell")
    if np.any(rho0 <= 0.0):
        raise ValueError("initial density must be strictly positive in every cell")
    if not (0.0 < tau < math.inf and 0.0 < t_final < math.inf):
        raise ValueError(f"need positive, finite tau and t_final, got {tau!r}, {t_final!r}")

    n_steps = max(1, int(math.ceil(t_final / tau - 1e-12)))
    x = grid.cell_centers
    dx = grid.cell_width
    barrier = calibrate_barriers(model, grid, rho0, tau)
    if not barrier.window_ok:
        logger.info(
            "initial density sits outside the envelope window "
            "(raw lower %.3g, raw upper %.3g); envelopes were widened to "
            "%.3g / %.3g",
            barrier.raw_lower, barrier.raw_upper,
            barrier.lower_constant, barrier.upper_constant,
        )

    densities = np.empty((n_steps + 1, grid.n_cells))
    energies = np.empty(n_steps + 1)
    step_costs = np.zeros(n_steps + 1)
    solutions: list[TransportSolution | None] = [None]
    densities[0] = rho0
    energies[0] = model.free_energy.total(rho0, x, dx)

    rho = rho0
    warm: np.ndarray | None = None
    for k in range(n_steps):
        sol = _certified_step(f"transport step {k + 1}/{n_steps}", solve_jko_step,
                              model, grid, tau, rho * dx, init_phi_star=warm)
        rho_next = sol.rho
        energies[k + 1] = model.free_energy.total(rho_next, x, dx)
        step_costs[k + 1] = sol.primal_value
        if with_diagnostics:
            sol = dataclasses.replace(sol, diagnostics=run_diagnostics(sol, grid))
        solutions.append(sol)
        densities[k + 1] = rho_next
        rho = rho_next
        warm = sol.phi_star

    return Trajectory(
        grid=grid,
        tau=tau,
        t_final=t_final,
        times=np.arange(n_steps + 1) * tau,
        densities=densities,
        energies=energies,
        step_costs=step_costs,
        solutions=tuple(solutions),
        barrier=barrier,
    )


@dataclass(frozen=True)
class BarrierCheckResult:
    ok: bool
    worst_step: int
    worst_margin: float
    margins: np.ndarray
    continuum_ok: bool


def barrier_check(trajectory: Trajectory) -> BarrierCheckResult:
    """Assert the step envelopes on every snapshot.

    margins[k] is the smallest signed distance of snapshot k to either
    envelope (negative = violation). The continuum flag additionally checks
    the exponential-in-time lower envelope, which the discrete one
    dominates, so it can only fail if the discrete check does.
    """
    bar = trajectory.barrier
    margins = np.empty(trajectory.n_steps + 1)
    continuum_ok = True
    for k in range(trajectory.n_steps + 1):
        rho = trajectory.densities[k]
        lower = bar.lower_envelope(k)
        upper = bar.upper_envelope()
        margins[k] = float(np.min(np.minimum(rho - lower, upper - rho)))
        if np.any(rho < bar.continuum_lower(float(trajectory.times[k])) - 1e-12):
            continuum_ok = False
    worst = int(np.argmin(margins))
    return BarrierCheckResult(
        ok=bool(np.all(margins >= -1e-12)),
        worst_step=worst,
        worst_margin=float(margins[worst]),
        margins=margins,
        continuum_ok=continuum_ok,
    )


@dataclass(frozen=True)
class LedgerRow:
    step: int
    energy_before: float
    energy_after: float
    step_cost: float
    self_cost: float
    slack: float


def dissipation_ledger(trajectory: Trajectory, model: Model) -> tuple[LedgerRow, ...]:
    """Per-step minimality audit of the trajectory.

    The produced density beats keeping the previous one, so
    energy_after + step_cost <= energy_before + self_cost must hold, where
    self_cost is the computed (not assumed zero) cost of transporting a
    snapshot onto itself. slack is the right side minus the left; a negative
    slack beyond roundoff means a step was not actually minimal. A self
    transport that fails to certify raises StepFailure naming the step.
    """
    grid = trajectory.grid
    dx = grid.cell_width
    rows = []
    for k in range(trajectory.n_steps):
        rho = trajectory.densities[k]
        self_sol = _certified_step(
            f"ledger step {k + 1}/{trajectory.n_steps}: self transport",
            solve_fixed_target, model, grid, trajectory.tau, rho * dx, rho)
        lhs = float(trajectory.energies[k + 1] + trajectory.step_costs[k + 1])
        rhs = float(trajectory.energies[k] + self_sol.primal_value)
        rows.append(LedgerRow(
            step=k + 1,
            energy_before=float(trajectory.energies[k]),
            energy_after=float(trajectory.energies[k + 1]),
            step_cost=float(trajectory.step_costs[k + 1]),
            self_cost=self_sol.primal_value,
            slack=rhs - lhs,
        ))
    return tuple(rows)


def _reservoir_energy(trajectory: Trajectory, model: Model, k: int) -> float:
    """Free energy of snapshot k minus its reservoir-potential pairing."""
    grid = trajectory.grid
    psi = model.reservoir_potential(grid.cell_centers)
    pairing = float(psi @ trajectory.densities[k]) * grid.cell_width
    return float(trajectory.energies[k]) - pairing


def weak_window_budget(
    trajectory: Trajectory, model: Model, t0: float, t1: float
) -> float:
    """Remainder budget sqrt(tau)*(t1-t0) + tau*(energy drop) of a window.

    This is the quantity that bounds the accumulated weak-form defect of the
    trajectory over [t0, t1] up to a constant fitted per model; the energy
    drop is reservoir-corrected and clipped at zero so a locally rising
    energy cannot make the budget negative.
    """
    tau = trajectory.tau
    k0 = min(int(math.floor(t0 / tau + 1e-9)), trajectory.n_steps)
    k1 = min(int(math.floor(t1 / tau + 1e-9)), trajectory.n_steps)
    if k1 <= k0:
        raise ValueError("empty window")
    drop = _reservoir_energy(trajectory, model, k0) - _reservoir_energy(trajectory, model, k1)
    return math.sqrt(tau) * (t1 - t0) + tau * max(drop, 0.0)


@dataclass(frozen=True)
class RefinementStudy:
    taus: tuple[float, ...]
    errors: tuple[float, ...]
    fitted_order: float
    reference: FDSolution


def tau_refinement_study(
    model: Model,
    grid: Grid,
    rho0: np.ndarray,
    t_final: float,
    tau_list: Sequence[float],
    *,
    rho0_fine: Callable[[np.ndarray], np.ndarray] | np.ndarray | None = None,
) -> RefinementStudy:
    """Errors of trajectories against a fine reference as tau shrinks.

    tau_list must be strictly decreasing with at least three entries. The
    reference solves the limiting equation on a grid REFERENCE_SPACE_FACTOR
    times finer, with time steps REFERENCE_TIME_FACTOR times smaller than
    the smallest tau; pass rho0_fine (callable on positions or explicit
    fine-cell values) when the initial profile is known analytically,
    otherwise the coarse cells are replicated. Errors are time-integrated
    interior distances; the fitted order is the least-squares slope of log
    error against log tau.
    """
    taus = [float(t) for t in tau_list]
    if len(taus) < 3 or any(b >= a for a, b in zip(taus, taus[1:])):
        raise ValueError("tau_list must be strictly decreasing with >= 3 entries")

    fine = build_grid(grid.x_lo, grid.x_hi, grid.n_cells * REFERENCE_SPACE_FACTOR)
    if rho0_fine is None:
        init = np.repeat(np.asarray(rho0, dtype=float), REFERENCE_SPACE_FACTOR)
    elif callable(rho0_fine):
        init = np.asarray(rho0_fine(fine.cell_centers), dtype=float)
    else:
        init = np.asarray(rho0_fine, dtype=float)
    reference = solve_fd(model, fine, init, t_final, taus[-1] / REFERENCE_TIME_FACTOR)

    errors = []
    for tau in taus:
        traj = run_minimizing_movement(
            model, grid, rho0, tau, t_final, with_diagnostics=False
        )
        errors.append(compare_trajectories(
            grid, traj.times, traj.densities,
            reference.grid, reference.times, reference.values,
        ))

    slope, _ = np.polyfit(np.log(taus), np.log(np.maximum(errors, 1e-300)), 1)
    return RefinementStudy(
        taus=tuple(taus),
        errors=tuple(float(e) for e in errors),
        fitted_order=float(slope),
        reference=reference,
    )
