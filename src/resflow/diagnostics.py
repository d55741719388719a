"""Structural estimates evaluated on a converged transport step.

Each function measures one estimate that a check reads. run_diagnostics
reports how far mass travels and how much crosses the walls (acceptance
criterion 4 fits their scaling in tau); perturbation_inequalities and
transported_mass_floor probe the support reroute inequalities and the
post-creation density floor (criterion 9). The module only measures; the
pass/fail thresholds live with the callers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid
from .model import Model
from .transport import TransportSolution, build_cost_matrix

__all__ = [
    "DiagnosticsReport",
    "run_diagnostics",
    "perturbation_inequalities",
    "transported_mass_floor",
]


@dataclass(frozen=True)
class DiagnosticsReport:
    """Per-step transport extent, read from the step's packaged arcs.

    max_displacement is the longest distance an arc above the step's mass
    floor carries mass (wall arcs run to the wall node); boundary_flux is
    the total mass on arcs to or from either wall.
    """

    max_displacement: float
    boundary_flux: float


def run_diagnostics(solution: TransportSolution, grid: Grid) -> DiagnosticsReport:
    """Measure the displacement and wall flux of a converged step."""
    n = grid.n_cells
    nodes = np.concatenate([grid.cell_centers, grid.boundary_nodes])
    r, c, mass = solution.arcs

    supported = mass > solution.mass_floor
    disp = np.abs(nodes[r] - nodes[c])
    max_displacement = float(np.max(disp[supported])) if np.any(supported) else 0.0
    boundary_flux = float(np.sum(mass[r >= n]) + np.sum(mass[c >= n]))
    return DiagnosticsReport(max_displacement=max_displacement, boundary_flux=boundary_flux)


def _supported_arcs(solution: TransportSolution, max_pairs: int) -> np.ndarray:
    """The heaviest arcs above the mass floor, heaviest first, as (row, column) pairs."""
    r, c, mass = solution.arcs
    keep = mass > solution.mass_floor
    order = np.argsort(mass[keep])[::-1][:max_pairs]
    return np.stack([r[keep][order], c[keep][order]], axis=1)


def perturbation_inequalities(
    solution: TransportSolution,
    model: Model,
    grid: Grid,
    tau: float,
    *,
    max_pairs: int = 100,
) -> float:
    """Worst violation of the support perturbation inequalities.

    Each inequality prices a local reroute of an optimal pair: redirecting
    transported mass to another interior target, to a wall, or replacing a
    wall trip by interior creation, must never pay less than the current
    arrangement. Every arc is priced by CostMatrix.price, which carries the
    reservoir price on wall arcs, and an arrival at a cell also pays the
    cell's creation price, so a row's cheapest reroute is its c-transform
    against those prices, walls at 0 (a wall row reaches cells only).
    Checked on the heaviest supported arcs plus the one unconditional
    wall-creation comparison; returns max(violation, 0) with 0 meaning every
    sampled inequality holds.
    """
    n = grid.n_cells
    cost = build_cost_matrix(model, grid, tau)
    slope = model.cost_slope(solution.h, grid.cell_centers)
    reroute = cost.c_transform(-slope, to_rows=True)

    # wall source vs interior creation, no support requirement
    worst = max(0.0, float(np.max(-reroute[n:])))
    pairs = _supported_arcs(solution, max_pairs)
    row, col = pairs[:, 0], pairs[:, 1]
    lhs = cost.price(row, col) + np.append(slope, (0.0, 0.0))[col]
    return max(worst, float(np.max(lhs - reroute[row], initial=0.0)))


def transported_mass_floor(
    solution: TransportSolution,
    grid: Grid,
    tau: float,
    mu: np.ndarray,
    rho_target: np.ndarray,
) -> tuple[float, float, bool]:
    """Lower bound on the post-creation density from uniformly positive data.

    Returns (lambda0, worst_value, ok): lambda0 is the shared positivity
    level of the source density and the target, and ok asserts
    rho_target + tau h >= lambda0 / 4 cellwise.
    """
    density = np.asarray(mu, dtype=float) / grid.cell_width
    rho_target = np.asarray(rho_target, dtype=float)
    lambda0 = float(min(np.min(density), np.min(rho_target)))
    worst = float(np.min(rho_target + tau * solution.h))
    return lambda0, worst, worst >= 0.25 * lambda0 - 1e-12 * max(lambda0, 1.0)

