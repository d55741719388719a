"""Structural estimates evaluated on a converged transport step.

Every quantity here mirrors a bound the step is supposed to obey: how far
mass travels, how much crosses the walls, how much is created or destroyed,
and how the transport cost compares with the free-energy drop. The module
only measures; pass/fail thresholds live with the callers, because most of
the underlying constants are existential and have to be fitted empirically
before they can gate anything.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid
from .model import Model
from .transport import TransportSolution, build_cost_matrix

__all__ = [
    "DiagnosticsReport",
    "WindowReport",
    "run_diagnostics",
    "created_mass_window",
    "perturbation_inequalities",
    "transported_mass_floor",
    "fit_energy_constant",
]

_WINDOW_SLACK = 1e-9
_VACUOUS_FLOOR = 1e-12


@dataclass(frozen=True)
class DiagnosticsReport:
    """Per-step measurements of the structural bounds.

    mass_floor is the support threshold used for every plan-based quantity:
    1e-12 times the total plan mass. energy_inequality_rhs is the bracket
    (energy drop corrected by the reservoir potential, plus tau) that the
    quadratic cost is bounded by, up to a model constant the caller fits.
    kappa_ratio_* track rho_after / (rho_after + tau * h), the relative
    weight of pre-existing versus created mass.
    """

    max_displacement: float
    boundary_flux: float
    created_mass_l1: float
    created_mass_linf: float
    quadratic_cost: float
    kappa_ratio_min: float
    kappa_ratio_max: float
    energy_inequality_rhs: float
    optimality_residual: float
    mass_floor: float


def run_diagnostics(
    solution: TransportSolution,
    model: Model,
    grid: Grid,
    tau: float,
    mu: np.ndarray,
    rho_after: np.ndarray,
    energy_before: float,
    energy_after: float,
) -> DiagnosticsReport:
    """Measure the step estimates for a converged solution.

    mu is the source in cell masses, rho_after the produced density. The
    energies are the free-energy totals of source and result, supplied by
    the caller so trajectory code can reuse values it already tracks.
    """
    x = grid.cell_centers
    dx = grid.cell_width
    n = grid.n_cells
    nodes = np.concatenate([x, grid.boundary_nodes])
    r, c, mass = solution.arcs
    h = solution.h
    floor = solution.mass_floor

    disp = np.abs(nodes[r] - nodes[c])
    supported = mass > floor
    max_displacement = float(np.max(disp[supported])) if np.any(supported) else 0.0

    boundary_flux = float(np.sum(mass[r >= n]) + np.sum(mass[c >= n]))
    quadratic_cost = float(np.sum(disp ** 2 / (2.0 * tau) * mass))

    transported = np.maximum(rho_after + tau * h, 1e-300)
    ratios = rho_after / transported

    psi = model.reservoir_potential(x)
    res_before = float(psi @ np.asarray(mu, dtype=float))
    res_after = float(psi @ np.asarray(rho_after, dtype=float)) * dx
    rhs = energy_before - res_before - energy_after + res_after + tau

    return DiagnosticsReport(
        max_displacement=max_displacement,
        boundary_flux=boundary_flux,
        created_mass_l1=float(np.sum(np.abs(h)) * dx),
        created_mass_linf=float(np.max(np.abs(h))) if h.size else 0.0,
        quadratic_cost=quadratic_cost,
        kappa_ratio_min=float(np.min(ratios)),
        kappa_ratio_max=float(np.max(ratios)),
        energy_inequality_rhs=rhs,
        optimality_residual=solution.residuals["kkt_kappa"],
        mass_floor=floor,
    )


@dataclass(frozen=True)
class WindowReport:
    ok: bool
    low: np.ndarray
    high: np.ndarray
    margin: float


def created_mass_window(model: Model, grid: Grid, tau: float, h: np.ndarray) -> WindowReport:
    """Check the a-priori window containing any optimal creation field.

    The window endpoints are the rates whose marginal cost sits just below
    -diam^2/(2 tau) - |psi|_inf and just above diam^2/tau + 2 |psi|_inf; an
    optimizer must satisfy low <= h <= high + 1 cellwise. margin is the
    smallest distance from h to either edge (negative on violation).
    """
    x = grid.cell_centers
    diam = grid.x_hi - grid.x_lo
    psi_inf = max(abs(model.psi_lo), abs(model.psi_hi))
    price_low = -diam * diam / (2.0 * tau) - psi_inf - 1.0
    price_high = diam * diam / tau + 2.0 * psi_inf + 1.0
    low = model.rate_at_price(price_low, x)
    high = model.rate_at_price(price_high, x)
    h = np.asarray(h, dtype=float)
    margin = float(np.min(np.minimum(h - low, high + 1.0 - h)))
    return WindowReport(ok=margin >= -_WINDOW_SLACK, low=low, high=high, margin=margin)


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
    arrangement. Every arc is priced by CostMatrix.tilde, which carries the
    reservoir price on wall arcs. Checked on the heaviest supported arcs
    plus the one unconditional wall-creation comparison; returns
    max(violation, 0) with 0 meaning every sampled inequality holds.
    """
    n = grid.n_cells
    x = grid.cell_centers
    tilde = build_cost_matrix(model, grid, tau).tilde
    slope = model.cost_slope(solution.h, x)

    worst = 0.0
    # wall source vs interior creation, no support requirement
    free = slope[None, :] + tilde[n:, :n]
    worst = max(worst, float(np.max(-free)))

    interior_price = slope[None, :] + tilde[:, :n]
    for row, col in _supported_arcs(solution, max_pairs):
        if col < n:
            # redirect the arrival to any other interior cell
            lhs = slope[col] + tilde[row, col]
            worst = max(worst, lhs - float(np.min(interior_price[row])))
            if row < n:
                # or send the same mass to a wall instead
                worst = max(worst, lhs - float(np.min(tilde[row, n:])))
        elif row < n:
            # wall trip vs creating the shortfall at any interior cell
            lhs = tilde[row, col]
            worst = max(worst, lhs - float(np.min(interior_price[row, :n])))
            other = n + (1 - (col - n))
            worst = max(worst, lhs - tilde[row, other])
    return worst


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


def fit_energy_constant(quad_costs, rhs_values) -> float:
    """Smallest constant with quadratic_cost <= C * rhs across the samples.

    Brackets that came out non-positive contribute nothing (their steps are
    vacuous for the fit); the result is floored at 1 so the fitted bound
    never claims to be tighter than the raw inequality.
    """
    c = 1.0
    for quad, rhs in zip(quad_costs, rhs_values):
        if rhs > _VACUOUS_FLOOR:
            c = max(c, float(quad) / float(rhs))
        elif quad > _VACUOUS_FLOOR:
            c = math.inf
    return c
