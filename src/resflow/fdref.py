"""Finite-difference reference for the reaction-diffusion-drift equation.

Implicit Euler on the cell-centered mesh with a conservative second-order
flux, Dirichlet walls at the reservoir densities, and the reaction handled
implicitly. This solver shares no code with the transport machinery: it is
the independent yardstick the minimizing-movement trajectories are compared
against, and it carries its own weak-form residual and trajectory metric.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import solve_banded

from .grid import Grid
from .model import Model

logger = logging.getLogger(__name__)

__all__ = ["FDSolution", "solve_fd", "step_count", "weak_residual", "compare_trajectories"]

_POSITIVITY_FLOOR = 1e-12
_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITERS = 40
_MAX_HALVINGS = 8


@dataclass(frozen=True)
class FDSolution:
    """Implicit-Euler trajectory: values[k] is the density at times[k]."""

    grid: Grid
    times: np.ndarray
    values: np.ndarray
    max_newton_iters: int
    halvings_used: int


class _FluxOperator:
    """Affine conservative operator L(u) = T u + s for the diffusion-drift flux.

    Interior faces use centered differences with arithmetic averaging for the
    drift; wall faces use the half-cell one-sided derivative against the exact
    Dirichlet value, whose advective part is evaluated at the wall density.
    """

    def __init__(self, grid: Grid, model: Model):
        n = grid.n_cells
        dx = grid.cell_width
        d = 1.0 / (dx * dx)
        x_faces = grid.x_lo + np.arange(1, n) * dx
        vf = np.asarray(model.drift_gradient(x_faces), dtype=float)
        main = np.zeros(n)
        upper = np.zeros(n - 1) if n > 1 else np.zeros(0)
        lower = np.zeros(n - 1) if n > 1 else np.zeros(0)
        source = np.zeros(n)
        if n > 1:
            main[:-1] += -d + vf / (2.0 * dx)
            upper += d + vf / (2.0 * dx)
            main[1:] += -d - vf / (2.0 * dx)
            lower += d - vf / (2.0 * dx)
        rho_lo, rho_hi = model.boundary_density
        v_lo = float(model.drift_gradient(grid.x_lo))
        v_hi = float(model.drift_gradient(grid.x_hi))
        main[0] += -2.0 * d
        source[0] += 2.0 * rho_lo * d - rho_lo * v_lo / dx
        main[-1] += -2.0 * d
        source[-1] += 2.0 * rho_hi * d + rho_hi * v_hi / dx
        self.main = main
        self.upper = upper
        self.lower = lower
        self.source = source
        self.n = n

    def apply(self, u: np.ndarray) -> np.ndarray:
        out = self.main * u + self.source
        if self.n > 1:
            out[:-1] += self.upper * u[1:]
            out[1:] += self.lower * u[:-1]
        return out

    def jacobian_banded(self, extra_diag: np.ndarray, scale: float) -> np.ndarray:
        """(3, n) banded form of I - scale * T + diag(extra_diag)."""
        ab = np.zeros((3, self.n))
        ab[1] = 1.0 - scale * self.main + extra_diag
        if self.n > 1:
            ab[0, 1:] = -scale * self.upper
            ab[2, :-1] = -scale * self.lower
        return ab


def _newton_step(
    op: _FluxOperator,
    model: Model,
    x: np.ndarray,
    u_prev: np.ndarray,
    dt: float,
    force: np.ndarray | None,
) -> tuple[np.ndarray, bool, int]:
    u = np.maximum(u_prev.copy(), _POSITIVITY_FLOOR)

    def residual(v: np.ndarray) -> np.ndarray:
        rhs = op.apply(v) - np.asarray(model.reaction.rate(v, x), dtype=float)
        if force is not None:
            rhs = rhs + force
        return v - u_prev - dt * rhs

    res = residual(u)
    norm = float(np.max(np.abs(res)))
    scale = 1.0 + float(np.max(np.abs(u_prev)))
    for it in range(_NEWTON_MAX_ITERS):
        if norm <= _NEWTON_TOL * scale:
            return u, True, it
        slope = np.asarray(model.reaction.rate_derivative(u, x), dtype=float)
        slope = np.where(np.isfinite(slope), slope, 0.0)
        ab = op.jacobian_banded(dt * slope, dt)
        delta = solve_banded((1, 1), ab, res)
        lam = 1.0
        for _ in range(20):
            trial = np.maximum(u - lam * delta, _POSITIVITY_FLOOR)
            trial_res = residual(trial)
            trial_norm = float(np.max(np.abs(trial_res)))
            if trial_norm < norm * (1.0 - 1e-4 * lam) or trial_norm <= _NEWTON_TOL * scale:
                u, res, norm = trial, trial_res, trial_norm
                break
            lam *= 0.5
        else:
            return u, False, it + 1
    return u, norm <= _NEWTON_TOL * scale, _NEWTON_MAX_ITERS


def _advance(
    op: _FluxOperator,
    model: Model,
    x: np.ndarray,
    u: np.ndarray,
    t: float,
    dt: float,
    forcing: Callable[[float, np.ndarray], np.ndarray] | None,
    depth: int,
) -> tuple[np.ndarray, int, int]:
    """One implicit step from t to t+dt, recursively halving on Newton failure."""
    force = None if forcing is None else np.asarray(forcing(t + dt, x), dtype=float)
    u_new, converged, iters = _newton_step(op, model, x, u, dt, force)
    if converged:
        return u_new, iters, depth
    if depth >= _MAX_HALVINGS:
        raise RuntimeError(
            f"implicit step failed to converge at t={t:.6g} even after "
            f"{_MAX_HALVINGS} time-step halvings"
        )
    u_mid, it1, d1 = _advance(op, model, x, u, t, dt / 2.0, forcing, depth + 1)
    u_new, it2, d2 = _advance(op, model, x, u_mid, t + dt / 2.0, dt / 2.0, forcing, depth + 1)
    return u_new, max(it1, it2), max(d1, d2)


def step_count(t_final: float, dt: float) -> int:
    """Steps of size dt that reach t_final; ValueError unless dt divides it."""
    if not (0.0 < dt < math.inf and 0.0 < t_final < math.inf):
        raise ValueError(f"need positive, finite dt and t_final, got {dt!r}, {t_final!r}")
    n_steps = int(round(t_final / dt))
    if n_steps < 1 or abs(n_steps * dt - t_final) > 1e-9 * max(1.0, t_final):
        raise ValueError(f"dt={dt!r} does not divide t_final={t_final!r}")
    return n_steps


def solve_fd(
    model: Model,
    grid: Grid,
    rho0: np.ndarray,
    t_final: float,
    dt: float,
    *,
    forcing: Callable[[float, np.ndarray], np.ndarray] | None = None,
) -> FDSolution:
    """March the density to t_final with implicit Euler steps of size dt.

    forcing(t, x) adds a source term, used by the manufactured-solution
    harness; production runs leave it None. The number of steps is
    round(t_final/dt) and must hit t_final to 1e-9 relative.
    """
    rho0 = np.asarray(rho0, dtype=float)
    if rho0.shape != (grid.n_cells,):
        raise ValueError(
            f"rho0 has shape {rho0.shape}, expected ({grid.n_cells},)"
        )
    if np.any(rho0 <= 0.0):
        raise ValueError("initial density must be strictly positive")
    dt = float(dt)
    t_final = float(t_final)
    n_steps = step_count(t_final, dt)

    op = _FluxOperator(grid, model)
    x = grid.cell_centers
    values = np.empty((n_steps + 1, grid.n_cells))
    values[0] = rho0
    u = rho0.copy()
    worst_iters = 0
    worst_depth = 0
    for k in range(n_steps):
        u, iters, depth = _advance(op, model, x, u, k * dt, dt, forcing, 0)
        worst_iters = max(worst_iters, iters)
        worst_depth = max(worst_depth, depth)
        values[k + 1] = u
    if worst_depth > 0:
        logger.warning("implicit solver needed %d step halvings", worst_depth)
    return FDSolution(
        grid=grid,
        times=np.arange(n_steps + 1) * dt,
        values=values,
        max_newton_iters=worst_iters,
        halvings_used=worst_depth,
    )


def _window_indices(times: np.ndarray, t0: float, t1: float) -> tuple[int, int]:
    k0 = int(np.argmin(np.abs(times - t0)))
    k1 = int(np.argmin(np.abs(times - t1)))
    tol = 1e-9 * (1.0 + abs(float(times[-1])))
    if abs(times[k0] - t0) > tol or abs(times[k1] - t1) > tol:
        raise ValueError(
            f"window ({t0!r}, {t1!r}) does not align with the stored times"
        )
    if k1 <= k0:
        raise ValueError("empty time window")
    return k0, k1


def weak_residual(
    grid: Grid,
    model: Model,
    times: np.ndarray,
    values: np.ndarray,
    zeta: np.ndarray,
    t0: float,
    t1: float,
) -> float:
    """Weak-form defect of a piecewise-constant-in-time density path.

    The test function is given by its cell-center samples and must vanish in
    the first and last cell. Flux terms are moved onto the test function
    through summation-by-parts stencils of the samples (exact for the
    conservative discretization and correct in the distributional sense for
    hat functions). Time integrals use right endpoints, matching the
    implicit stepping.
    """
    zeta = np.asarray(zeta, dtype=float)
    if zeta.shape != (grid.n_cells,):
        raise ValueError("zeta must be sampled at the cell centers")
    if zeta[0] != 0.0 or zeta[-1] != 0.0:
        raise ValueError("test function must vanish in the first and last cell")
    x = grid.cell_centers
    dx = grid.cell_width
    k0, k1 = _window_indices(np.asarray(times, dtype=float), float(t0), float(t1))

    padded = np.concatenate([[0.0], zeta, [0.0]])
    dlap = (padded[2:] - 2.0 * padded[1:-1] + padded[:-2]) / (dx * dx)
    x_faces = grid.x_lo + np.arange(1, grid.n_cells) * dx
    v_faces = np.asarray(model.drift_gradient(x_faces), dtype=float)
    dzeta = np.diff(zeta) / dx

    def flux_term(rho: np.ndarray) -> float:
        face_avg = 0.5 * (rho[:-1] + rho[1:])
        return float(np.sum(rho * dlap) * dx - np.sum(face_avg * v_faces * dzeta) * dx)

    total = float(np.sum(zeta * values[k1]) * dx) - float(np.sum(zeta * values[k0]) * dx)
    for k in range(k0, k1):
        step = float(times[k + 1] - times[k])
        rho_end = np.maximum(values[k + 1], _POSITIVITY_FLOOR)
        reaction = float(np.sum(zeta * model.reaction.rate(rho_end, x)) * dx)
        total -= step * (flux_term(rho_end) - reaction)
    return abs(total)


def _restrict(values: np.ndarray, factor: int) -> np.ndarray:
    """Cell-average block restriction of a (k, n*factor) array to (k, n)."""
    k, n_fine = values.shape
    return values.reshape(k, n_fine // factor, factor).mean(axis=2)


def compare_trajectories(
    grid_a: Grid,
    times_a: np.ndarray,
    values_a: np.ndarray,
    grid_b: Grid,
    times_b: np.ndarray,
    values_b: np.ndarray,
) -> float:
    """Time-integrated interior L2 distance between two density paths.

    Both paths are read as left-continuous step functions in time (the
    floor-in-time convention of the piecewise-constant interpolant). The
    finer grid is restricted to the coarser by exact cell averaging (the
    resolutions must nest), one boundary cell is dropped on each side, and
    the squared spatial L2 distance is integrated over the overlapping time
    range on the union of the two time partitions. Zero exactly when the
    paths agree on the interior window.
    """
    if abs(grid_a.x_lo - grid_b.x_lo) > 1e-12 or abs(grid_a.x_hi - grid_b.x_hi) > 1e-12:
        raise ValueError("trajectories live on different intervals")
    n_a, n_b = grid_a.n_cells, grid_b.n_cells
    if n_a <= n_b:
        coarse_n, coarse_dx = n_a, grid_a.cell_width
        if n_b % n_a:
            raise ValueError(f"grid sizes {n_a} and {n_b} do not nest")
        vals_a = values_a
        vals_b = _restrict(values_b, n_b // n_a)
    else:
        coarse_n, coarse_dx = n_b, grid_b.cell_width
        if n_a % n_b:
            raise ValueError(f"grid sizes {n_a} and {n_b} do not nest")
        vals_a = _restrict(values_a, n_a // n_b)
        vals_b = values_b

    times_a = np.asarray(times_a, dtype=float)
    times_b = np.asarray(times_b, dtype=float)
    t_start = max(float(times_a[0]), float(times_b[0]))
    t_end = min(float(times_a[-1]), float(times_b[-1]))
    tol = 1e-9 * (1.0 + max(abs(float(times_a[-1])), abs(float(times_b[-1]))))
    if t_end <= t_start + tol:
        raise ValueError("trajectories share no time overlap")
    cuts = np.union1d(times_a, times_b)
    cuts = cuts[(cuts >= t_start - tol) & (cuts <= t_end + tol)]

    total = 0.0
    for left, right in zip(cuts[:-1], cuts[1:]):
        width = float(right - left)
        if width <= tol:
            continue
        mid = 0.5 * (left + right)
        ka = int(np.searchsorted(times_a, mid, side="right")) - 1
        kb = int(np.searchsorted(times_b, mid, side="right")) - 1
        if coarse_n <= 2:
            diff = vals_a[ka] - vals_b[kb]
        else:
            diff = vals_a[ka][1:-1] - vals_b[kb][1:-1]
        total += width * float(np.sum(diff * diff)) * coarse_dx
    return math.sqrt(total)
