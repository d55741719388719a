"""Exhaustive reference solver for tiny instances.

Independent of the production LP solver: the transport subproblem is
solved by enumerating the vertices of the dual polytope once per instance
(the dual maximum over a polytope with bounded coordinates is attained at a
vertex), after which the transport cost for ANY interior column-mass vector
is an exact max of affine functions. The reaction/creation variables are then
found by exhaustive grid search in the marginal-price coordinate, refined
geometrically until two successive resolutions agree.

Everything here is deliberately simple and slow; it exists to certify the
fast path on instances with at most 3 interior cells (5 nodes).
"""
from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .grid import Grid
from .model import Model

logger = logging.getLogger(__name__)

__all__ = ["OracleResult", "certified_price_window", "dual_vertices", "brute_force_small"]

_SELF_CONSISTENCY_TOL = 1e-7


@dataclass(frozen=True)
class OracleResult:
    """Reference optimum of a tiny fixed-target or implicit-step instance."""

    value: float
    h: np.ndarray
    rho: np.ndarray
    col_mass: np.ndarray
    phi: np.ndarray
    phi_star: np.ndarray
    h_resolution: float
    passes: int
    self_consistency_gap: float
    price_window: tuple[float, float]
    window_ok: bool


def certified_price_window(model: Model, grid: Grid, tau: float) -> tuple[float, float]:
    """Price interval guaranteed to contain the marginal cost of the optimal
    creation field, widened so the zero-rate price is interior.

    Derived from the optimality comparisons between routing mass through the
    reservoir and absorbing it in place: prices below
    -(diam^2/(2 tau) + max|psi|) or above diam^2/tau + 2 max|psi| can always
    be improved upon.
    """
    diam = grid.x_hi - grid.x_lo
    psi_inf = max(abs(model.psi_lo), abs(model.psi_hi))
    lo = -(diam * diam / (2.0 * tau) + psi_inf)
    hi = diam * diam / tau + 2.0 * psi_inf
    p_zero = model.cost_slope(np.zeros(grid.n_cells), grid.cell_centers)
    lo = min(lo, float(np.min(p_zero)) - 1.0)
    hi = max(hi, float(np.max(p_zero)) + 1.0)
    return lo, hi


def _transport_costs(grid: Grid, tau: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x = grid.cell_centers
    q_int = (x[:, None] - x[None, :]) ** 2 / (2.0 * tau)
    q_lo = (x - grid.x_lo) ** 2 / (2.0 * tau)
    q_hi = (x - grid.x_hi) ** 2 / (2.0 * tau)
    return q_int, q_lo, q_hi


def dual_vertices(
    q_int: np.ndarray, beta_row: np.ndarray, beta_col: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All vertices of {phi_i + phi*_j <= q_ij, phi <= beta_row, phi* <= beta_col}.

    Returns (K, n) arrays for the row and column potentials. Enumerates every
    basis (the polytope is pointed, so vertices exist and carry the maximum of
    any linear objective that is bounded on it).
    """
    n = q_int.shape[0]
    n_vars = 2 * n
    rows: list[np.ndarray] = []
    rhs: list[float] = []
    for i in range(n):
        for j in range(n):
            r = np.zeros(n_vars)
            r[i] = 1.0
            r[n + j] = 1.0
            rows.append(r)
            rhs.append(float(q_int[i, j]))
    for i in range(n):
        r = np.zeros(n_vars)
        r[i] = 1.0
        rows.append(r)
        rhs.append(float(beta_row[i]))
    for j in range(n):
        r = np.zeros(n_vars)
        r[n + j] = 1.0
        rows.append(r)
        rhs.append(float(beta_col[j]))
    a = np.array(rows)
    b = np.array(rhs)

    combos = np.array(list(itertools.combinations(range(len(rhs)), n_vars)))
    mats = a[combos]  # (C, n_vars, n_vars)
    dets = np.linalg.det(mats)
    keep = np.abs(dets) > 1e-9
    mats = mats[keep]
    vecs = b[combos[keep]]
    verts = np.linalg.solve(mats, vecs[..., None])[..., 0]
    scale = 1.0 + float(np.max(np.abs(b)))
    feasible = np.all(verts @ a.T <= b[None, :] + 1e-9 * scale, axis=1)
    verts = verts[feasible]
    if verts.size == 0:
        raise RuntimeError("dual polytope vertex enumeration found nothing feasible")
    verts = np.unique(np.round(verts / (1e-11 * scale)) * (1e-11 * scale), axis=0)
    return verts[:, :n], verts[:, n:]


class _TransportValue:
    """Exact transport cost as a function of interior column masses."""

    def __init__(self, model: Model, grid: Grid, tau: float, mu: np.ndarray):
        q_int, q_lo, q_hi = _transport_costs(grid, tau)
        beta_row = np.minimum(q_lo + model.psi_lo, q_hi + model.psi_hi)
        beta_col = np.minimum(q_lo - model.psi_lo, q_hi - model.psi_hi)
        self.phi_verts, self.phi_star_verts = dual_vertices(q_int, beta_row, beta_col)
        self.mu = mu
        self._row_part = self.phi_verts @ mu  # (K,)

    def value_many(self, col_masses: np.ndarray) -> np.ndarray:
        """col_masses: (..., n) -> transport cost (...,), exact."""
        scores = col_masses @ self.phi_star_verts.T + self._row_part
        return np.max(scores, axis=-1)

    def argmax_vertex(self, col_mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        scores = self.phi_star_verts @ col_mass + self._row_part
        k = int(np.argmax(scores))
        return self.phi_verts[k].copy(), self.phi_star_verts[k].copy()


def _grid_axes(lo: np.ndarray, hi: np.ndarray, n_pts: int) -> list[np.ndarray]:
    return [np.linspace(lo[j], hi[j], n_pts) for j in range(len(lo))]


def _search_box(
    objective_on_grid,
    lo: np.ndarray,
    hi: np.ndarray,
    n_pts: int,
    max_passes: int,
    expand_limit: int = 8,
) -> tuple[np.ndarray, float, int, float, float]:
    """Exhaustive tensor-grid minimization with edge expansion and shrinking.

    objective_on_grid(axes) must return the full tensor of objective values.
    Returns (argmin point, value, passes, final spacing max, coarse spacing
    max). The coarse spacing is the grid step of the first pass whose argmin
    settled in the interior; one refinement of that pass re-grids the argmin
    cell's neighborhood, so coarse_spacing * 4 / (n_pts - 1) is the spacing
    of the contractual single-refinement enumeration. Later passes keep
    shrinking, which sharpens the value but is reported separately.
    """
    lo = lo.astype(float).copy()
    hi = hi.astype(float).copy()
    n_dim = len(lo)
    passes = 0
    expansions = 0
    best_val = np.inf
    best_pt = 0.5 * (lo + hi)
    coarse = None
    while passes < max_passes:
        axes = _grid_axes(lo, hi, n_pts)
        values = objective_on_grid(axes)
        flat = int(np.argmin(values))
        idx = np.unravel_index(flat, values.shape)
        val = float(values[idx])
        pt = np.array([axes[d][idx[d]] for d in range(n_dim)])
        passes += 1
        at_edge = [idx[d] in (0, n_pts - 1) for d in range(n_dim)]
        if any(at_edge) and expansions < expand_limit:
            for d in range(n_dim):
                width = hi[d] - lo[d]
                if idx[d] == 0:
                    lo[d] -= 3.0 * width
                elif idx[d] == n_pts - 1:
                    hi[d] += 3.0 * width
            expansions += 1
            continue
        if val < best_val:
            best_val = val
            best_pt = pt
        spacing = (hi - lo) / (n_pts - 1)
        if coarse is None:
            coarse = float(np.max(spacing))
        if float(np.max(spacing)) < 1e-12 * (1.0 + float(np.max(np.abs(best_pt)))):
            break
        lo = np.maximum(lo, pt - 2.0 * spacing)
        hi = np.minimum(hi, pt + 2.0 * spacing)
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    spacing = float(np.max((hi - lo) / (n_pts - 1)))
    if coarse is None:
        coarse = spacing
    return best_pt, best_val, passes, spacing, coarse


def _coordinate_polish(objective, point: np.ndarray, lo: np.ndarray, hi: np.ndarray, sweeps: int = 6) -> np.ndarray:
    """Cyclic exact line searches; valid because the objective is convex per
    coordinate (jointly convex in the rate/mass variables)."""
    pt = point.copy()
    for _ in range(sweeps):
        moved = 0.0
        for d in range(len(pt)):
            def line(s, d=d):
                trial = pt.copy()
                trial[d] = s
                return objective(trial)

            res = optimize.minimize_scalar(
                line, bounds=(lo[d], hi[d]), method="bounded",
                options={"xatol": 1e-13, "maxiter": 200},
            )
            moved = max(moved, abs(float(res.x) - pt[d]))
            pt[d] = float(res.x)
        if moved < 1e-13:
            break
    return pt


def brute_force_small(
    model: Model,
    grid: Grid,
    tau: float,
    mu: np.ndarray,
    *,
    rho: np.ndarray | None = None,
    n_grid: int = 50,
    max_passes: int = 14,
) -> OracleResult:
    """Reference optimum by dual-vertex enumeration plus exhaustive search.

    mu holds interior source cell masses. With rho given (interior target
    densities) the fixed-target cost is minimized over the creation field; with
    rho=None the implicit free-energy step is solved, eliminating the density
    cell-by-cell by an inner exact 1D minimization. Limited to 3 interior
    cells: the dual polytope bases grow combinatorially.

    The reported h_resolution is the granularity of the candidate enumeration:
    the step of the n_grid-point search grid after one refinement of the
    settled bracket, converted to creation-rate units. It says how finely the
    brute force distinguished fields, and is the right yardstick for h
    agreement; the optimum value itself is sharpened well past it by the
    continued shrinking passes and the coordinate polish.
    """
    n = grid.n_cells
    if n > 3:
        raise ValueError(
            f"brute force supports at most 3 interior cells (5 nodes), got {n}"
        )
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (n,) or np.any(mu < 0.0):
        raise ValueError("mu must be a nonnegative vector of interior cell masses")
    tau = float(tau)
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau!r}")
    if n_grid < 50:
        raise ValueError("grid search needs at least 50 points per cell")

    dx = grid.cell_width
    x = grid.cell_centers
    transport = _TransportValue(model, grid, tau, mu)
    window = certified_price_window(model, grid, tau)
    floor = np.asarray(model.rate_floor(x), dtype=float)

    if rho is not None:
        rho = np.asarray(rho, dtype=float)
        if rho.shape != (n,) or np.any(rho < 0.0):
            raise ValueError("rho must be a nonnegative vector of interior densities")
        result = _solve_fixed_target(
            model, grid, tau, mu, rho, transport, window, floor, n_grid, max_passes
        )
    else:
        result = _solve_implicit_step(
            model, grid, tau, mu, transport, window, floor, n_grid, max_passes
        )
    return result


def _solve_fixed_target(model, grid, tau, mu, rho, transport, window, floor, n_grid, max_passes):
    dx = grid.cell_width
    x = grid.cell_centers
    n = grid.n_cells

    def objective_many(prices: np.ndarray) -> np.ndarray:
        """prices: (..., n) -> total cost (...,). Infeasible points get +inf."""
        h = np.stack(
            [model.rate_at_price(prices[..., j], x[j]) for j in range(n)], axis=-1
        )
        col = (rho + tau * h) * dx
        bad = col < -1e-14
        col = np.maximum(col, 0.0)
        cost = np.stack([model.cost(h[..., j], x[j]) for j in range(n)], axis=-1)
        total = transport.value_many(col) + tau * dx * np.sum(cost, axis=-1)
        return np.where(np.any(bad, axis=-1), np.inf, total)

    def on_grid(axes):
        mesh = np.meshgrid(*axes, indexing="ij")
        prices = np.stack(mesh, axis=-1)
        return objective_many(prices)

    lo = np.full(n, window[0])
    hi = np.full(n, window[1])
    pt, val, passes, spacing, coarse = _search_box(on_grid, lo, hi, n_grid, max_passes)

    def scalar_obj(p):
        return float(objective_many(p[None, :])[0])

    pt = _coordinate_polish(scalar_obj, pt, lo, hi)
    val = scalar_obj(pt)

    # Self-consistency: redo the final neighborhood at doubled resolution.
    span = np.maximum(spacing, 1e-9)
    pt2, val2, _, _, _ = _search_box(
        on_grid, pt - 2 * span, pt + 2 * span, 2 * n_grid, 4
    )
    gap = abs(val2 - val)
    if val2 < val:
        pt, val = pt2, val2
    if gap > _SELF_CONSISTENCY_TOL:
        logger.warning("fixed-target oracle self-consistency gap %.3g", gap)

    h = model.rate_at_price(pt, x)
    col = np.maximum((rho + tau * h) * dx, 0.0)
    phi, phi_star = transport.argmax_vertex(col)
    # Granularity of the single-refinement price enumeration, in rate units.
    enum_spacing = 4.0 * coarse / (n_grid - 1)
    dh = float(np.max(np.abs(model.rate_at_price_derivative(pt, x)))) * enum_spacing
    ok = bool(np.all(h >= model.rate_at_price(window[0], x) - 1e-9)
              and np.all(h <= model.rate_at_price(window[1], x) + 1.0 + 1e-9))
    return OracleResult(
        value=float(val),
        h=h,
        rho=rho.copy(),
        col_mass=col,
        phi=phi,
        phi_star=phi_star,
        h_resolution=float(max(dh, 1e-12)),
        passes=passes,
        self_consistency_gap=float(gap),
        price_window=window,
        window_ok=ok,
    )


def _solve_implicit_step(model, grid, tau, mu, transport, window, floor, n_grid, max_passes):
    dx = grid.cell_width
    x = grid.cell_centers
    n = grid.n_cells
    energy = model.free_energy

    def cell_reaction_split(m_j: float, j: int) -> tuple[float, float, float]:
        """Exact inner minimization of tau*dx*cost(h) + dx*E(m_j/dx - tau h).

        Unimodal along the price coordinate since the objective is convex in
        the rate itself. Returns (best objective, h, rho)."""
        m_j = max(float(m_j), 0.0)
        p_cap = float(model.cost_slope(m_j / (tau * dx), x[j])) if m_j > 0 else None

        def eval_price(p: float) -> tuple[float, float, float]:
            h = float(model.rate_at_price(p, x[j]))
            h = min(h, m_j / (tau * dx))
            rho_j = max(m_j / dx - tau * h, 0.0)
            val = tau * dx * float(model.cost(h, x[j])) + dx * float(
                energy.density(rho_j, x[j])
            )
            return val, h, rho_j

        s_lo = window[0] - 2.0
        s_hi = window[1] + 2.0
        if p_cap is not None:
            s_hi = min(s_hi, p_cap)
        if m_j <= 0.0 or s_hi <= s_lo:
            # Degenerate: the column receives nothing, all balance is local.
            res = optimize.minimize_scalar(
                lambda p: eval_price(p)[0],
                bounds=(window[0] - 2.0, window[1] + 2.0),
                method="bounded",
                options={"xatol": 1e-13, "maxiter": 200},
            )
            return eval_price(float(res.x))
        res = optimize.minimize_scalar(
            lambda p: eval_price(p)[0],
            bounds=(s_lo, s_hi),
            method="bounded",
            options={"xatol": 1e-13, "maxiter": 200},
        )
        best = eval_price(float(res.x))
        for p_edge in (s_lo, s_hi):
            cand = eval_price(p_edge)
            if cand[0] < best[0]:
                best = cand
        return best

    def on_grid(axes):
        tables = []
        for j, axis in enumerate(axes):
            tables.append(np.array([cell_reaction_split(m, j)[0] for m in axis]))
        mesh = np.meshgrid(*axes, indexing="ij")
        col = np.stack(mesh, axis=-1)
        total = transport.value_many(col)
        for j in range(n):
            shape = [1] * n
            shape[j] = len(axes[j])
            total = total + tables[j].reshape(shape)
        return total

    density_scale = max(
        float(np.max(mu)) / dx,
        max(model.boundary_density),
        float(np.max(model.reaction.density_at_rate(0.0, x))),
        1.0,
    )
    lo = np.full(n, 0.0)
    hi = np.full(n, 3.0 * density_scale * dx)
    pt, val, passes, spacing, coarse = _search_box(on_grid, lo, hi, n_grid, max_passes)

    def scalar_obj(m):
        m = np.asarray(m, dtype=float)
        local = sum(cell_reaction_split(m[j], j)[0] for j in range(n))
        return float(transport.value_many(m[None, :])[0]) + local

    big = np.full(n, 10.0 * density_scale * dx)
    pt = _coordinate_polish(scalar_obj, pt, np.zeros(n), big)
    val = scalar_obj(pt)

    span = np.maximum(spacing, 1e-9)
    pt2, val2, _, _, _ = _search_box(
        on_grid, np.maximum(pt - 2 * span, 0.0), pt + 2 * span, 2 * n_grid, 4
    )
    gap = abs(val2 - val)
    if val2 < val:
        pt, val = pt2, val2
    if gap > _SELF_CONSISTENCY_TOL:
        logger.warning("implicit-step oracle self-consistency gap %.3g", gap)

    h = np.empty(n)
    rho = np.empty(n)
    for j in range(n):
        _, h[j], rho[j] = cell_reaction_split(pt[j], j)
    phi, phi_star = transport.argmax_vertex(pt)
    h_lo = model.rate_at_price(window[0], x)
    h_hi = model.rate_at_price(window[1], x)
    ok = bool(np.all(h >= h_lo - 1e-9) and np.all(h <= h_hi + 1.0 + 1e-9))
    # Granularity of the single-refinement column-mass enumeration, in rate units.
    dm = 4.0 * coarse / (n_grid - 1)
    dh = dm / (tau * dx)
    return OracleResult(
        value=float(val),
        h=h,
        rho=rho,
        col_mass=pt.copy(),
        phi=phi,
        phi_star=phi_star,
        h_resolution=float(max(dh, 1e-12)),
        passes=passes,
        self_consistency_gap=float(gap),
        price_window=window,
        window_ok=ok,
    )
