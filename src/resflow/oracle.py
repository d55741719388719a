"""Exhaustive reference solver for tiny instances.

Independent of the production solver: it imports nothing from transport.py
and uses no LP and no library optimiser. The transport subproblem is solved
by enumerating the vertices of the dual polytope once per instance (the dual
maximum over a polytope with bounded coordinates is attained at a vertex),
after which the transport cost for ANY interior column-mass vector is an
exact max of affine functions. Every other term is separable: the search
coordinate of a cell (its marginal price for a fixed target, its column mass
for an implicit step) enters only through that cell's column mass and local
cost. The search therefore tabulates the column masses and local costs one
axis at a time, evaluates the objective on their tensor grid as outer sums
of per-axis terms (no mesh of points is built), and refines the grid
geometrically until it has pinned the optimum. A final search of the
optimum's neighbourhood at doubled resolution is the oracle's certificate:
if it finds a value that differs by more than _SELF_CONSISTENCY_TOL, the
oracle raises instead of answering.

The implicit step's inner reaction/density split is one batched bracketed
grid search over many unimodal functions at once: the same brute-force
convexity argument as the tensor search, vectorised over a whole axis. The
oracle certifies the fast path on instances with at most 3 interior cells
(5 nodes).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid
from .model import Model

__all__ = ["OracleResult", "certified_price_window", "brute_force_small"]

_SELF_CONSISTENCY_TOL = 1e-7
_N_GRID = 50          # points per axis of the tensor search
_MAX_PASSES = 14      # passes of the tensor search
_EXPAND_LIMIT = 8     # edge expansions of the tensor search box
_LINE_POINTS = 33     # points per row and pass of the bracketed search
_XATOL = 1e-13        # bracket width at which the bracketed search stops


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


def _dual_vertices(
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
        self.phi_verts, self.phi_star_verts = _dual_vertices(q_int, beta_row, beta_col)
        self._row_part = self.phi_verts @ mu  # (K,)

    def on_axes(self, cols: tuple[np.ndarray, ...]) -> np.ndarray:
        """Exact transport cost on the tensor grid of per-cell column masses.

        cols[j] is a 1-D array of cell j's column masses. A vertex's score is
        an outer sum of per-axis terms, and the vertices are folded in as a
        running max, so neither the mesh of points nor a per-vertex score
        array is ever built.
        """
        n_dim = len(cols)
        best = None
        for row, ps in zip(self._row_part, self.phi_star_verts):
            score = sum(_along(ps[j] * c, j, n_dim) for j, c in enumerate(cols)) + row
            best = score if best is None else np.maximum(best, score, out=best)
        return best

    def argmax_vertex(self, col_mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        scores = self.phi_star_verts @ col_mass + self._row_part
        k = int(np.argmax(scores))
        return self.phi_verts[k].copy(), self.phi_star_verts[k].copy()


def _grid_axes(lo: np.ndarray, hi: np.ndarray, n_pts: int) -> list[np.ndarray]:
    return [np.linspace(lo[j], hi[j], n_pts) for j in range(len(lo))]


def _along(v: np.ndarray, j: int, n_dim: int) -> np.ndarray:
    """The 1-D array v laid along axis j of an n_dim-dimensional tensor grid."""
    return v.reshape([-1 if d == j else 1 for d in range(n_dim)])


def _bracketed_min(f, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimise B unimodal functions of one variable at once, row b on [lo[b], hi[b]].

    f maps a (B, k) array of trial points, row b for function b, to their
    (B, k) values. Each pass evaluates a _LINE_POINTS grid per row, endpoints
    included, in one call of f and keeps the two grid cells around each
    row's argmin, which contain a minimiser of a unimodal function. Passes
    stop once every bracket is narrower than _XATOL (or than a few units in
    the last place, where rounding would stall it). Returns the argmin of
    the last pass and its value, both shaped (B,). Where rounding flattens a
    smooth minimum into tied values, the point returned ties the minimum
    value but may sit up to about sqrt(eps) (relative to the value scale)
    from the exact minimiser.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    t = np.linspace(0.0, 1.0, _LINE_POINTS)
    rows = np.arange(len(lo))
    while True:
        pts = lo[:, None] + (hi - lo)[:, None] * t
        vals = f(pts)
        k = np.argmin(vals, axis=1)
        width = hi - lo
        if np.all(width <= _XATOL + 4.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))):
            return pts[rows, k], vals[rows, k]
        lo = pts[rows, np.maximum(k - 1, 0)]
        hi = pts[rows, np.minimum(k + 1, _LINE_POINTS - 1)]


def _separable(transport: _TransportValue, cell):
    """The objective on a tensor grid: the transport value of the column
    masses plus one local cost per cell.

    cell(v, j) maps a 1-D array of values of cell j's search coordinate to
    that cell's column masses and local costs; no other cell's coordinate
    enters either. The returned on_grid(axes) gives the objective on the
    tensor product of the axes.
    """

    def on_grid(axes: list[np.ndarray]) -> np.ndarray:
        cols, local = zip(*(cell(axis, j) for j, axis in enumerate(axes)))
        total = transport.on_axes(cols)
        for j, table in enumerate(local):
            total += _along(table, j, len(axes))
        return total

    return on_grid


def _search_box(
    objective_on_grid,
    lo: np.ndarray,
    hi: np.ndarray,
    n_pts: int,
    max_passes: int,
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
        if any(at_edge) and expansions < _EXPAND_LIMIT:
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


def _minimise(on_grid, lo: np.ndarray, hi: np.ndarray):
    """Tensor search from [lo, hi], then the self-consistency check: the
    final neighbourhood, clipped below at lo, searched again at doubled
    resolution. Returns (point, value, passes, coarse spacing,
    self-consistency gap)."""
    pt, val, passes, spacing, coarse = _search_box(on_grid, lo, hi, _N_GRID, _MAX_PASSES)
    span = np.maximum(spacing, 1e-9)
    pt2, val2, _, _, _ = _search_box(
        on_grid, np.maximum(pt - 2 * span, lo), pt + 2 * span, 2 * _N_GRID, 4
    )
    gap = abs(val2 - val)
    if val2 < val:
        pt, val = pt2, val2
    return pt, val, passes, coarse, gap


def _check_consistency(gap: float, mode: str) -> None:
    if gap > _SELF_CONSISTENCY_TOL:
        raise RuntimeError(
            f"{mode} oracle self-consistency gap {gap:.3g} exceeds {_SELF_CONSISTENCY_TOL:g}"
        )


def brute_force_small(
    model: Model,
    grid: Grid,
    tau: float,
    mu: np.ndarray,
    *,
    rho: np.ndarray | None = None,
) -> OracleResult:
    """Reference optimum by dual-vertex enumeration plus exhaustive search.

    mu holds interior source cell masses. With rho given (interior target
    densities) the fixed-target cost is minimized over the creation field; with
    rho=None the implicit free-energy step is solved, eliminating the density
    cell-by-cell by an inner exact 1D minimization. Limited to 3 interior
    cells: the dual polytope bases grow combinatorially.

    The reported h_resolution is the granularity of the candidate enumeration:
    the step of the _N_GRID-point search grid after one refinement of the
    settled bracket, converted to creation-rate units. It says how finely the
    brute force distinguished fields, and is the right yardstick for h
    agreement; the optimum value itself is sharpened well past it by the
    continued shrinking passes. Raises RuntimeError when the doubled-resolution
    re-search disagrees with the optimum by more than _SELF_CONSISTENCY_TOL.
    """
    n = grid.n_cells
    if n > 3:
        raise ValueError(
            f"brute force supports at most 3 interior cells (5 nodes), got {n}"
        )
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (n,) or not np.all(np.isfinite(mu)) or np.any(mu < 0.0):
        raise ValueError("mu must be a finite, nonnegative vector of interior cell masses")
    tau = float(tau)
    if not 0.0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau!r}")

    transport = _TransportValue(model, grid, tau, mu)
    window = certified_price_window(model, grid, tau)
    if rho is None:
        return _solve_implicit_step(model, grid, tau, mu, transport, window)
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (n,) or not np.all(np.isfinite(rho)) or np.any(rho < 0.0):
        raise ValueError("rho must be a finite, nonnegative vector of interior densities")
    return _solve_fixed_target(model, grid, tau, rho, transport, window)


def _solve_fixed_target(model, grid, tau, rho, transport, window):
    dx = grid.cell_width
    x = grid.cell_centers
    n = grid.n_cells

    def cell(p: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Column masses and reaction costs of cell j at prices p; a column
        that would go negative is infeasible and costs +inf."""
        h = model.rate_at_price(p, x[j])
        col = (rho[j] + tau * h) * dx
        local = tau * dx * model.cost(h, x[j])
        return np.maximum(col, 0.0), np.where(col < -1e-14, np.inf, local)

    lo = np.full(n, window[0])
    hi = np.full(n, window[1])
    pt, val, passes, coarse, gap = _minimise(_separable(transport, cell), lo, hi)
    _check_consistency(gap, "fixed-target")

    h = model.rate_at_price(pt, x)
    col = np.maximum((rho + tau * h) * dx, 0.0)
    phi, phi_star = transport.argmax_vertex(col)
    # Granularity of the single-refinement price enumeration, in rate units.
    enum_spacing = 4.0 * coarse / (_N_GRID - 1)
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


def _solve_implicit_step(model, grid, tau, mu, transport, window):
    dx = grid.cell_width
    x = grid.cell_centers
    n = grid.n_cells
    energy = model.free_energy

    def split_many(m: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact inner minimization of tau*dx*cost(h) + dx*E(m/dx - tau h)
        over h, for every column mass in the 1-D array m of cell j.

        Searched along the price coordinate with one _bracketed_min call:
        every row is unimodal there, since the objective is convex in the
        rate itself. Each row's bracket is the price window widened by 2 on
        both sides, its upper end capped at the price whose rate empties the
        cell; a row whose cap leaves nothing, or whose column receives
        nothing (all balance is local), keeps the full widened window.
        Returns (best objective, h, rho), each shaped like m.
        """
        m = np.maximum(m, 0.0)

        def eval_price(p, m):
            h = np.minimum(model.rate_at_price(p, x[j]), m / (tau * dx))
            rho_j = np.maximum(m / dx - tau * h, 0.0)
            val = tau * dx * model.cost(h, x[j]) + dx * energy.density(rho_j, x[j])
            return val, h, rho_j

        s_lo = window[0] - 2.0
        s_hi = window[1] + 2.0
        cap = np.minimum(s_hi, model.cost_slope(m / (tau * dx), x[j]))
        hi = np.where((m > 0.0) & (cap > s_lo), cap, s_hi)
        p, _ = _bracketed_min(
            lambda p: eval_price(p, m[:, None])[0], np.full(len(m), s_lo), hi
        )
        return eval_price(p, m)

    def cell(m: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
        return m, split_many(m, j)[0]

    density_scale = max(
        float(np.max(mu)) / dx,
        max(model.boundary_density),
        float(np.max(model.reaction.density_at_rate(0.0, x))),
        1.0,
    )
    pt, val, passes, coarse, gap = _minimise(
        _separable(transport, cell), np.zeros(n), np.full(n, 3.0 * density_scale * dx)
    )
    _check_consistency(gap, "implicit-step")

    h = np.empty(n)
    rho = np.empty(n)
    for j in range(n):
        _, h[j:j + 1], rho[j:j + 1] = split_many(pt[j:j + 1], j)
    phi, phi_star = transport.argmax_vertex(pt)
    h_lo = model.rate_at_price(window[0], x)
    h_hi = model.rate_at_price(window[1], x)
    ok = bool(np.all(h >= h_lo - 1e-9) and np.all(h <= h_hi + 1.0 + 1e-9))
    # Granularity of the single-refinement column-mass enumeration, in rate units.
    dm = 4.0 * coarse / (_N_GRID - 1)
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
