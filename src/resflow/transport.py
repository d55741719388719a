"""Reservoir-coupled transport steps, solved exactly and certified.

Solves, on the cell-centered mesh, the step cost

    min over plans and creation fields of
        sum(plan * price-adjusted quadratic cost) + tau * dx * sum(cost(h))

subject to: interior row sums equal the source masses, interior column sums
equal (rho + tau h) dx, and no mass moves boundary-to-boundary. The target
density rho is either prescribed (fixed-target) or eliminated through the
free energy (implicit step of the minimizing-movement scheme).

Architecture: the column masses are the only coupling between the plan and
the reaction/energy terms, and their eliminated per-column cost is convex.
A joint LP over the admissible arcs and piecewise-linear column costs is
re-solved with breakpoint windows that shrink around its optimum; the first
windows are centred on the masses required at a seed price (the zero-rate
price on a cold step, the previous step's prices on a warm one). The
identified support is snapped to machine precision by the reduced
optimality system, the duals are made exactly feasible by a double
c-transform, and the verified primal-dual gap certifies the step. The
creation field and (for implicit steps) the density are defined through the
dual prices, so the marginal-cost identities hold by construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy import sparse
from scipy.optimize import linprog, nnls

from .grid import Grid
from .model import Model

__all__ = [
    "Density",
    "CostMatrix",
    "SolverOptions",
    "TransportSolution",
    "PotentialReport",
    "build_cost_matrix",
    "solve_fixed_target",
    "solve_jko_step",
    "extract_potentials",
    "weighted_median",
]

_EXP_CAP = 700.0
_MASS_FLOOR_FACTOR = 1e-12


@dataclass(frozen=True)
class Density:
    """Nonnegative cell masses on the interior mesh."""

    cell_mass: np.ndarray
    cell_width: float

    def __post_init__(self):
        mass = np.asarray(self.cell_mass, dtype=float)
        if np.any(mass < 0.0):
            raise ValueError("cell masses must be nonnegative")
        object.__setattr__(self, "cell_mass", mass)

    @property
    def density(self) -> np.ndarray:
        return self.cell_mass / self.cell_width

    @classmethod
    def from_density(cls, values: np.ndarray, grid: Grid) -> "Density":
        return cls(cell_mass=np.asarray(values, dtype=float) * grid.cell_width,
                   cell_width=grid.cell_width)


@dataclass(frozen=True)
class CostMatrix:
    """Pairwise step costs on [interior cells..., lower wall, upper wall].

    quad is the plain squared-distance cost |x-y|^2/(2 tau); tilde adds the
    reservoir price on wall arcs and +inf on the forbidden wall-to-wall block.
    """

    quad: np.ndarray
    tilde: np.ndarray
    forbidden: np.ndarray
    tau: float
    n_cells: int


def build_cost_matrix(model: Model, grid: Grid, tau: float) -> CostMatrix:
    tau = float(tau)
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau!r}")
    nodes = np.concatenate([grid.cell_centers, [grid.x_lo, grid.x_hi]])
    n = grid.n_cells
    quad = (nodes[:, None] - nodes[None, :]) ** 2 / (2.0 * tau)
    psi = np.array([model.psi_lo, model.psi_hi])
    tilde = quad.copy()
    tilde[:n, n:] += psi[None, :]   # mass leaving pays the reservoir price
    tilde[n:, :n] -= psi[:, None]   # mass entering is credited it
    forbidden = np.zeros_like(quad, dtype=bool)
    forbidden[n:, n:] = True
    tilde[forbidden] = np.inf
    return CostMatrix(quad=quad, tilde=tilde, forbidden=forbidden, tau=tau, n_cells=n)


@dataclass(frozen=True)
class SolverOptions:
    """Warm start of a step: interior prices of a nearby solved step."""

    init_phi_star: np.ndarray | None = None


@dataclass(frozen=True)
class TransportSolution:
    """Converged step: plan, creation field, target density and dual prices.

    gamma rows/cols are ordered interior-then-walls as in CostMatrix. phi and
    phi_star carry the wall values pinned to +/- the reservoir potential in
    their last two slots. kappa is the dual offset of the price identity;
    iterations counts the joint-LP rounds of the polish; residuals holds
    named convergence measures.
    """

    gamma: np.ndarray
    h: np.ndarray
    rho: np.ndarray
    phi: np.ndarray
    phi_star: np.ndarray
    kappa: float
    primal_value: float
    objective: float
    converged: bool
    iterations: int
    residuals: dict[str, float] = field(compare=False)
    diagnostics: Any = field(default=None, compare=False)

    @property
    def mass_floor(self) -> float:
        return _MASS_FLOOR_FACTOR * float(np.sum(self.gamma))


@dataclass(frozen=True)
class PotentialReport:
    kappa: float
    optimality_residual: float
    concavity_gap: float
    support_slack: float


def weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    """Median of values under nonnegative weights (lower median convention)."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.size == 0:
        return 0.0
    total = float(np.sum(weights))
    if total <= 0.0:
        return float(np.median(values))
    order = np.argsort(values)
    cum = np.cumsum(weights[order])
    k = int(np.searchsorted(cum, 0.5 * total))
    return float(values[order][min(k, len(values) - 1)])


# ---------------------------------------------------------------------------
# exact polish
# ---------------------------------------------------------------------------


class _Kernel:
    """Geometry and model data shared by all stages of one solve."""

    def __init__(self, model: Model, grid: Grid, tau: float, mu: np.ndarray,
                 rho_target: np.ndarray | None):
        self.model = model
        self.grid = grid
        self.tau = float(tau)
        self.mu = mu
        self.rho_target = rho_target
        self.jko = rho_target is None
        x = grid.cell_centers
        self.x = x
        self.dx = grid.cell_width
        self.psi = np.array([model.psi_lo, model.psi_hi])
        self.v = np.asarray(model.drift(x), dtype=float)
        self.total_mass = float(np.sum(mu))

    def col_target(self, t: np.ndarray) -> np.ndarray:
        """Required column mass when the column potential equals t."""
        h = self.model.rate_at_price(-t, self.x)
        if self.jko:
            rho = np.exp(np.clip(-t - self.v, -_EXP_CAP, _EXP_CAP))
        else:
            rho = self.rho_target
        return (rho + self.tau * h) * self.dx


def _components_on_support(n: int, support: np.ndarray):
    """Connected components of the interior bipartite support graph.

    Nodes are rows 0..n-1 and cols n..2n-1; wall arcs do not join components
    (walls have no constraint) but are reported per component so the caller
    can pin its gauge. Yields (rows, cols, wall_pin) with wall_pin either
    None or a ("row"|"col", interior index, wall index) tight wall arc.
    """
    comp = np.full(2 * n, -1)
    adj_rows = [np.nonzero(support[i, :n])[0] for i in range(n)]
    adj_cols = [np.nonzero(support[:n, j])[0] for j in range(n)]
    out = []
    for seed in range(2 * n):
        if comp[seed] != -1:
            continue
        comp[seed] = len(out)
        stack = [seed]
        rows, cols = [], []
        while stack:
            node = stack.pop()
            if node < n:
                rows.append(node)
                for j in adj_rows[node]:
                    if comp[n + j] == -1:
                        comp[n + j] = comp[seed]
                        stack.append(n + j)
            else:
                cols.append(node - n)
                for i in adj_cols[node - n]:
                    if comp[i] == -1:
                        comp[i] = comp[seed]
                        stack.append(i)
        wall_pin = None
        for i in rows:
            for b in (0, 1):
                if support[i, n + b]:
                    wall_pin = ("row", i, b)
                    break
            if wall_pin:
                break
        if wall_pin is None:
            for j in cols:
                for b in (0, 1):
                    if support[n + b, j]:
                        wall_pin = ("col", j, b)
                        break
                if wall_pin:
                    break
        out.append((rows, cols, wall_pin))
    return out


def _potentials_on_support(kern: _Kernel, cost: CostMatrix, support: np.ndarray):
    """Exact duals consistent with tightness on the active arcs.

    Tight arcs fix the duals inside each component up to one constant. A
    tight wall arc pins it outright; otherwise the constant solves the
    component's scalar mass balance (total required column mass equals total
    source mass), a strictly monotone equation handled by safeguarded
    Newton. This balance gauge is what holds at kink optima, where wall
    subgradient jumps would make any arc-based pinning oscillate.
    """
    n = cost.n_cells
    q = cost.quad
    psi = kern.psi
    phi = np.zeros(n)
    ps = np.zeros(n)
    known_phi = np.zeros(n, dtype=bool)
    known_ps = np.zeros(n, dtype=bool)

    for rows, cols, wall_pin in _components_on_support(n, support):
        # propagate tightness from the first member
        if rows:
            phi[rows[0]] = 0.0
            known_phi[rows[0]] = True
        else:
            ps[cols[0]] = 0.0
            known_ps[cols[0]] = True
        for _ in range(len(rows) + len(cols)):
            changed = False
            for i in rows:
                if known_phi[i]:
                    js = np.nonzero(support[i, :n])[0]
                    for j in js:
                        if not known_ps[j]:
                            ps[j] = q[i, j] - phi[i]
                            known_ps[j] = True
                            changed = True
            for j in cols:
                if known_ps[j]:
                    is_ = np.nonzero(support[:n, j])[0]
                    for i in is_:
                        if not known_phi[i]:
                            phi[i] = q[i, j] - ps[j]
                            known_phi[i] = True
                            changed = True
            if not changed:
                break
        if wall_pin is not None:
            kind, k, b = wall_pin
            if kind == "row":
                shift = (q[k, n + b] + psi[b]) - phi[k]
            else:
                shift = ps[k] - (q[n + b, k] - psi[b])
        elif cols:
            shift = _balance_gauge(kern, np.array(cols, dtype=int), ps,
                                   float(np.sum(kern.mu[rows])) if rows else 0.0)
        else:
            shift = 0.0
        for i in rows:
            phi[i] += shift
        for j in cols:
            ps[j] -= shift
    return phi, ps


def _balance_gauge(kern: _Kernel, cols: np.ndarray, ps: np.ndarray, row_mass: float) -> float:
    """Shift delta with sum_j required-mass(ps_j - delta) = row_mass."""
    base = ps[cols]
    x_sub = kern.x[cols]

    def total(delta):
        t = base - delta
        h = kern.model.rate_at_price(-t, x_sub)
        if kern.jko:
            rho = np.exp(np.clip(-t - kern.v[cols], -_EXP_CAP, _EXP_CAP))
        else:
            rho = kern.rho_target[cols]
        return float(np.sum((rho + kern.tau * h) * kern.dx))

    # total is increasing in delta; bracket then bisect/newton
    lo = hi = 0.0
    step = 0.5
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(200):
            if total(lo) < row_mass:
                break
            lo -= step
            step *= 2.0
        step = 0.5
        for _ in range(200):
            if total(hi) > row_mass:
                break
            hi += step
            step *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            diff = total(mid) - row_mass
            if abs(diff) <= 1e-14 * max(kern.total_mass, 1e-300) or hi - lo < 1e-16 * (1.0 + abs(mid)):
                return mid
            if diff > 0.0:
                hi = mid
            else:
                lo = mid
    return 0.5 * (lo + hi)


def _arc_masses(kern: _Kernel, support: np.ndarray, col_mass: np.ndarray):
    """Nonnegative arc masses fitting both marginals on the active set.

    Solved as NNLS on the support incidence system, which handles trees and
    degenerate cycles alike; the residual measures whether the active set
    can carry the marginals at all.
    """
    n = len(kern.mu)
    idx_r, idx_c = np.nonzero(support)
    a = np.zeros((2 * n, len(idx_r)))
    for k, (i, j) in enumerate(zip(idx_r, idx_c)):
        if i < n:
            a[i, k] = 1.0
        if j < n:
            a[n + j, k] = 1.0
    b = np.concatenate([kern.mu, col_mass])
    if len(idx_r) == 0:
        return np.zeros((n + 2, n + 2)), float(np.linalg.norm(b))
    sol, resid = nnls(a, b)
    gamma = np.zeros((n + 2, n + 2))
    gamma[idx_r, idx_c] = sol
    return gamma, float(resid)


def _reduced_solve(kern: _Kernel, cost: CostMatrix, support: np.ndarray):
    """Machine-precision solve on an active arc set, pruning as needed.

    Arcs the NNLS mass fit zeroes out while leaving a residual are blocking
    the balance (they would need negative mass); pruning them and re-solving
    terminates because the set strictly shrinks.
    """
    n = cost.n_cells
    support = support.copy()
    mass_scale = max(kern.total_mass, 1e-300)
    phi = ps = gamma = None
    resid = np.inf
    for _ in range(2 * n + 4):
        phi, ps = _potentials_on_support(kern, cost, support)
        col_mass = np.maximum(kern.col_target(ps), 0.0)
        gamma, resid = _arc_masses(kern, support, col_mass)
        if resid <= 1e-11 * mass_scale:
            break
        dead = support & (gamma <= _MASS_FLOOR_FACTOR * mass_scale)
        if not np.any(dead):
            break
        support &= ~dead
    return phi, ps, gamma, resid, support


def _price_of_mass(kern: _Kernel, m: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Column potential t with required-mass(t) = m, per listed column.

    The required mass is strictly decreasing in t, so the root is unique;
    m = 0 returns the finite zero-mass price. Vectorized bracket growth
    plus bisection.
    """
    model = kern.model
    x = kern.x[cols]
    v = kern.v[cols]
    rho_fixed = None if kern.jko else kern.rho_target[cols]

    def target(t):
        with np.errstate(over="ignore", invalid="ignore"):
            h = model.rate_at_price(-t, x)
            rho = np.exp(np.clip(-t - v, -_EXP_CAP, _EXP_CAP)) if kern.jko else rho_fixed
            return (rho + kern.tau * h) * kern.dx

    t = np.zeros(len(cols))
    lo = t.copy()
    hi = t.copy()
    flo = target(lo) - m
    step = np.full_like(t, 0.5)
    for _ in range(200):
        mask = ~(flo > 0.0)   # need target(lo) > m on the low side
        if not np.any(mask):
            break
        lo[mask] -= step[mask]
        step[mask] *= 2.0
        flo = target(lo) - m
    fhi = target(hi) - m
    step = np.full_like(t, 0.5)
    for _ in range(200):
        mask = ~(fhi < 0.0)
        if not np.any(mask):
            break
        hi[mask] += step[mask]
        step[mask] *= 2.0
        fhi = target(hi) - m
    scale = max(kern.total_mass, 1e-300)
    t = 0.5 * (lo + hi)
    for _ in range(200):
        fv = target(t) - m
        done = (np.abs(fv) <= 1e-14 * scale) | (hi - lo <= 1e-16 * (1.0 + np.abs(t)))
        if np.all(done):
            break
        neg = fv < 0.0    # target too small: price too high
        hi = np.where(neg, t, hi)
        lo = np.where(neg, lo, t)
        t = np.where(done, t, 0.5 * (lo + hi))
    return t


def _xi_table(kern: _Kernel, breaks: np.ndarray) -> np.ndarray:
    """Exact per-column convex cost of holding a given column mass.

    For a prescribed target the creation field is eliminated directly; for
    an implicit step the split between held density and creation is itself
    optimized, which reduces to the price root at each mass (the same
    marginal-price identity the whole scheme rests on).
    """
    n, b = breaks.shape
    x_t = np.repeat(kern.x, b)
    flat = breaks.reshape(-1)
    if kern.jko:
        cols = np.repeat(np.arange(n), b)
        t = _price_of_mass(kern, flat, cols)
        with np.errstate(over="ignore", invalid="ignore"):
            rho = np.exp(np.clip(-t - np.repeat(kern.v, b), -_EXP_CAP, _EXP_CAP))
        # the price form of the rate cannot dip below the floor by rounding,
        # unlike the mass-balance form
        h = kern.model.rate_at_price(-t, x_t)
        xi = kern.dx * kern.model.free_energy.density(rho, x_t) \
            + kern.tau * kern.dx * kern.model.cost(h, x_t)
    else:
        rho_t = np.repeat(kern.rho_target, b)
        h = (flat / kern.dx - rho_t) / kern.tau
        h = np.maximum(h, np.nextafter(kern.model.rate_floor(x_t), np.inf))
        xi = kern.tau * kern.dx * kern.model.cost(h, x_t)
    return xi.reshape(n, b)


def _joint_lp(kern: _Kernel, cost: CostMatrix, breaks: np.ndarray, xi: np.ndarray):
    """One LP over plans and piecewise-linearized column costs.

    Variables are the admissible arcs plus, per column, the segment fills of
    the linearized cost; column balance ties arc inflow to the base mass
    plus the fills. Returns the plan part, the optimal column masses and the
    LP objective (a global bound up to linearization error, since chords of
    a convex function lie above it).
    """
    n = cost.n_cells
    allowed = ~cost.forbidden
    idx_r, idx_c = np.nonzero(allowed)
    n_arcs = len(idx_r)
    k = breaks.shape[1] - 1
    widths = np.diff(breaks, axis=1)
    widths = np.maximum(widths, 1e-300)
    slopes = np.diff(xi, axis=1) / widths

    c_vec = np.concatenate([cost.tilde[idx_r, idx_c], slopes.reshape(-1)])
    rows, cols_ix, vals = [], [], []
    for a, (i, j) in enumerate(zip(idx_r, idx_c)):
        if i < n:
            rows.append(i)
            cols_ix.append(a)
            vals.append(1.0)
        if j < n:
            rows.append(n + j)
            cols_ix.append(a)
            vals.append(1.0)
    for j in range(n):
        for s in range(k):
            rows.append(n + j)
            cols_ix.append(n_arcs + j * k + s)
            vals.append(-1.0)
    a_eq = sparse.csr_matrix((vals, (rows, cols_ix)), shape=(2 * n, n_arcs + n * k))
    b_eq = np.concatenate([kern.mu, breaks[:, 0]])
    bounds = [(0, None)] * n_arcs + [
        (0, widths[j, s]) for j in range(n) for s in range(k)
    ]
    res = linprog(
        c_vec, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if not res.success:
        raise RuntimeError(f"joint refinement LP failed: {res.message}")
    gamma = np.zeros((n + 2, n + 2))
    gamma[idx_r, idx_c] = res.x[:n_arcs]
    fills = res.x[n_arcs:].reshape(n, k)
    m_star = breaks[:, 0] + fills.sum(axis=1)
    value = float(res.fun) + float(np.sum(xi[:, 0]))
    return gamma, m_star, value


def _polish(kern: _Kernel, cost: CostMatrix, phi_star: np.ndarray):
    """Exact step optimum by convex mass refinement from a seed price.

    The column masses are the only coupling between the plan and the
    reaction/energy terms, and their eliminated cost is convex, so a
    piecewise-linear joint LP with geometrically shrinking breakpoint
    windows converges globally to the step optimum from any seed. The
    identified support is then snapped to machine precision by the reduced
    optimality system, and the candidate's verified primal-dual gap
    certifies the result. Returns the best candidate and the LP rounds run.
    """
    n = cost.n_cells

    # breakpoint windows around the seed masses, clipped to feasible masses
    if kern.jko:
        m_min = np.zeros(n)
    else:
        floor_mass = (kern.rho_target + kern.tau * kern.model.rate_floor(kern.x)) * kern.dx
        m_min = np.maximum(floor_mass * (1.0 + 1e-10) + 1e-300, 0.0)
    m_seed = np.maximum(kern.col_target(phi_star), m_min)
    cell_scale = max(kern.total_mass, 1e-300) / max(n, 1)
    half = np.maximum(0.5 * m_seed, cell_scale)
    lo = np.maximum(m_seed - half, m_min)
    hi = np.maximum(m_seed + half, lo + cell_scale)
    k = 12
    target_width = 1e-11 * cell_scale
    best = None
    for rnd in range(40):
        breaks = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, k + 1)[None, :]
        xi = _xi_table(kern, breaks)
        gamma_joint, m_star, _ = _joint_lp(kern, cost, breaks, xi)
        seg = (hi - lo) / k
        at_lo = (m_star <= lo + 0.5 * seg) & (lo > m_min + 1e-300)
        at_hi = m_star >= hi - 0.5 * seg
        grow = at_lo | at_hi
        if not np.any(grow) and rnd >= 1:
            cand = _assemble_candidate(kern, cost, gamma_joint, m_star, m_min)
            if best is None or cand[6] < best[6]:
                best = cand
            if cand[6] <= 1e-10 * (1.0 + abs(cand[5])):
                break
        if not np.any(grow) and np.all((hi - lo) <= target_width):
            break
        width = np.where(grow, (hi - lo) * 3.0, np.maximum(3.0 * seg, target_width))
        lo = np.maximum(m_star - 0.5 * width, m_min)
        hi = np.maximum(m_star + 0.5 * width, lo + target_width)
    if best is None:
        best = _assemble_candidate(kern, cost, gamma_joint, m_star, m_min)
    return best, rnd + 1


def _dual_value(kern: _Kernel, phi: np.ndarray, ps: np.ndarray) -> float:
    """Unregularized dual objective of a feasible potential pair."""
    with np.errstate(over="ignore", invalid="ignore"):
        val = float(phi @ kern.mu)
        if kern.jko:
            val -= kern.dx * float(np.sum(kern.model.free_energy.conjugate(-ps, kern.x)))
        else:
            val += kern.dx * float(ps @ kern.rho_target)
        val -= kern.tau * kern.dx * float(np.sum(kern.model.cost_conjugate(-ps, kern.x)))
    return val


def _assemble_candidate(kern: _Kernel, cost: CostMatrix, gamma_joint: np.ndarray,
                        m_star: np.ndarray, m_min: np.ndarray):
    """Exact solution candidate at refined masses, with its duality gap.

    Prices, density and creation field are assembled from the mass roots;
    the plan support (augmented with every near-tight arc, so degenerate
    ties cannot pair a plan with foreign duals) is snapped through the
    reduced system. Potentials are made exactly feasible by a double
    c-transform, and the verified primal-dual gap certifies the candidate:
    at a true optimum it vanishes to rounding.
    """
    model = kern.model
    x = kern.x
    dx = kern.dx
    tau = kern.tau
    n = cost.n_cells
    q = cost.quad
    psi = kern.psi
    allowed = ~cost.forbidden
    mass_scale = max(kern.total_mass, 1e-300)

    def full_value(h, rho, transport_value):
        val = transport_value + tau * dx * float(np.sum(model.cost(h, x)))
        if kern.jko:
            val += dx * float(np.sum(model.free_energy.density(rho, x)))
        return val

    m_star = np.maximum(m_star, m_min)
    rate_floor = np.nextafter(model.rate_floor(x), np.inf)
    if kern.jko:
        ps_m = _price_of_mass(kern, m_star, np.arange(n))
        with np.errstate(over="ignore", invalid="ignore"):
            rho_m = np.exp(np.clip(-ps_m - kern.v, -_EXP_CAP, _EXP_CAP))
        h_m = np.maximum((m_star / dx - rho_m) / tau, rate_floor)
    else:
        rho_m = kern.rho_target
        h_m = np.maximum((m_star / dx - rho_m) / tau, rate_floor)
        ps_m = -model.cost_slope(h_m, x)
    phi_m = np.minimum(
        np.min(q[:n, n:] + psi[None, :], axis=1),
        np.min(q[:n, :n] - ps_m[None, :], axis=1),
    )

    # support: plan arcs plus everything tight for the assembled duals
    tight_tol = 1e-9 * (1.0 + float(np.max(np.abs(q[np.isfinite(q)]))))
    support = (gamma_joint > _MASS_FLOOR_FACTOR * mass_scale) & allowed
    support[:n, :n] |= (q[:n, :n] - phi_m[:, None] - ps_m[None, :]) <= tight_tol
    support[:n, n:] |= (q[:n, n:] + psi[None, :] - phi_m[:, None]) <= tight_tol
    support[n:, :n] |= (q[n:, :n] - psi[:, None] - ps_m[None, :]) <= tight_tol

    phi_r, ps_r, gamma_r, resid, _ = _reduced_solve(kern, cost, support)
    if resid <= 1e-10 * mass_scale:
        gamma, phi_out, ps_out = gamma_r, phi_r, ps_r
        h = model.rate_at_price(-ps_r, x)
        if kern.jko:
            with np.errstate(over="ignore", invalid="ignore"):
                rho = np.exp(np.clip(-ps_r - kern.v, -_EXP_CAP, _EXP_CAP))
        else:
            rho = kern.rho_target
    else:
        gamma, phi_out, ps_out, h, rho = gamma_joint, phi_m, ps_m, h_m, rho_m
    value = full_value(h, rho, float(np.sum(gamma[allowed] * cost.tilde[allowed])))

    # feasibility repair: exact double c-transform, lowering only entries
    # that violate a constraint and leaving tight arcs untouched
    beta_row = np.min(q[:n, n:] + psi[None, :], axis=1)
    beta_col = np.min(q[n:, :n] - psi[:, None], axis=0)
    ps_out = np.minimum(ps_out, beta_col)
    ps_out = np.minimum(ps_out, np.min(q[:n, :n] - phi_out[:, None], axis=0))
    phi_out = np.minimum(beta_row, np.min(q[:n, :n] - ps_out[None, :], axis=1))

    gap = (value - _dual_value(kern, phi_out, ps_out)) / (1.0 + abs(value))
    return gamma, h, rho, phi_out, ps_out, value, abs(gap)


# ---------------------------------------------------------------------------
# public solves
# ---------------------------------------------------------------------------


def _as_mass(mu, grid: Grid) -> np.ndarray:
    if isinstance(mu, Density):
        return np.asarray(mu.cell_mass, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (grid.n_cells,):
        raise ValueError(f"expected {grid.n_cells} cell masses, got shape {mu.shape}")
    if np.any(mu < 0.0):
        raise ValueError("cell masses must be nonnegative")
    return mu


def _solve(kern: _Kernel, options: SolverOptions | None) -> TransportSolution:
    """Polish from the seed price, then certify and package the optimum."""
    model = kern.model
    x = kern.x
    dx = kern.dx
    tau = kern.tau
    n = kern.grid.n_cells
    cost = build_cost_matrix(model, kern.grid, tau)

    if options is None or options.init_phi_star is None:
        # the price of the zero rate is always an admissible seed
        phi_star = -model.cost_slope(np.zeros(n), x)
    else:
        phi_star = np.asarray(options.init_phi_star, dtype=float)
        if phi_star.shape != (n,):
            raise ValueError(f"init_phi_star must hold {n} interior prices, "
                             f"got shape {phi_star.shape}")
    (gamma, h, rho, phi_i, ps_i, value, gap), rounds = _polish(kern, cost, phi_star)

    transport_cost = float(np.sum(gamma[~cost.forbidden] * cost.tilde[~cost.forbidden]))
    primal_value = transport_cost + tau * dx * float(np.sum(model.cost(h, x)))
    objective = value if kern.jko else primal_value

    phi_full = np.concatenate([phi_i, [model.psi_lo, model.psi_hi]])
    ps_full = np.concatenate([ps_i, [-model.psi_lo, -model.psi_hi]])
    report = extract_potentials(cost, model, kern.grid, gamma, h, phi_full, ps_full,
                                weights=(rho + tau * h) * dx)
    residuals = {
        "polish_gap": gap,
        "kkt_kappa": report.optimality_residual,
        "concavity_gap": report.concavity_gap,
        "support_slack": report.support_slack,
    }
    return TransportSolution(
        gamma=gamma,
        h=h,
        rho=np.asarray(rho, dtype=float),
        phi=phi_full,
        phi_star=ps_full,
        kappa=report.kappa,
        primal_value=primal_value,
        objective=objective,
        # the verified relative primal-dual gap is the convergence certificate
        converged=gap <= 1e-8,
        iterations=rounds,
        residuals=residuals,
    )


def solve_fixed_target(
    model: Model,
    grid: Grid,
    tau: float,
    mu,
    rho,
    options: SolverOptions | None = None,
) -> TransportSolution:
    """Step cost between a source and a prescribed target density.

    mu gives interior source cell masses (or a Density); rho the target cell
    densities. The creation field is eliminated through the column marginal:
    h_i = (column mass_i / dx - rho_i) / tau. On non-convergence the best
    candidate is returned with converged=False rather than raising.
    """
    mu_arr = _as_mass(mu, grid)
    rho_arr = np.asarray(rho, dtype=float)
    if rho_arr.shape != (grid.n_cells,) or np.any(rho_arr < 0.0):
        raise ValueError("rho must be a nonnegative density vector on the cells")
    return _solve(_Kernel(model, grid, tau, mu_arr, rho_arr), options)


def solve_jko_step(
    model: Model,
    grid: Grid,
    tau: float,
    mu,
    options: SolverOptions | None = None,
) -> TransportSolution:
    """One implicit free-energy step of the minimizing-movement scheme.

    The target density is eliminated through its marginal price: rho =
    exp(-phi* - drift) and h = rate at price -phi*, so the optimality
    identity cost_slope(h) = log rho + drift holds exactly by construction.
    objective reports free energy plus step cost.
    """
    mu_arr = _as_mass(mu, grid)
    return _solve(_Kernel(model, grid, tau, mu_arr, None), options)


def extract_potentials(
    cost: CostMatrix,
    model: Model,
    grid: Grid,
    gamma: np.ndarray,
    h: np.ndarray,
    phi: np.ndarray,
    phi_star: np.ndarray,
    *,
    weights: np.ndarray | None = None,
) -> PotentialReport:
    """Dual-structure report: offset, price residual, feasibility and slack.

    kappa is the mass-weighted median of phi* + cost_slope(h) over interior
    cells; the optimality residual is the worst deviation from it. The
    concavity gap is the positive part of phi + phi* - quadratic cost over
    admissible pairs (wall potentials pinned), and the support slack the
    worst complementary-slackness violation on the plan's support.
    """
    n = cost.n_cells
    x = grid.cell_centers
    prices = model.cost_slope(h, x)
    if weights is None:
        weights = gamma[:, :n].sum(axis=0)
    kappa = weighted_median(phi_star[:n] + prices, weights)
    optimality_residual = float(np.max(np.abs(phi_star[:n] + prices - kappa))) if n else 0.0

    total = phi[:, None] + phi_star[None, :] - cost.quad
    total[cost.forbidden] = -np.inf
    concavity_gap = float(np.max(np.maximum(total, 0.0)))

    floor = _MASS_FLOOR_FACTOR * max(float(np.sum(gamma)), 1e-300)
    support = (gamma > floor) & (~cost.forbidden)
    if np.any(support):
        support_slack = float(np.max(cost.quad[support] - (phi[:, None] + phi_star[None, :])[support]))
    else:
        support_slack = 0.0
    return PotentialReport(
        kappa=kappa,
        optimality_residual=optimality_residual,
        concavity_gap=concavity_gap,
        support_slack=max(support_slack, 0.0),
    )
