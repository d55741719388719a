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
A joint LP over transport arcs and piecewise-linear column costs is
re-solved with breakpoint windows that shrink around its optimum; HiGHS
solves it by dual simplex, presolve off, through the binding scipy bundles
(Huangfu & Hall, Math. Prog. Comp. 2018). The breakpoints are prices,
whose column masses and costs are explicit; the first windows are centred
on a seed price (the zero-rate price on a cold step, the previous step's
prices on a warm one). Those windows are a guess, so the first round's LP
only locates the optimum: its plan becomes a candidate only when every
column's optimum sits on the seed price. A step keeps one HiGHS model of
the LP: the first round builds it on a shortlist of arcs, a band of about
one step's displacement around the diagonal plus every cell-wall arc, and
every later round changes only the fill costs, the fill widths and the
column right-hand sides in place and re-runs it from its last basis, as
network simplex re-uses a basis (Peyre & Cuturi, Computational Optimal
Transport, 2019, sec. 3.4-3.5). After each solve the LP duals price every
excluded arc, and arcs with negative reduced cost are appended to the same
model until none is left, so each LP optimum is the optimum over all admissible
arcs (Gottschlich & Schuhmacher, PLoS ONE 2014; Schmitzer, JMIV 2016), and
the shortlist only grows within a step. A plan is a list of arcs and their
masses, from the LP's answer to the packaged step; TransportSolution.gamma
builds the dense view only when read. Each wall is a reservoir that gives
or takes any mass, so both walls are one root node with no balance row and
dual 0. Its reservoir price enters only through the one arc price
CostMatrix.price, on the arcs to and from it, and every dual of the step is
a price against it. No step tabulates that price: arcs are priced as lists,
and every minimum over a row or a column, the pricing screen, the
feasibility repair and the concavity check, is one c-transform, the lower
envelope of the parabolas the prices shift, built in one stack pass. The
support of the LP plan, a spanning forest as every basic transportation
plan is (Peyre & Cuturi, Computational Optimal Transport, 2019, sec.
3.4-3.5), is snapped to machine precision on one tree rooted at the
walls: a union-find pass over plain lists tests it for a cycle, and one
breadth-first walk gives the duals top down and the arc masses bottom up,
in O(|S|) as in network simplex. The duals are then
made exactly feasible by a double c-transform, and the verified
primal-dual gap certifies the step. A candidate whose support cannot carry
or balance the marginals, or holds a cycle, or whose c-transform had to
lower a column price beyond rounding, is rejected like one whose gap is
too large; there is no fallback: a step returns its last assembled
candidate, whose gap decides `converged`, or raises StepFailure naming the
failed certificate. The one root search, a safeguarded Newton iteration,
serves the balance gauge of support components with no wall arc. The
creation field and (for implicit steps) the density are defined through
the dual prices, so the marginal-cost identities hold by construction,
with no offset.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, NamedTuple

import numpy as np
# HiGHS's own binding, the one scipy.optimize.linprog drives: the private
# module scipy.optimize._highspy._core (hence the scipy floor in pyproject.toml)
from scipy.optimize._highspy import _core as _highs

from .grid import Grid
from .model import Model

__all__ = [
    "CostMatrix",
    "TransportSolution",
    "build_cost_matrix",
    "solve_fixed_target",
    "solve_jko_step",
    "extract_potentials",
    "StepFailure",
]

_EXP_CAP = 700.0
_MASS_FLOOR_FACTOR = 1e-12


# Cells, in position order, on each side of an envelope argmin whose prices
# are re-read. At an optimum a node is tight against a run of nodes, and the
# envelope's pick within the run is often not the one whose float price is
# lowest. Over the 906 solves of tests/battery.py, a window of +/- 2 cells moved
# a field of at least six solves off the dense minimum's by rounding, +/- 4 of
# two, and +/- 8 of none.
_ENVELOPE_WINDOW = 8


def _envelope(p: np.ndarray, a: np.ndarray, tau: float, y: np.ndarray) -> np.ndarray:
    """Index of the lowest parabola (y - p_k)^2 / (2 tau) + a_k at each query y.

    The centres p increase. One stack pass builds the lower envelope in
    O(len(p)) (Felzenszwalb & Huttenlocher, Distance transforms of sampled
    functions, Theory of Computing 2012; Lucet, Numer. Algorithms 1997):
    each parabola pops those it hides from the top of the stack, and the
    stack keeps where each parabola takes over from the last. The queries
    are then located among those breakpoints by bisection.
    """
    g = (p * p + 2.0 * tau * a).tolist()
    p = (2.0 * p).tolist()
    hull, start = [0], [-math.inf]
    for k in range(1, len(p)):
        gk, pk = g[k], p[k]
        s = (gk - g[hull[-1]]) / (pk - p[hull[-1]])
        while s <= start[-1]:
            hull.pop()
            start.pop()
            s = (gk - g[hull[-1]]) / (pk - p[hull[-1]])
        hull.append(k)
        start.append(s)
    return np.array(hull)[np.searchsorted(start, y) - 1]


@dataclass(frozen=True)
class CostMatrix:
    """Arc prices on the nodes [interior cells..., lower wall, upper wall].

    The price of an arc from node r to node c is the squared-distance cost
    |x_r - x_c|^2/(2 tau) plus psi_c - psi_r, where psi is 0 on cells and
    the reservoir potential on each wall: mass leaving to a wall pays its
    price, mass entering from one is credited it. This is the one arc price
    of the step, and every dual that reads it puts both walls at 0. It is
    kept as its n + 2 node positions and potentials, never as a table: price
    reads a list of arcs, and c_transform takes a minimum over one side. No
    plan holds a wall-to-wall arc, so no transform reads one.
    """

    nodes: np.ndarray
    psi: np.ndarray
    tau: float
    n_cells: int

    def price(self, r, c) -> np.ndarray:
        """Price of the arcs (r, c), node indices of any broadcastable shapes."""
        return (self.nodes[r] - self.nodes[c]) ** 2 / (2.0 * self.tau) + (self.psi[c] - self.psi[r])

    def c_transform(self, prices: np.ndarray, to_rows: bool):
        """Cheapest arc price less the other side's price, at every node of one side.

        prices are the n interior prices of the columns (to_rows) or of the
        rows, both walls at 0. At each node k of the other side this is the
        minimum over the admissible sources s of price(k, s) - prices_s
        (price(s, k) - prices_s for columns); a wall sees cells only. The
        minimum over cells is the lower envelope of their parabolas, and each
        is re-read, with both walls when k is a cell, on the _ENVELOPE_WINDOW
        cells around the envelope's argmin. Returns the n + 2 values and the
        arcs (rows, columns) that were read, row k of each for node k.
        """
        n = self.n_cells
        lowest = _envelope(self.nodes[:n], -prices, self.tau, self.nodes)
        src = np.empty((n + 2, 2 * _ENVELOPE_WINDOW + 3), dtype=np.intp)
        window = np.arange(-_ENVELOPE_WINDOW, _ENVELOPE_WINDOW + 1)
        np.minimum(np.maximum(lowest[:, None] + window, 0), n - 1, out=src[:, :-2])
        # the walls are sources of every cell; a wall's own slots repeat its argmin
        src[:, -2:] = (n, n + 1)
        src[n:, -2:] = lowest[n:, None]
        node = np.arange(n + 2)[:, None]
        arcs = (node, src) if to_rows else (src, node)
        values = np.min(self.price(*arcs) - np.append(prices, (0.0, 0.0))[src], axis=1)
        return values, arcs


def build_cost_matrix(model: Model, grid: Grid, tau: float) -> CostMatrix:
    tau = float(tau)
    if not 0.0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau!r}")
    n = grid.n_cells
    return CostMatrix(nodes=np.concatenate([grid.cell_centers, [grid.x_lo, grid.x_hi]]),
                      psi=np.concatenate([np.zeros(n), [model.psi_lo, model.psi_hi]]),
                      tau=tau, n_cells=n)


@dataclass(frozen=True)
class TransportSolution:
    """Converged step: plan, creation field, target density and dual prices.

    arcs is the plan as (rows, columns, masses): the arcs of its support
    forest, at most 2n, in row-major order, with nodes ordered
    interior-then-walls as in CostMatrix. gamma is the dense (n+2) x (n+2)
    view of that plan, built anew on every read and never stored. phi and
    phi_star are the n interior row and column prices against the arc price
    CostMatrix.price, with both walls at price 0. h is the rate at price
    -phi_star, so phi_star + cost_slope(h) = 0 with no offset. iterations
    counts the breakpoint-refinement rounds of the polish; residuals holds
    named convergence measures. stats counts what the step did: lp_rounds (LP
    solves, pricing re-solves included), lp_arcs (the arc count of the last
    and largest of those LPs; the shortlist only grows), pricing_rounds
    (re-solves after dual pricing added arcs to the shortlist),
    rejected_candidates (candidates assembled and discarded
    because their gap was too large or their support could not carry or
    balance the marginals, or held a cycle, or whose feasibility repair moved
    a column price beyond rounding), prune_passes (reduced-solve passes that
    cut arcs from a candidate's support) and simplex_iterations (HiGHS's
    simplex iterations, summed over the step's LP runs).
    """

    arcs: tuple
    h: np.ndarray
    rho: np.ndarray
    phi: np.ndarray
    phi_star: np.ndarray
    primal_value: float
    objective: float
    converged: bool
    iterations: int
    residuals: dict[str, float] = field(compare=False)
    stats: dict[str, int] = field(default_factory=dict, compare=False)
    diagnostics: Any = field(default=None, compare=False)

    @property
    def gamma(self) -> np.ndarray:
        n = len(self.h)
        r, c, mass = self.arcs
        gamma = np.zeros((n + 2, n + 2))
        gamma[r, c] = mass
        return gamma

    @property
    def mass_floor(self) -> float:
        return _MASS_FLOOR_FACTOR * float(np.sum(self.arcs[2]))


class StepFailure(RuntimeError):
    """An exact step that cannot be certified.

    certificate names the failed check (joint_lp, reduced_residual,
    lp_rounds, polish_gap or price_root), value is what it measured, and
    context says where the step ran. For joint_lp the value is HiGHS's
    model status, such as 8 for infeasible or 10 for unbounded. A step
    raises reduced_residual or price_root only when the last candidate it
    assembled failed that way; reduced_residual reads inf when that
    candidate's support held a cycle, the walls counted as one node.
    """

    def __init__(self, certificate: str, value: float, context: str = "exact step"):
        self.certificate = certificate
        self.value = float(value)
        self.context = context
        super().__init__(f"{context}: certificate failed: {certificate} {self.value:.3e}")


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
        self.v = np.asarray(model.drift(x), dtype=float)
        self.total_mass = float(np.sum(mu))

    def rho_at(self, t: np.ndarray, cols=slice(None)) -> np.ndarray:
        """Density held by the listed columns when their potential equals t."""
        if not self.jko:
            return self.rho_target[cols]
        with np.errstate(over="ignore", invalid="ignore"):
            return np.exp(np.clip(-t - self.v[cols], -_EXP_CAP, _EXP_CAP))

    def col_mass(self, rho: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Column mass that holds density rho and feeds the creation rate h."""
        return (rho + self.tau * h) * self.dx

    def col_target(self, t: np.ndarray, cols=slice(None)) -> np.ndarray:
        """Required mass of the listed columns when their potential equals t."""
        return self.col_mass(self.rho_at(t, cols), self.model.rate_at_price(-t, self.x[cols]))

    def col_target_slope(self, t: np.ndarray, cols=slice(None)) -> np.ndarray:
        """Derivative of col_target in t: d rho/dt = -rho on implicit steps, 0 otherwise."""
        drho = -self.rho_at(t, cols) if self.jko else 0.0
        dh = -self.model.rate_at_price_derivative(-t, self.x[cols])
        return (drho + self.tau * dh) * self.dx


def _decreasing_root(f, df, m: np.ndarray, total_mass: float) -> np.ndarray:
    """Root t of f(t) = m, entry by entry, for f strictly decreasing in each entry.

    Brackets grow geometrically from 0 on both sides. Each pass then takes
    the Newton step t - (f(t) - m) / df(t) where it lands inside the
    bracket and at most halves the last step (the bracket's width at
    first), and the bracket's midpoint elsewhere, as rtsafe does: Newton
    points alternating around a kink of f never leave the bracket, yet
    never shrink it. An entry
    stops once its residual is negligible against total_mass or its
    bracket has closed to rounding. Raises StepFailure(price_root) with the
    worst residual left when 200 bracket doublings or 200 passes leave an
    entry unsettled.
    """
    def resid(t):
        with np.errstate(over="ignore", invalid="ignore"):
            return f(t) - m

    t = np.zeros(len(m))
    f0 = resid(t)
    lo = t.copy()
    hi = t.copy()
    # grow lo down until f(lo) > m, and hi up until f(hi) < m
    for end, sign in ((lo, -1.0), (hi, 1.0)):
        step = np.full_like(end, 0.5)
        fv = f0
        for _ in range(200):
            grow = ~(sign * fv < 0.0)
            if not np.any(grow):
                break
            end[grow] += sign * step[grow]
            step[grow] *= 2.0
            fv = resid(end)
        else:
            raise StepFailure("price_root", np.max(np.abs(fv[grow])), "price bracket")
    scale = max(total_mass, 1e-300)
    fv = f0
    last = hi - lo
    for _ in range(200):
        done = (np.abs(fv) <= 1e-14 * scale) | (hi - lo <= 1e-16 * (1.0 + np.abs(t)))
        if np.all(done):
            break
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            newton = t - fv / df(t)
        take = (newton > lo) & (newton < hi) & (np.abs(newton - t) <= 0.5 * last)
        nxt = np.where(done, t, np.where(take, newton, 0.5 * (lo + hi)))
        last = np.abs(nxt - t)
        t = nxt
        fv = resid(t)
        neg = fv < 0.0    # f(t) too small: t too high
        hi = np.where(neg, t, hi)
        lo = np.where(neg, lo, t)
    else:
        raise StepFailure("price_root", np.max(np.abs(fv[~done])), "price root")
    return t


def _arc_nodes(n: int, idx_r: np.ndarray, idx_c: np.ndarray):
    """The two nodes joined by each arc (idx_r[k], idx_c[k]) of the plan.

    Interior rows are nodes 0..n-1 and interior columns n..2n-1; both walls
    are the single root node 2n, which carries no balance: each wall is a
    reservoir that gives or takes any mass.
    """
    root = 2 * n
    return np.where(idx_r < n, idx_r, root), np.where(idx_c < n, n + idx_c, root)


class _Forest(NamedTuple):
    """A support rooted at the walls; see _support_forest."""

    node: np.ndarray     # non-root nodes, each after its parent
    parent: np.ndarray
    arc_r: np.ndarray    # the arc each node hangs from, -1 on a gauge edge
    arc_c: np.ndarray
    label: np.ndarray    # interior component of nodes 0..2n-1
    walled: np.ndarray   # component holds a wall arc


def _support_forest(n: int, idx_r: np.ndarray, idx_c: np.ndarray) -> _Forest | None:
    """The support arcs as one tree rooted at the walls, or None if they hold a cycle.

    The nodes are those of _arc_nodes, and union-find over the arcs that
    join two cells gives the interior components. Each one with no
    wall arc hangs from the root at its lowest-index node by a gauge edge,
    which carries no arc. Every component then reaches the root, so the
    graph is connected, and it is a tree (the support a forest, the walls
    counted as one node) exactly when it has 2n edges. The tree is walked
    breadth-first from the root, as network simplex walks a basis (Peyre &
    Cuturi, Computational Optimal Transport, 2019, sec. 3.5): each node
    visits the nodes its arcs lead to, then those whose arcs lead to it,
    each list by index. _arc_masses sums up the tree in the reverse of
    that order, so the order fixes its rounding.
    """
    root = 2 * n
    if len(idx_r) > root:
        return None    # more arcs than a tree on the 2n + 1 nodes holds
    a, b = (nodes.tolist() for nodes in _arc_nodes(n, idx_r, idx_c))
    # union-find of the interior components: the walls join none
    up = list(range(root))

    def find(v):
        while up[v] != v:
            up[v] = v = up[up[v]]
        return v

    for u, v in zip(a, b):
        if u < root and v < root:
            up[find(u)] = find(v)
    # components are numbered by their lowest node
    label, lowest, number = [], [], {}
    for v in range(root):
        rep = find(v)
        if rep not in number:
            number[rep] = len(lowest)
            lowest.append(v)
        label.append(number[rep])
    walled = [False] * len(lowest)
    for u, v in zip(a, b):
        if u == root or v == root:
            walled[label[min(u, v)]] = True
    gauge = [v for v, wall in zip(lowest, walled) if not wall]
    if len(a) + len(gauge) != root:
        return None
    # the edges out of and into each node, as (node, arc); a gauge edge has arc -1
    out = [[] for _ in range(root + 1)]
    into = [[] for _ in range(root + 1)]
    for k, (u, v) in enumerate(zip(a, b)):
        out[u].append((v, k))
        into[v].append((u, k))
    for v in gauge:
        out[root].append((v, -1))
        into[v].append((root, -1))
    order, parent, hang = [root], [], []
    seen = [False] * (root + 1)
    seen[root] = True
    for p in order:
        for v, k in sorted(out[p]) + sorted(into[p]):
            if not seen[v]:
                seen[v] = True
                order.append(v)
                parent.append(p)
                hang.append(k)
    hang = np.array(hang, dtype=int)
    return _Forest(np.array(order[1:]), np.array(parent), np.r_[idx_r, -1][hang],
                   np.r_[idx_c, -1][hang], np.array(label), np.array(walled))


def _forest_potentials(kern: _Kernel, cost: CostMatrix, forest: _Forest):
    """Duals tight on every arc of the forest, walked down from the root.

    The root's potential is 0, and each node takes the arc's price c_ij
    minus its parent's through the arc it hangs from: phi_i + ps_j = c_ij,
    where c holds the reservoir price on wall arcs. A node on a gauge edge
    takes 0, so its component's duals are fixed up to one constant, which
    solves the component's scalar mass balance (total required column mass
    equals total source mass): a monotone equation solved for all such
    components by one safeguarded Newton search. This balance gauge is what
    holds at kink optima, where wall subgradient jumps would make any
    arc-based pinning oscillate. Returns the row and column potentials.
    """
    n = cost.n_cells
    w = np.where(forest.arc_r >= 0, cost.price(forest.arc_r, forest.arc_c), 0.0)
    pot = [0.0] * (2 * n + 1)
    for v, p, wv in zip(forest.node.tolist(), forest.parent.tolist(), w.tolist()):
        pot[v] = wv - pot[p]
    phi, ps = np.array(pot[:n]), np.array(pot[n:2 * n])

    label = forest.label
    cols = np.flatnonzero(~forest.walled[label[n:]])
    if len(cols):
        free, slot = np.unique(label[n + cols], return_inverse=True)
        row_mass = np.bincount(label[:n], weights=kern.mu, minlength=len(forest.walled))[free]
        shift = np.zeros(len(forest.walled))
        shift[free] = -_decreasing_root(
            lambda s: np.bincount(slot, weights=kern.col_target(ps[cols] + s[slot], cols)),
            lambda s: np.bincount(slot, weights=kern.col_target_slope(ps[cols] + s[slot], cols)),
            row_mass, kern.total_mass)
        phi += shift[label[:n]]
        ps -= shift[label[n:]]
    return phi, ps


def _arc_masses(kern: _Kernel, forest: _Forest, col_mass: np.ndarray):
    """Arc masses that meet both marginals on the forest, walked up to the root.

    In reverse breadth-first order every node is a leaf of what is left:
    the arc it hangs from takes the node's remaining need (source mass mu
    on a row, col_mass on a column), which is then charged to its parent,
    in O(|S|) as in network simplex. What reaches the root is taken or
    given by the walls; what reaches a gauge edge is lost, and shows in the
    marginal defect, summed back from the masses. Masses may come out
    negative. Returns the forest's arcs, their masses, the component of the
    node each hangs, and the norm of the marginal defect.
    """
    n = len(kern.mu)
    need = np.concatenate([kern.mu, col_mass, [0.0]]).tolist()
    for v, p in zip(forest.node[::-1].tolist(), forest.parent[::-1].tolist()):
        need[p] -= need[v]
    # row-major; gauge edges, whose arc is (-1, -1), sort first and are dropped
    order = np.lexsort((forest.arc_c, forest.arc_r))[np.count_nonzero(forest.arc_r < 0):]
    r, c, child = forest.arc_r[order], forest.arc_c[order], forest.node[order]
    mass = np.array(need)[child]
    rows, cols = r < n, c < n
    defect = np.concatenate([np.bincount(r[rows], mass[rows], minlength=n) - kern.mu,
                             np.bincount(c[cols], mass[cols], minlength=n) - col_mass])
    return r, c, mass, forest.label[child], float(np.linalg.norm(defect))


def _reduced_solve(kern: _Kernel, cost: CostMatrix, idx_r, idx_c, stats: dict):
    """Machine-precision solve on the support arcs (idx_r, idx_c), pruning as needed.

    Each pass roots the support at the walls (_support_forest), reads the
    potentials down the tree and the column masses they price, and then
    the arc masses up the tree. A negative mass means its arc blocks the
    balance; one deficit can turn a whole chain negative, so a pass cuts
    only the most negative arc of each support component. Without one, a
    residual above tolerance cuts the arcs at or below the mass floor.
    Every pass that cuts counts in stats["prune_passes"]; the set strictly
    shrinks, so the loop terminates. A support with a cycle, whose masses
    the marginals do not fix, returns an infinite residual and no plan
    before any potential is computed; cutting arcs makes no cycle, so only
    the first pass can meet one. The plan it returns is (rows, columns, masses).
    """
    n = cost.n_cells
    mass_scale = max(kern.total_mass, 1e-300)
    for _ in range(2 * n + 4):
        forest = _support_forest(n, idx_r, idx_c)
        if forest is None:
            return None, None, None, math.inf
        phi, ps = _forest_potentials(kern, cost, forest)
        col_mass = np.maximum(kern.col_target(ps), 0.0)
        r, c, mass, comp, resid = _arc_masses(kern, forest, col_mass)
        neg = np.flatnonzero(mass < 0.0)
        if len(neg):
            # components share no arc, potential or gauge: cutting the most
            # negative arc of each at once is cutting them one at a time
            order = neg[np.argsort(mass[neg])]
            cut = order[np.unique(comp[order], return_index=True)[1]]
        elif resid <= 1e-11 * mass_scale:
            break
        else:
            cut = np.flatnonzero(mass <= _MASS_FLOOR_FACTOR * mass_scale)
            if not len(cut):
                break
        idx_r, idx_c = np.delete(r, cut), np.delete(c, cut)
        stats["prune_passes"] += 1
    return phi, ps, (r, c, mass), resid


def _xi_table(kern: _Kernel, prices: np.ndarray):
    """Column mass and exact column cost at each breakpoint price.

    A column priced at t holds the density rho(t) and feeds the rate h(t) =
    rate at price -t, so its mass is (rho(t) + tau h(t)) dx and its cost
    tau dx cost(h(t)), plus dx E(rho(t)) on an implicit step: explicit in
    the price, so no breakpoint needs a root. The mass falls as the price
    rises, and costs interpolated at any masses form a convex
    piecewise-linear cost.
    """
    n, b = prices.shape
    cols = np.repeat(np.arange(n), b)
    t = prices.reshape(-1)
    x_t = kern.x[cols]
    rho = kern.rho_at(t, cols)
    h = kern.model.rate_at_price(-t, x_t)
    xi = kern.tau * kern.dx * kern.model.cost(h, x_t)
    if kern.jko:
        xi = xi + kern.dx * kern.model.free_energy.density(rho, x_t)
    return kern.col_mass(rho, h).reshape(n, b), xi.reshape(n, b)


def _band_cells(tau: float, dx: float) -> int:
    """Half-width, in cells, of the interior arcs a step's first LP carries.

    tau/dx is about the largest displacement of a step in cells; the margin
    of two cells covers the rest, so pricing rarely has to add an arc.
    """
    return 2 + math.ceil(tau / dx)


def _tight_tol(kern: _Kernel) -> float:
    """Reduced-cost tolerance below which an excluded arc counts as violated.

    It scales with the largest squared-distance cost, that of wall to wall.
    """
    return 1e-9 * (1.0 + kern.grid.length ** 2 / (2.0 * kern.tau))


class _JointLP:
    """The joint LP of one step: one HiGHS model, re-solved from its last basis.

    Variables are the shortlisted arcs plus, per column, the segment fills
    of the linearized cost; column balance ties arc inflow to the base mass
    plus the fills. There is one model per step. The first solve builds it
    on the interior shortlist (rows, cols) (_polish passes a band around the
    diagonal) plus every cell-wall arc, in row-major order, and no
    wall-to-wall arc. Every later solve changes only the fill costs and
    widths and the column rows' base masses in place, and HiGHS runs again
    from the basis it left. After each run the duals price every excluded
    arc: an arc whose reduced cost c_ij - u_i - v_j lies below -tol is
    appended as a column and the same model runs again. Once no arc is
    left, the shortlist optimum is the optimum over all admissible arcs. The
    shortlist only grows. A segment whose breakpoint masses tie has width 0,
    so its fill is bounded by 0, costs nothing and adds nothing to the
    position.
    """

    def __init__(self, kern: _Kernel, cost: CostMatrix, rows: np.ndarray, cols: np.ndarray):
        self.kern = kern
        self.cost = cost
        self.rows, self.cols = rows, cols
        self.highs = None
        self.fills = None

    def solve(self, breaks: np.ndarray, xi: np.ndarray):
        """Optimum over all admissible arcs for the breakpoints (breaks, xi).

        Returns the plan as arcs (rows, columns, masses) in row-major order,
        each column's optimum as a position in segments from its first
        breakpoint, the count of pricing re-solves and the simplex
        iterations of every run.
        """
        kern, cost = self.kern, self.cost
        n = cost.n_cells
        cells = np.arange(n)
        # a segment of masses tied by rounding holds no fill and costs nothing
        widths = np.maximum(np.diff(breaks, axis=1), 0.0)
        flat = widths == 0.0
        slopes = np.divide(np.diff(xi, axis=1), widths, out=np.zeros_like(widths), where=~flat)
        tol = _tight_tol(kern)
        if self.highs is None:
            rows = np.concatenate([self.rows, np.repeat(cells, 2), np.repeat([n, n + 1], n)])
            cols = np.concatenate([self.cols, np.tile([n, n + 1], n), np.tile(cells, 2)])
            order = np.lexsort((cols, rows))
            self.rows, self.cols = rows[order], cols[order]
            c_vec = np.concatenate([cost.price(self.rows, self.cols), slopes.reshape(-1)])
            self.highs = _highs_model(self.rows, self.cols, c_vec,
                                      np.concatenate([kern.mu, breaks[:, 0]]), widths)
            self.fills = np.arange(len(self.rows), len(self.rows) + widths.size, dtype=np.int32)
        else:
            self.highs.changeColsCost(widths.size, self.fills, slopes.reshape(-1))
            self.highs.changeColsBounds(widths.size, self.fills, np.zeros(widths.size),
                                        widths.reshape(-1))
            for j, base in enumerate(breaks[:, 0].tolist()):
                self.highs.changeRowBounds(n + j, base, base)
        pricing = iterations = 0
        while True:
            x, duals, its = _highs_run(self.highs, tol)
            iterations += its
            # walls carry no balance row, so their dual is zero; every cell-wall
            # arc is always in the model, and no wall-to-wall arc ever is, so
            # only cell-to-cell arcs are priced. A row whose cheapest reduced
            # cost, its c-transform less u, stays above -tol/2 holds no arc below
            # -tol (the margin is far above the rounding of either expression),
            # so only the other rows are priced arc by arc.
            u = duals[:n]
            v = duals[n:]
            flagged = np.flatnonzero(cost.c_transform(v, to_rows=True)[0][:n] - u < -0.5 * tol)
            if not len(flagged):
                break
            r, c = np.repeat(flagged, n), np.tile(cells, len(flagged))
            # sorting the keys, where a lookup table would span all (n+2)^2 of them
            entering = ((cost.price(r, c) - u[r] - v[c] < -tol)
                        & ~np.isin(r * (n + 2) + c, self.rows * (n + 2) + self.cols, kind="sort"))
            if not np.any(entering):
                break
            r, c = r[entering], c[entering]
            start, index = _arc_entries(n, r, c)
            self.highs.addCols(len(r), cost.price(r, c), np.zeros(len(r)), np.full(len(r), np.inf),
                               len(index), start[:-1], index, np.ones(len(index)))
            self.rows = np.r_[self.rows, r]
            self.cols = np.r_[self.cols, c]
            pricing += 1
        fill = x[self.fills].reshape(widths.shape)
        pos = np.sum(np.divide(fill, widths, out=np.zeros_like(widths), where=~flat), axis=1)
        mass = np.delete(x, self.fills)
        order = np.lexsort((self.cols, self.rows))
        return (self.rows[order], self.cols[order], mass[order]), pos, pricing, iterations


_HIGHS_OPTIONS = {
    "output_flag": False,
    "presolve": "off",
    "simplex_strategy": 1,  # dual simplex
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


def _arc_entries(n: int, idx_r: np.ndarray, idx_c: np.ndarray):
    """Column-wise constraint entries of the arcs (idx_r[a], idx_c[a]): starts and rows.

    An arc holds 1 at its row node and then at its column node (_arc_nodes),
    the root (the walls) having no balance row.
    """
    nodes = np.stack(_arc_nodes(n, idx_r, idx_c), axis=1)
    on_row = nodes < 2 * n
    start = np.zeros(len(idx_r) + 1, dtype=np.int32)
    np.cumsum(on_row.sum(axis=1), out=start[1:])
    return start, nodes[on_row].astype(np.int32)


def _highs_model(idx_r: np.ndarray, idx_c: np.ndarray, c_vec: np.ndarray, b_eq: np.ndarray,
                 widths: np.ndarray):
    """One joint LP as a HiGHS model, set for dual simplex with presolve off.

    Columns are the arcs (idx_r[a], idx_c[a]), then the (n, k) segment
    fills of widths, k per interior column, costed by c_vec. The 2n rows
    balance the nodes of _arc_nodes to b_eq: each arc holds its
    _arc_entries, and a fill holds -1 at its column's node. Arcs are
    bounded below by 0, fills also above by their widths. The settings are
    linprog(method="highs")'s, presolve off: the 2n balance rows leave it
    nothing to remove.
    """
    n, k = widths.shape
    n_arcs = len(idx_r)
    n_fill = widths.size
    n_col = n_arcs + n_fill
    arc_start, arc_index = _arc_entries(n, idx_r, idx_c)
    start = np.r_[arc_start, arc_start[-1] + np.arange(1, n_fill + 1)].astype(np.int32)
    index = np.r_[arc_index, n + np.repeat(np.arange(n), k)].astype(np.int32)
    value = np.r_[np.ones(len(arc_index)), -np.ones(n_fill)]
    upper = np.r_[np.full(n_arcs, np.inf), widths.reshape(-1)]
    highs = _highs._Highs()
    for key, val in _HIGHS_OPTIONS.items():
        highs.setOptionValue(key, val)
    highs.passModel(n_col, 2 * n, len(index), _highs.MatrixFormat.kColwise,
                    _highs.ObjSense.kMinimize, 0.0, c_vec, np.zeros(n_col), upper, b_eq,
                    b_eq, start, index, value,
                    np.zeros(n_col, dtype=np.int32))  # every column continuous
    return highs


def _highs_run(highs, tol: float):
    """Solve a model from its current basis (none on its first run).

    Returns the optimal columns, the balance duals and the simplex
    iterations spent. An answer HiGHS does not call optimal is used when
    _usable: the step's gap still decides. A run from an earlier basis
    whose answer is not usable runs once more from no basis, on the same
    model: HiGHS can stop a hot start with status Unknown and a dual
    infeasibility above tol on an LP it solves from scratch. Any other
    answer raises StepFailure(joint_lp) with HiGHS's model status.
    """
    hot = highs.getBasis().valid
    highs.run()
    iterations = highs.getInfo().simplex_iteration_count
    if hot and not _usable(highs, tol):
        highs.clearSolver()
        highs.run()
        iterations += highs.getInfo().simplex_iteration_count
    if not _usable(highs, tol):
        status = highs.getModelStatus()
        raise StepFailure("joint_lp", int(status),
                          f"joint refinement LP: {highs.modelStatusToString(status)}")
    sol = highs.getSolution()
    return np.array(sol.col_value), np.array(sol.row_dual), iterations


def _usable(highs, tol: float) -> bool:
    """HiGHS's last answer is optimal, or feasible with no dual infeasibility above tol.

    tol is the pricing tolerance.
    """
    info = highs.getInfo()
    return highs.getModelStatus() == _highs.HighsModelStatus.kOptimal or (
        info.primal_solution_status == _highs.kSolutionStatusFeasible
        and info.max_dual_infeasibility <= tol)


def _polish(kern: _Kernel, cost: CostMatrix, phi_star: np.ndarray):
    """Exact step optimum by convex mass refinement from a seed price.

    The column masses are the only coupling between the plan and the
    reaction/energy terms, and their eliminated cost is convex, so a
    piecewise-linear joint LP converges globally to the step optimum from
    any seed as its breakpoints close in. The breakpoints are prices: each
    column's window starts at the seed price +/- 1 and is then centred on
    the LP optimum, read off its segment fills and mapped linearly onto the
    active segment's price bracket; it shrinks fourfold, or grows threefold
    when the optimum sits in an end segment. Every LP whose optimum settles
    inside its windows hands its plan to _assemble_candidate, except in
    round 0: the seed's windows are a guess no LP has centred, so that
    round's plan only locates the optimum, unless every column's optimum
    sits on the seed's middle breakpoint (a seed that is the optimum still
    certifies on its first LP). A candidate
    whose support cannot carry or balance the marginals is rejected like
    one whose gap is too large, or whose feasibility repair moved a column
    price beyond rounding (so its h and phi_star would disagree), and the
    rounds go on. Every round solves the one _JointLP of the step: its
    model is built in the first round, on a band of _band_cells around the
    diagonal plus the wall arcs, and every later round and pricing re-solve
    updates it in place and re-runs it from its last basis. Dual pricing
    extends the shortlist whenever an excluded arc would improve it
    (Schmitzer, JMIV 2016), so the shortlist only grows within a step.
    Returns the last candidate assembled, the refinement rounds run and the
    step's counters (see TransportSolution). Raises the StepFailure of the
    last candidate if it failed, and StepFailure(lp_rounds) if no round
    settled inside its windows, so no candidate was assembled.
    """
    n = cost.n_cells
    # the first shortlist, row by row: the interior arcs near the diagonal (the
    # model adds every cell-wall arc)
    half = min(_band_cells(kern.tau, kern.dx), n)
    cells = np.arange(n)
    lo = np.maximum(cells - half, 0)
    width = np.minimum(cells + half + 1, n) - lo
    rows = np.repeat(cells, width)
    lp = _JointLP(kern, cost, rows,
                  np.arange(len(rows)) - np.repeat(np.cumsum(width) - width - lo, width))
    stats = {"lp_rounds": 0, "lp_arcs": 0, "pricing_rounds": 0, "rejected_candidates": 0,
             "prune_passes": 0, "simplex_iterations": 0}

    k = 12
    target_width = 1e-11  # price windows this narrow have settled
    lo = phi_star - 1.0
    hi = phi_star + 1.0
    cand = failure = None
    for rnd in range(40):
        # prices fall along a row, so the breakpoint masses rise
        prices = hi[:, None] - (hi - lo)[:, None] * np.linspace(0.0, 1.0, k + 1)[None, :]
        breaks, xi = _xi_table(kern, prices)
        arcs, pos, pricing, iterations = lp.solve(breaks, xi)
        stats["lp_rounds"] += 1 + pricing
        stats["pricing_rounds"] += pricing
        stats["simplex_iterations"] += iterations
        stats["lp_arcs"] = len(arcs[0])    # the shortlist only grows
        seg = (hi - lo) / k
        grow = (pos <= 0.5) | (pos >= k - 0.5)
        # the first windows are the seed's guess: their plan only locates the
        # optimum, unless every column's optimum sits on the seed price
        if not np.any(grow) and (rnd > 0 or np.all(np.abs(pos - 0.5 * k) <= 1e-9 * k)):
            # a new candidate supersedes, and so rejects, the last one
            if cand is not None or failure is not None:
                stats["rejected_candidates"] += 1
            try:
                cand, failure = _assemble_candidate(kern, cost, arcs, stats), None
            except StepFailure as exc:
                if exc.certificate not in ("reduced_residual", "price_root"):
                    raise
                cand, failure = None, exc
            if (cand is not None and cand.gap <= 1e-10 * (1.0 + abs(cand.objective))
                    and cand.repair <= 1e-12 * (1.0 + np.max(np.abs(cand.phi_star), initial=0.0))):
                break
            if np.all(hi - lo <= target_width):
                break
        centre = hi - seg * pos
        width = np.where(grow, 3.0 * (hi - lo), np.maximum(3.0 * seg, target_width))
        lo = centre - 0.5 * width
        hi = centre + 0.5 * width
    if failure is not None:
        raise failure
    if cand is None:
        raise StepFailure("lp_rounds", rnd + 1,
                          "breakpoint refinement assembled no candidate")
    return cand, rnd + 1, stats


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


class _Candidate(NamedTuple):
    """An exact solution candidate; see _assemble_candidate."""

    arcs: tuple    # the plan as (rows, columns, masses), row-major
    h: np.ndarray
    rho: np.ndarray
    phi: np.ndarray
    phi_star: np.ndarray
    primal_value: float
    objective: float
    gap: float
    repair: float    # the largest fall of a column price in the feasibility repair


def _assemble_candidate(kern: _Kernel, cost: CostMatrix, arcs: tuple, stats: dict):
    """Exact solution candidate on the LP plan's support, with its duality gap.

    The LP arcs above the mass floor form the support. A basic
    optimal plan of a transportation LP is a spanning forest, so this
    support is a forest whenever the walls count as one node. The reduced
    system snaps it to machine precision and defines the plan, prices,
    density and creation field of the candidate; its prune passes count in
    stats. A support that cannot carry the marginals, or holds a cycle,
    raises StepFailure(reduced_residual); one whose balance gauge has no
    root raises StepFailure(price_root). Potentials are made exactly
    feasible by a double c-transform (CostMatrix.c_transform), the walls at
    price 0, and the verified primal-dual gap certifies the candidate: at a
    true optimum it vanishes to rounding. h and rho are priced before the repair, so the
    candidate records the largest fall of a column price in it: where that
    is above rounding, the packaged phi_star and h disagree.
    """
    model = kern.model
    x = kern.x
    dx = kern.dx
    tau = kern.tau
    n = cost.n_cells
    mass_scale = max(kern.total_mass, 1e-300)

    r, c, mass = arcs
    keep = mass > _MASS_FLOOR_FACTOR * mass_scale
    phi_out, ps_out, plan, resid = _reduced_solve(kern, cost, r[keep], c[keep], stats)
    if resid > 1e-10 * mass_scale:
        raise StepFailure("reduced_residual", resid,
                          "reduced solve on the plan support misses the marginals")
    r, c, mass = plan
    h = model.rate_at_price(-ps_out, x)
    rho = kern.rho_at(ps_out)
    primal = float(mass @ cost.price(r, c)) + tau * dx * float(np.sum(model.cost(h, x)))
    value = primal
    if kern.jko:
        value += dx * float(np.sum(model.free_energy.density(rho, x)))

    # feasibility repair: exact double c-transform with the walls at price 0,
    # lowering only entries that violate a constraint and leaving tight arcs
    # untouched
    repaired = np.minimum(ps_out, cost.c_transform(phi_out, to_rows=False)[0][:n])
    repair = float(np.max(ps_out - repaired, initial=0.0))
    ps_out = repaired
    phi_out = cost.c_transform(ps_out, to_rows=True)[0][:n]

    gap = (value - _dual_value(kern, phi_out, ps_out)) / (1.0 + abs(value))
    return _Candidate(plan, h, rho, phi_out, ps_out, primal, value, abs(gap), repair)


# ---------------------------------------------------------------------------
# public solves
# ---------------------------------------------------------------------------


def _as_mass(mu, grid: Grid) -> np.ndarray:
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (grid.n_cells,):
        raise ValueError(f"expected {grid.n_cells} cell masses, got shape {mu.shape}")
    if not np.all(np.isfinite(mu)):
        raise ValueError("cell masses mu must be finite")
    if np.any(mu < 0.0):
        raise ValueError("cell masses must be nonnegative")
    return mu


def _solve(kern: _Kernel, init_phi_star) -> TransportSolution:
    """Polish from the seed price, then certify and package the optimum."""
    model = kern.model
    n = kern.grid.n_cells
    cost = build_cost_matrix(model, kern.grid, kern.tau)

    if init_phi_star is None:
        # the price of the zero rate is always an admissible seed
        phi_star = -model.cost_slope(np.zeros(n), kern.x)
    else:
        phi_star = np.asarray(init_phi_star, dtype=float)
        if phi_star.shape != (n,):
            raise ValueError(f"init_phi_star must hold {n} interior prices, "
                             f"got shape {phi_star.shape}")
        if not np.all(np.isfinite(phi_star)):
            raise ValueError("init_phi_star must be finite")
    cand, rounds, stats = _polish(kern, cost, phi_star)
    residuals = {"polish_gap": cand.gap,
                 **extract_potentials(cost, model, kern.grid, cand.arcs, cand.h, cand.phi,
                                      cand.phi_star)}
    return TransportSolution(
        arcs=cand.arcs,
        h=cand.h,
        rho=np.asarray(cand.rho, dtype=float),
        phi=cand.phi,
        phi_star=cand.phi_star,
        primal_value=cand.primal_value,
        objective=cand.objective,
        # the verified relative primal-dual gap is the convergence certificate
        converged=cand.gap <= 1e-8,
        iterations=rounds,
        residuals=residuals,
        stats=stats,
    )


def solve_fixed_target(
    model: Model,
    grid: Grid,
    tau: float,
    mu,
    rho,
    *,
    init_phi_star=None,
) -> TransportSolution:
    """Step cost between a source and a prescribed target density.

    mu gives interior source cell masses; rho the target cell densities.
    The creation field is eliminated through the column marginal:
    h_i = (column mass_i / dx - rho_i) / tau. When the polish gap of the
    last candidate stays above its bound, that candidate is returned with
    converged=False; a step that yields no candidate raises StepFailure.
    init_phi_star, interior prices of a nearby solved step, warm starts it.
    """
    mu_arr = _as_mass(mu, grid)
    rho_arr = np.asarray(rho, dtype=float)
    if (rho_arr.shape != (grid.n_cells,) or not np.all(np.isfinite(rho_arr))
            or np.any(rho_arr < 0.0)):
        raise ValueError("rho must be a finite, nonnegative density vector on the cells")
    return _solve(_Kernel(model, grid, tau, mu_arr, rho_arr), init_phi_star)


def solve_jko_step(
    model: Model,
    grid: Grid,
    tau: float,
    mu,
    *,
    init_phi_star=None,
) -> TransportSolution:
    """One implicit free-energy step of the minimizing-movement scheme.

    The target density is eliminated through its marginal price: rho =
    exp(-phi* - drift) and h = rate at price -phi*, so the optimality
    identity cost_slope(h) = log rho + drift holds exactly by construction.
    objective reports free energy plus step cost. init_phi_star warm starts
    the step as in solve_fixed_target.
    """
    mu_arr = _as_mass(mu, grid)
    return _solve(_Kernel(model, grid, tau, mu_arr, None), init_phi_star)


def extract_potentials(
    cost: CostMatrix,
    model: Model,
    grid: Grid,
    arcs: tuple,
    h: np.ndarray,
    phi: np.ndarray,
    phi_star: np.ndarray,
) -> dict[str, float]:
    """Dual-structure residuals: price identity, feasibility and slack.

    phi and phi_star are the interior prices against CostMatrix.price, both
    walls at price 0. kkt_kappa is the worst |phi* + cost_slope(h)| over
    interior cells: h is the rate at price -phi*, so the price identity
    holds with no offset and this measures its rounding. concavity_gap is
    the positive part of phi + phi* - price over admissible pairs, read on
    each row's c-transform window, and support_slack the worst
    complementary-slackness violation on the plan's arcs (rows, columns,
    masses) above the mass floor; the plan holds no wall-to-wall arc.
    """
    kkt_kappa = float(np.max(np.abs(phi_star + model.cost_slope(h, grid.cell_centers))))
    row_price = np.append(phi, (0.0, 0.0))
    col_price = np.append(phi_star, (0.0, 0.0))

    _, (r, c) = cost.c_transform(phi_star, to_rows=True)
    concavity_gap = float(np.max(np.maximum(row_price[r] + col_price[c] - cost.price(r, c), 0.0)))

    r, c, mass = arcs
    keep = mass > _MASS_FLOOR_FACTOR * max(float(np.sum(mass)), 1e-300)
    r, c = r[keep], c[keep]
    slack = float(np.max(-(row_price[r] + col_price[c] - cost.price(r, c)))) if len(r) else 0.0
    return {"kkt_kappa": kkt_kappa, "concavity_gap": concavity_gap,
            "support_slack": max(slack, 0.0)}
