"""Production solver: feasibility, optimality certificates, and conventions."""
import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.optimize import linprog

from resflow import cli, diagnostics, flow, transport
from resflow.flow import run_minimizing_movement

from resflow import (
    StepFailure,
    brute_force_small,
    build_cost_matrix,
    build_grid,
    build_model,
    make_reaction,
    solve_fixed_target,
    solve_jko_step,
)


def _all_arcs(n):
    """Every (row, column) pair on the n + 2 nodes, as two (n+2) x (n+2) index arrays."""
    return np.meshgrid(np.arange(n + 2), np.arange(n + 2), indexing="ij")


def test_cost_matrix_structure(unit_model, grid8):
    cost = build_cost_matrix(unit_model, grid8, tau=0.1)
    n = grid8.n_cells
    assert cost.n_cells == n
    prices = cost.price(*_all_arcs(n))
    assert prices.shape == (n + 2, n + 2)
    cells = prices[:n, :n]
    assert np.array_equal(cells, cells.T)
    assert np.all(np.diag(cells) == 0.0)
    assert np.all(np.isfinite(prices))
    with pytest.raises(ValueError):
        build_cost_matrix(unit_model, grid8, tau=0.0)


def test_cost_matrix_keeps_only_its_nodes(drifty_model):
    """A CostMatrix holds the n + 2 node positions and potentials, never a table."""
    for n in (1, 8, 64):
        cost = build_cost_matrix(drifty_model, build_grid(0.0, 1.0, n), 0.1)
        arrays = list(_stored_arrays(cost))
        assert arrays and max(a.size for a in arrays) <= n + 2


def _dense_c_transform(cost, prices, to_rows):
    """Reference: the minimum over every admissible source, walls at price 0."""
    n = cost.n_cells
    table = cost.price(*_all_arcs(n))
    if not to_rows:
        table = table.T    # table[k, s] is the price of the arc from s to k
    table = table - np.append(prices, (0.0, 0.0))[None, :]
    table[n:, n:] = np.inf    # no wall-to-wall arc
    return np.min(table, axis=1)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
@pytest.mark.parametrize("seed", range(6))
def test_c_transform_matches_a_dense_scan(n, seed):
    """The envelope's transform equals the dense minimum bit for bit, walls included.

    Some draws plant exact ties: equal prices on every cell, prices copied to
    a neighbour, or prices that make each node tight against a run of cells
    (the shape of an optimum's duals).
    """
    rng = np.random.default_rng(seed)
    model = build_model(0.0, 1.0, make_reaction("power", w=1.0, beta=0.0, q=1.0),
                        drift=(0.0, rng.uniform(-1.0, 1.0)),
                        boundary_density=tuple(rng.uniform(0.4, 1.5, 2)))
    tau = float(np.exp(rng.uniform(np.log(0.005), 0.0)))
    cost = build_cost_matrix(model, build_grid(0.0, 1.0, n), tau)
    x = cost.nodes[:n]
    scale = 1.0 / (2.0 * tau)
    if seed % 3 == 0:
        prices = np.full(n, rng.uniform(-1.0, 1.0) * scale)
    elif seed % 3 == 1:
        prices = rng.uniform(-1.0, 1.0, n) * scale
        prices[1::2] = prices[0:n - 1:2]    # each even cell's price copied to its right
    else:
        # phi(y) = min over a coarse set of centres of (x - y)^2 / (2 tau) - a: each
        # column is tight against every row of its centre's run
        centres = np.sort(rng.uniform(0.0, 1.0, max(1, n // 6)))
        offsets = rng.uniform(-0.1, 0.1, len(centres)) * scale
        prices = np.min((x[:, None] - centres[None, :]) ** 2 * scale - offsets[None, :], axis=1)
    for to_rows in (True, False):
        values, (r, c) = cost.c_transform(prices, to_rows=to_rows)
        assert np.array_equal(values, _dense_c_transform(cost, prices, to_rows))
        query, source = (r, c) if to_rows else (c, r)
        assert np.all(np.broadcast_to(query, source.shape) == np.arange(n + 2)[:, None])
        assert np.all(source[n:] < n)    # a wall reads cells only
        assert np.all((source[:n] == n).any(axis=1) & (source[:n] == n + 1).any(axis=1))


def test_wall_arcs_price_the_reservoir(drifty_model, grid8):
    """Mass leaving to a wall pays its reservoir price, mass entering is credited it."""
    tau = 0.2
    cost = build_cost_matrix(drifty_model, grid8, tau=tau)
    n = grid8.n_cells
    psi_lo, psi_hi = drifty_model.psi_lo, drifty_model.psi_hi
    quad = (grid8.x_hi - grid8.cell_centers[0]) ** 2 / (2.0 * tau)
    assert cost.price(0, n + 1) == pytest.approx(quad + psi_hi)
    assert cost.price(n + 1, 0) == pytest.approx(quad - psi_hi)
    quad = (grid8.cell_centers[0] - grid8.x_lo) ** 2 / (2.0 * tau)
    assert cost.price(0, n) == pytest.approx(quad + psi_lo)
    assert cost.price(n, 0) == pytest.approx(quad - psi_lo)
    # wall to wall: the quadratic cost plus the difference of both prices
    wall = grid8.length ** 2 / (2.0 * tau)
    assert cost.price(n, n + 1) == pytest.approx(wall + psi_hi - psi_lo)
    assert cost.price(n + 1, n) == pytest.approx(wall + psi_lo - psi_hi)


def _nan_at(values, k=1):
    out = np.array(values, dtype=float)
    out[k] = np.nan
    return out


@pytest.mark.parametrize("call, name", [
    (lambda m, g, mu: solve_jko_step(m, g, 0.1, _nan_at(mu)), "mu"),
    (lambda m, g, mu: solve_fixed_target(m, g, 0.1, mu, _nan_at(np.ones(4))), "rho"),
    (lambda m, g, mu: solve_jko_step(m, g, 0.1, mu, init_phi_star=_nan_at(np.zeros(4))),
     "init_phi_star"),
    (lambda m, g, mu: build_cost_matrix(m, g, np.inf), "tau"),
    (lambda m, g, mu: build_cost_matrix(m, g, np.nan), "tau"),
    (lambda m, g, mu: run_minimizing_movement(m, g, _nan_at(np.ones(4)), 0.1, 0.2), "rho0"),
    (lambda m, g, mu: run_minimizing_movement(m, g, np.ones(4), np.nan, 0.2), "tau"),
    (lambda m, g, mu: run_minimizing_movement(m, g, np.ones(4), 0.1, np.inf), "t_final"),
    (lambda m, g, mu: brute_force_small(m, build_grid(0.0, 1.0, 2), 0.1, _nan_at(mu[:2])), "mu"),
    (lambda m, g, mu: brute_force_small(m, build_grid(0.0, 1.0, 2), 0.1, mu[:2] * 2.0,
                                        rho=_nan_at(np.ones(2))), "rho"),
    (lambda m, g, mu: brute_force_small(m, build_grid(0.0, 1.0, 2), np.nan, mu[:2] * 2.0),
     "tau"),
], ids=["jko-mu", "fixed-rho", "jko-init_phi_star", "cost-tau-inf", "cost-tau-nan",
        "movement-rho0", "movement-tau", "movement-t_final", "oracle-mu", "oracle-rho",
        "oracle-tau"])
def test_non_finite_inputs_are_input_errors(call, name):
    """A nan or inf input is refused as a ValueError naming it, before any solve runs."""
    model = build_model(0.0, 1.0, make_reaction("power", w=1.0, beta=0.0, q=1.0),
                        drift=(0.0, 0.3), boundary_density=(1.0, 0.8))
    grid = build_grid(0.0, 1.0, 4)
    with pytest.raises(ValueError, match=name):
        call(model, grid, np.full(4, grid.cell_width))


def test_stationary_step_is_exact_fixed_point(unit_model, grid16):
    mu = np.ones(grid16.n_cells) * grid16.cell_width
    sol = solve_jko_step(unit_model, grid16, 0.1, mu)
    assert sol.converged
    assert np.max(np.abs(sol.rho - 1.0)) == 0.0
    assert np.max(np.abs(sol.h)) == 0.0
    # plan never routes through the walls at the fixed point
    n = grid16.n_cells
    assert sol.gamma[n:].sum() == 0.0 and sol.gamma[:, n:].sum() == 0.0


def test_marginals_and_certificate(drifty_model, grid16):
    rng = np.random.default_rng(7)
    mu = rng.uniform(0.5, 1.5, grid16.n_cells) * grid16.cell_width
    sol = solve_jko_step(drifty_model, grid16, 0.08, mu)
    n = grid16.n_cells
    assert sol.converged
    # interior row marginals reproduce the source exactly
    assert np.max(np.abs(sol.gamma[:n].sum(axis=1) - mu)) < 1e-12
    # interior column marginals carry the new density plus the creation flux
    cols = sol.gamma[:, :n].sum(axis=0)
    assert np.max(np.abs(cols - (sol.rho + 0.08 * sol.h) * grid16.cell_width)) < 1e-12
    assert sol.gamma[n:, n:].sum() == 0.0
    # certified optimality: verified relative duality gap at the reported optimum
    assert sol.residuals["polish_gap"] <= 1e-10
    assert sol.residuals["kkt_kappa"] <= 1e-8
    assert sol.residuals["concavity_gap"] <= 1e-9


def test_fixed_target_self_transport_costs_little(unit_model, grid8):
    rho = 1.0 + 0.2 * np.sin(2 * np.pi * grid8.cell_centers)
    mu = rho * grid8.cell_width
    sol = solve_fixed_target(unit_model, grid8, 0.1, mu, rho)
    assert sol.converged
    # keeping the density in place needs no transport and no creation
    assert sol.primal_value == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(sol.h)) < 1e-9


def test_fixed_target_pays_for_mismatch(unit_model, grid8):
    mu = np.ones(grid8.n_cells) * grid8.cell_width
    target = np.full(grid8.n_cells, 1.3)
    sol = solve_fixed_target(unit_model, grid8, 0.1, mu, target)
    assert sol.converged
    assert sol.primal_value > 0.0
    # mass ledger: positive h removes mass, so the walls plus net creation
    # (-tau dx sum h) must cover the target's surplus over the source
    n = grid8.n_cells
    removed = 0.1 * grid8.cell_width * float(sol.h.sum())
    wall_in = float(sol.gamma[n:, :n].sum())
    wall_out = float(sol.gamma[:n, n:].sum())
    deficit = float(np.sum(target) * grid8.cell_width - np.sum(mu))
    assert wall_in - wall_out - removed == pytest.approx(deficit, abs=1e-10)


def test_fine_grid_step_certifies(unit_model):
    """128 cells, twice the old size cap: the step still certifies."""
    grid = build_grid(0.0, 1.0, 128)
    mu = (1.0 + 0.1 * np.sin(np.pi * grid.cell_centers)) * grid.cell_width
    sol = solve_jko_step(unit_model, grid, 0.05, mu)
    n = grid.n_cells
    assert sol.converged
    assert sol.residuals["polish_gap"] <= 1e-8
    assert np.max(np.abs(sol.gamma[:n].sum(axis=1) - mu)) <= 1e-10
    cols = sol.gamma[:, :n].sum(axis=0)
    assert np.max(np.abs(cols - (sol.rho + 0.05 * sol.h) * grid.cell_width)) <= 1e-10
    assert sol.gamma[n:, n:].sum() == 0.0


def test_reduced_solve_residual_raises_step_failure(unit_model, grid8, monkeypatch):
    """A support that cannot carry the marginals fails the step loudly."""
    real = transport._reduced_solve

    def leaky(*args, **kwargs):
        phi, ps, gamma, _ = real(*args, **kwargs)
        return phi, ps, gamma, 1e-3

    monkeypatch.setattr(transport, "_reduced_solve", leaky)
    mu = (1.0 + 0.1 * np.sin(np.pi * grid8.cell_centers)) * grid8.cell_width
    with pytest.raises(StepFailure, match="reduced_residual 1.000e-03") as err:
        solve_jko_step(unit_model, grid8, 0.1, mu)
    assert err.value.certificate == "reduced_residual"
    assert err.value.value == 1e-3


def test_unbracketed_price_root_raises_step_failure(unit_model, grid8, monkeypatch):
    """A column law that never reaches the required mass fails the step loudly."""
    real = transport._Kernel.col_target

    def saturated(self, t, cols=slice(None)):
        return np.minimum(real(self, t, cols), 0.5 * self.dx)

    monkeypatch.setattr(transport._Kernel, "col_target", saturated)
    mu = (1.0 + 0.1 * np.sin(np.pi * grid8.cell_centers)) * grid8.cell_width
    with pytest.raises(StepFailure, match="price_root") as err:
        solve_jko_step(unit_model, grid8, 0.1, mu)
    assert err.value.certificate == "price_root"
    assert err.value.value > 0.0


def test_unsettled_windows_raise_lp_rounds(unit_model, grid8, monkeypatch):
    """No round settles inside its windows: the step fails after its 40 rounds.

    The stub puts every column at its window's lower edge, so each window
    triples; it calls no LP solver, since the windows grow by 3^40.
    """
    n = grid8.n_cells
    calls = []

    def at_lower_edge(self, breaks, xi):
        calls.append(breaks.shape)
        none = np.zeros(0, dtype=np.int64)
        return (none, none, np.zeros(0)), np.zeros(n), 0, 0

    monkeypatch.setattr(transport._JointLP, "solve", at_lower_edge)
    mu = (1.0 + 0.1 * np.sin(np.pi * grid8.cell_centers)) * grid8.cell_width
    # the last windows span ~1e19 in price, where the rates overflow to inf
    with pytest.raises(StepFailure, match="lp_rounds") as err, np.errstate(over="ignore"):
        solve_jko_step(unit_model, grid8, 0.1, mu)
    assert err.value.certificate == "lp_rounds"
    assert err.value.value == 40
    assert len(calls) == 40


def test_warm_start_reproduces_cold_solution(unit_model, grid16):
    rho0 = 1.0 + 0.1 * np.sin(np.pi * grid16.cell_centers)
    mu = rho0 * grid16.cell_width
    cold = solve_jko_step(unit_model, grid16, 0.05, mu)
    warm = solve_jko_step(unit_model, grid16, 0.05, mu, init_phi_star=cold.phi_star)
    assert warm.converged
    assert np.max(np.abs(warm.rho - cold.rho)) < 1e-9
    assert warm.objective == pytest.approx(cold.objective, abs=1e-11)
    with pytest.raises(ValueError, match="init_phi_star"):
        solve_jko_step(unit_model, grid16, 0.05, mu, init_phi_star=np.zeros(3))


def test_objective_matches_fixed_target_at_optimum(drifty_model, grid8):
    """Fixing the produced density reproduces the step's transport cost."""
    mu = np.full(grid8.n_cells, 1.1) * grid8.cell_width
    step = solve_jko_step(drifty_model, grid8, 0.1, mu)
    pinned = solve_fixed_target(drifty_model, grid8, 0.1, mu, step.rho)
    assert pinned.converged
    assert pinned.primal_value == pytest.approx(step.primal_value, rel=1e-8, abs=1e-10)


def test_mass_balance_through_walls(signed_model, grid8):
    """Interior mass change is the net wall exchange minus what h removes."""
    rng = np.random.default_rng(3)
    mu = rng.uniform(0.8, 1.6, grid8.n_cells) * grid8.cell_width
    tau = 0.15
    sol = solve_jko_step(signed_model, grid8, tau, mu)
    n = grid8.n_cells
    inflow = sol.gamma[n:, :n].sum()
    outflow = sol.gamma[:n, n:].sum()
    removed = tau * grid8.cell_width * sol.h.sum()
    new_mass = grid8.cell_width * sol.rho.sum()
    assert new_mass == pytest.approx(mu.sum() + inflow - outflow - removed, abs=1e-10)


@settings(deadline=None, max_examples=12)
@given(
    n=st.integers(1, 4),
    tau=st.floats(0.05, 0.4),
    seed=st.integers(0, 2**31),
    jko=st.booleans(),
)
def test_random_instances_satisfy_certificates(n, tau, seed, jko):
    rng = np.random.default_rng(seed)
    grid = build_grid(0.0, 1.0, n)
    model = build_model(
        0.0, 1.0,
        make_reaction("power", w=float(rng.uniform(0.5, 2.0)), beta=0.0,
                      q=float(rng.uniform(0.2, 1.5))),
        drift=(0.0, float(rng.uniform(-0.3, 0.3))),
        boundary_density=float(rng.uniform(0.7, 1.3)),
        run_audit=False,
    )
    mu = rng.uniform(0.3, 2.0, n) * grid.cell_width
    if jko:
        sol = solve_jko_step(model, grid, tau, mu)
    else:
        sol = solve_fixed_target(model, grid, tau, mu, rng.uniform(0.3, 2.0, n))
    assert sol.converged
    assert sol.residuals["polish_gap"] <= 1e-8
    # the support potentials are tight on the plan and feasible everywhere
    assert sol.residuals["support_slack"] <= 1e-9
    assert sol.residuals["concavity_gap"] <= 1e-9
    assert np.max(np.abs(sol.gamma[:n].sum(axis=1) - mu)) <= 1e-10 * max(1.0, mu.sum())
    assert np.all(sol.gamma >= 0.0)
    assert sol.gamma[n:, n:].sum() == 0.0


def test_solution_records_iterations_and_price_identity(unit_model, grid8):
    mu = np.full(grid8.n_cells, 1.2) * grid8.cell_width
    sol = solve_jko_step(unit_model, grid8, 0.1, mu)
    assert sol.iterations >= 1
    # h is the rate at price -phi*, so the interior prices sit at offset 0
    interior = sol.phi_star + unit_model.cost_slope(
        sol.h, grid8.cell_centers
    )
    assert np.max(np.abs(interior)) < 1e-8
    assert sol.residuals["kkt_kappa"] == np.max(np.abs(interior))
    # the walls sit at price 0: phi and phi_star hold the interior prices only
    assert sol.phi.shape == sol.phi_star.shape == (grid8.n_cells,)


def _drifty_step_64():
    """Linear-rate model, drift slope 0.3, walls 1.0/0.8, sine source on 64 cells."""
    model = build_model(0.0, 1.0, make_reaction("power", w=1.0, beta=0.0, q=1.0),
                        drift=(0.0, 0.3), boundary_density=(1.0, 0.8))
    grid = build_grid(0.0, 1.0, 64)
    mu = (1.0 + 0.1 * np.sin(np.pi * grid.cell_centers)) * grid.cell_width
    return model, grid, mu


def test_pricing_recovers_arcs_the_shortlist_misses(monkeypatch):
    """A shortlist of the diagonal and the walls still reaches the global optimum."""
    model, grid, mu = _drifty_step_64()
    full = solve_jko_step(model, grid, 0.05, mu)
    monkeypatch.setattr(transport, "_band_cells", lambda tau, dx: 0)
    narrow = solve_jko_step(model, grid, 0.05, mu)
    assert narrow.stats["pricing_rounds"] > 0
    assert narrow.converged
    assert narrow.residuals["polish_gap"] <= 1e-8
    assert narrow.objective == pytest.approx(full.objective, abs=1e-12)
    assert np.max(np.abs(narrow.h - full.h)) <= 1e-12


def test_pricing_adds_the_arcs_a_dense_scan_finds(monkeypatch):
    """Each pricing pass adds exactly the arcs, in row-major order, a dense scan would.

    On the band-0 step the screen flags rows by their c-transform, and only
    those are priced arc by arc; the reference scans every interior arc
    outside the model with the same duals and tolerance.
    """
    events = []
    real_model, real_run, real_entries = (transport._highs_model, transport._highs_run,
                                          transport._arc_entries)

    def model(idx_r, idx_c, *args):
        events.append(("model", idx_r, idx_c))
        return real_model(idx_r, idx_c, *args)

    def run(highs, tol):
        answer = real_run(highs, tol)
        events.append(("run", answer[1], tol))
        return answer

    def entries(n, idx_r, idx_c):
        if events[-1][0] == "run":    # called by pricing, not by the model build
            events.append(("add", idx_r, idx_c))
        return real_entries(n, idx_r, idx_c)

    monkeypatch.setattr(transport, "_band_cells", lambda tau, dx: 0)
    monkeypatch.setattr(transport, "_highs_model", model)
    monkeypatch.setattr(transport, "_highs_run", run)
    monkeypatch.setattr(transport, "_arc_entries", entries)
    model_, grid, mu = _drifty_step_64()
    sol = solve_jko_step(model_, grid, 0.05, mu)
    assert sol.converged
    n = grid.n_cells
    cost = build_cost_matrix(model_, grid, 0.05)
    rows, cols = _all_arcs(n)
    interior = cost.price(rows, cols)[:n, :n]
    in_model = np.zeros((n + 2, n + 2), dtype=bool)
    added = 0
    for k, event in enumerate(events):
        if event[0] == "model":
            in_model[event[1], event[2]] = True
        elif event[0] == "run":
            duals, tol = event[1], event[2]
            u, v = duals[:n], duals[n:]
            dense = ~in_model[:n, :n] & (interior - u[:, None] - v[None, :] < -tol)
            nxt = events[k + 1] if k + 1 < len(events) else ("end",)
            if nxt[0] == "add":
                assert np.array_equal(np.stack(np.nonzero(dense)), np.stack(nxt[1:]))
                in_model[nxt[1], nxt[2]] = True
                added += 1
            else:
                assert not dense.any()
    assert added == sol.stats["pricing_rounds"] > 0


def test_joint_lp_stays_sparse(monkeypatch):
    """Every LP of a 64-cell step carries under a third of the dense arc columns.

    The dense LP had (n + 2)^2 - 4 = 4352 arc columns plus n * 12 = 768
    segment-fill columns on 64 cells, 5120 in all; the shortlist leaves the
    fills alone. The counter wraps _highs_run, which runs every LP of the
    step's one HiGHS model.
    """
    columns = []
    real = transport._highs_run

    def counted(highs, tol):
        columns.append(highs.getNumCol())
        return real(highs, tol)

    monkeypatch.setattr(transport, "_highs_run", counted)
    model, grid, mu = _drifty_step_64()
    sol = solve_jko_step(model, grid, 0.05, mu)
    assert sol.converged
    assert len(columns) == sol.stats["lp_rounds"] >= sol.iterations
    arcs = [total - 64 * 12 for total in columns]
    assert max(arcs) < 4352 / 3
    assert max(columns) < 2000
    assert sol.stats["lp_arcs"] == max(arcs)


def test_highs_lp_matches_linprog(monkeypatch):
    """The direct HiGHS call answers a step's first LP as linprog does, bit for bit."""
    built = []
    answers = []
    real_model = transport._highs_model
    real_run = transport._highs_run

    def recorded_model(*args):
        built.append(args)
        return real_model(*args)

    def recorded_run(highs, tol):
        answers.append(real_run(highs, tol))
        return answers[-1]

    monkeypatch.setattr(transport, "_highs_model", recorded_model)
    monkeypatch.setattr(transport, "_highs_run", recorded_run)
    model, grid, mu = _drifty_step_64()
    solve_jko_step(model, grid, 0.05, mu)
    idx_r, idx_c, c_vec, b_eq, widths = built[0]
    x, duals, _ = answers[0]
    # each arc meets the balance rows of its interior ends; each fill, negated,
    # that of its column
    n_arcs, (n, k) = len(idx_r), widths.shape
    rows = np.r_[idx_r, n + idx_c, n + np.repeat(np.arange(n), k)]
    cols = np.r_[np.arange(n_arcs), np.arange(n_arcs), n_arcs + np.arange(n * k)]
    vals = np.r_[np.ones(2 * n_arcs), -np.ones(n * k)]
    keep = np.r_[idx_r < n, idx_c < n, np.ones(n * k, dtype=bool)]
    a_eq = sparse.csr_matrix((vals[keep], (rows[keep], cols[keep])),
                             shape=(2 * n, n_arcs + n * k))
    bounds = np.zeros((n_arcs + n * k, 2))
    bounds[:n_arcs, 1] = np.inf
    bounds[n_arcs:, 1] = widths.reshape(-1)
    res = linprog(c_vec, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs",
                  options={"presolve": False, "primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.success
    assert np.array_equal(x, res.x)
    assert np.array_equal(duals, res.eqlin.marginals)


def test_highs_lp_failure_names_the_model_status():
    """An LP HiGHS cannot solve raises StepFailure(joint_lp) with its model status."""
    no_fills = np.zeros((2, 0))
    # two cells that keep their mass cannot double it: infeasible
    with pytest.raises(StepFailure) as infeasible:
        transport._highs_run(transport._highs_model(np.array([0, 1]), np.array([0, 1]),
                                                    np.zeros(2), np.array([1.0, 1.0, 2.0, 2.0]),
                                                    no_fills), 1e-9)
    assert infeasible.value.certificate == "joint_lp"
    assert infeasible.value.value == 8
    # a wall-to-wall arc meets no balance row: at a negative price it is unbounded
    with pytest.raises(StepFailure) as unbounded:
        transport._highs_run(transport._highs_model(np.array([0, 1, 2]), np.array([0, 1, 3]),
                                                    np.array([0.0, 0.0, -1.0]), np.ones(4),
                                                    no_fills), 1e-9)
    assert unbounded.value.value == 10


def test_warm_step_takes_a_feasible_answer_highs_leaves_unfinished():
    """HiGHS may stop short of its 1e-10 dual tolerance; within pricing's, the plan is used.

    In the third LP of this warm step HiGHS stops after 140 iterations with
    model status Unknown: its primal is feasible and its largest dual
    infeasibility is 1.4e-8, under the pricing tolerance 4.3e-8. The step
    must take that answer and certify on its gap, not fail the LP.
    """
    model = build_model(0.0, 1.0, make_reaction("signed-power", w=0.9664793528569832,
                                                alpha=0.49130662979410983,
                                                q=0.7178562002415245),
                        drift=(0.0, -0.9773362429638133),
                        boundary_density=(1.0516653162850738, 0.9834955897150579))
    grid = build_grid(0.0, 1.0, 37)
    tau = 0.011849599757014825
    mu = (1.0 + 0.4329102524029671 * np.sin(2 * np.pi * grid.cell_centers)) * grid.cell_width
    cold = solve_jko_step(model, grid, tau, mu)
    warm = solve_jko_step(model, grid, tau, cold.rho * grid.cell_width,
                          init_phi_star=cold.phi_star)
    assert cold.converged and warm.converged
    assert warm.residuals["polish_gap"] <= 1e-8


def test_hot_start_that_stops_short_runs_again_from_scratch(monkeypatch):
    """A hot-started LP whose answer is not usable is solved again from no basis.

    In the second step of this log-law trajectory, HiGHS stops the second
    LP, hot-started from the first one's basis, with status Unknown and a
    dual infeasibility of 1.5e-7, above the pricing tolerance 1.1e-8. From
    no basis the same model solves to optimal in a few iterations, and the
    step certifies.
    """
    verdicts = []
    real = transport._usable

    def recorded(highs, tol):
        verdicts.append(real(highs, tol))
        return verdicts[-1]

    monkeypatch.setattr(transport, "_usable", recorded)
    model = build_model(0.0, 1.0, make_reaction("log", w=1.2, q=0.3),
                        drift=(0.0, 0.3), boundary_density=(1.0, 0.8))
    grid = build_grid(0.0, 1.0, 32)
    rho0 = 1.0 + 0.1399286709579916 * np.sin(np.pi * grid.cell_centers)
    traj = run_minimizing_movement(model, grid, rho0, 0.05, 0.1, with_diagnostics=False)
    assert len(traj.solutions) == 3
    for sol in traj.solutions[1:]:
        assert sol.converged
        assert sol.residuals["polish_gap"] <= 1e-8
    assert False in verdicts


@pytest.mark.parametrize("law, n, tau, slope", [
    (("power", dict(w=1.0, beta=0.0, q=1.0)), 20, 0.005, 0.0),
    (("power", dict(w=1.0, beta=0.0, q=1.0)), 8, 0.0075, -0.6),
    (("signed-power", dict(w=1.0, alpha=0.5, q=0.8)), 12, 0.01, 0.0),
])
def test_small_step_fixed_target_certifies(law, n, tau, slope):
    """Small fixed-target steps whose widened supports once had no balance root."""
    kind, params = law
    model = build_model(0.0, 1.0, make_reaction(kind, **params), drift=(0.0, slope),
                        boundary_density=(0.4, 0.6), run_audit=False)
    grid = build_grid(0.0, 1.0, n)
    x = grid.cell_centers
    mu = (1.0 + 0.5 * np.sin(np.pi * x)) * grid.cell_width
    rho = 1.0 + 0.5 * np.cos(np.pi * x)
    sol = solve_fixed_target(model, grid, tau, mu, rho)
    assert sol.converged
    assert sol.residuals["polish_gap"] <= 1e-8
    assert np.max(np.abs(sol.gamma[:n].sum(axis=1) - mu)) <= 1e-10
    cols = sol.gamma[:, :n].sum(axis=0)
    assert np.max(np.abs(cols - (rho + tau * sol.h) * grid.cell_width)) <= 1e-10


def test_rejected_candidate_does_not_end_the_step(unit_model, grid8, monkeypatch):
    """A candidate whose support misses the marginals is rejected; later rounds go on."""
    real = transport._reduced_solve
    calls = []

    def leaky_once(*args, **kwargs):
        phi, ps, gamma, resid = real(*args, **kwargs)
        calls.append(resid)
        return phi, ps, gamma, 1e-3 if len(calls) == 1 else resid

    monkeypatch.setattr(transport, "_reduced_solve", leaky_once)
    mu = (1.0 + 0.1 * np.sin(np.pi * grid8.cell_centers)) * grid8.cell_width
    sol = solve_jko_step(unit_model, grid8, 0.1, mu)
    assert len(calls) >= 2
    assert sol.converged
    assert sol.residuals["polish_gap"] <= 1e-8
    assert sol.stats["rejected_candidates"] == 1


def test_step_at_its_optimum_takes_one_lp(unit_model, grid8, grid16):
    """Breakpoints at the optimal prices: the first LP's plan certifies the step."""
    rho = 1.0 + 0.2 * np.sin(2 * np.pi * grid8.cell_centers)
    self_step = solve_fixed_target(unit_model, grid8, 0.1, rho * grid8.cell_width, rho)
    mu = (1.0 + 0.1 * np.sin(np.pi * grid16.cell_centers)) * grid16.cell_width
    cold = solve_jko_step(unit_model, grid16, 0.05, mu)
    warm = solve_jko_step(unit_model, grid16, 0.05, mu,
                          init_phi_star=cold.phi_star)
    for sol in (self_step, warm):
        assert sol.converged
        assert sol.iterations == 1
        assert sol.stats["lp_rounds"] == 1


def test_first_round_plan_only_locates_the_optimum(monkeypatch):
    """The seed's windows are a guess: their LP's plan reaches no candidate.

    On the cold 64-cell step the first LP settles inside the seed's windows,
    but off the seed price, so its plan is not assembled; every candidate
    comes from a later LP, whose windows that LP has centred.
    """
    positions, assembled_after = [], []
    real_solve = transport._JointLP.solve
    real_assemble = transport._assemble_candidate

    def solved(self, breaks, xi):
        answer = real_solve(self, breaks, xi)
        positions.append(answer[1])
        return answer

    def assembled(*args):
        assembled_after.append(len(positions))
        return real_assemble(*args)

    monkeypatch.setattr(transport._JointLP, "solve", solved)
    monkeypatch.setattr(transport, "_assemble_candidate", assembled)
    model, grid, mu = _drifty_step_64()
    sol = solve_jko_step(model, grid, 0.05, mu)
    assert sol.converged
    # the first LP settled (no column in an end segment), off the seed's breakpoint
    pos = positions[0]
    assert np.all((pos > 0.5) & (pos < 11.5)) and np.max(np.abs(pos - 6.0)) > 0.1
    assert assembled_after and min(assembled_after) >= 2


def test_transport_builds_no_dense_matrix():
    """Arc masses come from leaf peeling: no NNLS fit and no densified incidence.

    The LP goes to HiGHS directly, with no linprog wrapper in between, and
    the support forest is walked on plain lists, with no sparse graph.
    """
    tree = ast.parse(Path(transport.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update({node.module} | {f"{node.module}.{a.name}" for a in node.names}
                            | {a.name for a in node.names})
    assert not imported & {"nnls", "linprog", "scipy.sparse", "csgraph"}, imported
    attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not attrs & {"nnls", "toarray", "todense"}, attrs


def _random_forest(rng, n, n_comp):
    """A random bipartite forest on rows and columns 0..n-1, one wall arc per tree."""
    support = np.zeros((n + 2, n + 2), dtype=bool)
    cuts = np.sort(rng.choice(np.arange(1, n), n_comp - 1, replace=False))
    for rows, cols in zip(np.split(rng.permutation(n), cuts), np.split(rng.permutation(n), cuts)):
        support[rows[0], cols[0]] = True
        in_rows, in_cols = [rows[0]], [cols[0]]
        # every further node joins a random node of the other side already in the tree
        rest = [(True, r) for r in rows[1:]] + [(False, c) for c in cols[1:]]
        for k in rng.permutation(len(rest)):
            is_row, node = rest[k]
            if is_row:
                support[node, rng.choice(in_cols)] = True
                in_rows.append(node)
            else:
                support[rng.choice(in_rows), node] = True
                in_cols.append(node)
        wall = n + rng.integers(2)
        if rng.integers(2):
            support[rng.choice(rows), wall] = True
        else:
            support[wall, rng.choice(cols)] = True
    return support


def _csgraph_forest(n, idx_r, idx_c):
    """_support_forest by scipy.sparse.csgraph: components, cycle test and BFS.

    Returns None on a cycle, else (node order, parents, hanging arcs, label,
    walled flag per node). The walls are the one root node 2n; a component
    with no wall arc hangs from it by a gauge edge at its lowest node.
    """
    from scipy.sparse import csgraph

    root = 2 * n
    a, b = transport._arc_nodes(n, idx_r, idx_c)
    # a cycle, the walls as one node: more arcs than nodes less components
    full = sparse.csr_matrix((np.ones(len(a)), (a, b)), shape=(root + 1, root + 1))
    if len(a) > root + 1 - csgraph.connected_components(full, directed=False)[0]:
        return None
    inner = (a < root) & (b < root)
    graph = sparse.csr_matrix((np.ones(np.count_nonzero(inner)), (a[inner], b[inner])),
                              shape=(root, root))
    n_comp, label = csgraph.connected_components(graph, directed=False)
    walled = np.zeros(n_comp, dtype=bool)
    walled[label[np.minimum(a, b)[~inner]]] = True
    gauge = np.unique(label, return_index=True)[1][~walled]
    ta, tb = np.r_[a, np.full(len(gauge), root)], np.r_[b, gauge]
    tree = sparse.csr_matrix((np.ones(len(ta)), (ta, tb)), shape=(root + 1, root + 1))
    order, pred = csgraph.breadth_first_order(tree, root, directed=False,
                                              return_predecessors=True)
    hang = {}
    for k, (u, v) in enumerate(zip(a, b)):
        hang[u if pred[u] == v else v] = (idx_r[k], idx_c[k])
    node = order[1:]
    arcs = np.array([hang.get(v, (-1, -1)) for v in node])
    return node, pred[node], arcs, label, walled[label]


def _same_partition(x, y):
    return len(set(zip(x.tolist(), y.tolist()))) == len(set(x.tolist())) == len(set(y.tolist()))


@pytest.mark.parametrize("seed", range(6))
def test_support_forest_walks_as_csgraph_does(seed):
    """The plain-list forest against scipy's csgraph, on forests and cycles.

    Random forests, some trees without a wall arc (they hang by a gauge
    edge), and the same with random extra arcs, most of which close a
    cycle: the same node order, parents, hanging arcs, components and
    walled flags, and None exactly on a cycle.
    """
    rng = np.random.default_rng(seed)
    cycles = forests = gauged = 0
    for trial in range(40):
        n = int(rng.integers(2, 30))
        support = _random_forest(rng, n, n_comp=int(rng.integers(1, min(n, 6) + 1)))
        # drop some wall arcs: their trees hang from the root by a gauge edge
        for r, c in np.argwhere(support):
            if (r >= n or c >= n) and rng.random() < 0.4:
                support[r, c] = False
        for _ in range(trial % 3):
            r, c = rng.integers(0, n + 2, 2)
            if r < n or c < n:
                support[r, c] = True
        idx_r, idx_c = np.nonzero(support)
        ref = _csgraph_forest(n, idx_r, idx_c)
        forest = transport._support_forest(n, idx_r, idx_c)
        if ref is None:
            cycles += 1
            assert forest is None
            continue
        forests += 1
        gauged += np.any(forest.arc_r < 0)
        node, parent, arcs, label, walled = ref
        assert np.array_equal(forest.node, node)
        assert np.array_equal(forest.parent, parent)
        assert np.array_equal(np.stack([forest.arc_r, forest.arc_c], axis=1), arcs)
        assert _same_partition(forest.label, label)
        assert np.array_equal(forest.walled[forest.label], walled)
    assert cycles and forests and gauged


@pytest.mark.parametrize("seed", range(4))
def test_peeled_masses_meet_both_marginals(unit_model, seed):
    rng = np.random.default_rng(seed)
    n = 24
    grid = build_grid(0.0, 1.0, n)
    mu = rng.uniform(0.5, 1.5, n) * grid.cell_width
    col_mass = rng.uniform(0.5, 1.5, n) * grid.cell_width
    kern = transport._Kernel(unit_model, grid, 0.1, mu, None)
    support = _random_forest(rng, n, n_comp=5)
    idx_r, idx_c = np.nonzero(support)
    forest = transport._support_forest(n, idx_r, idx_c)
    r, c, mass, comp, resid = transport._arc_masses(kern, forest, col_mass)
    # every support arc, in row-major order, hung in the component of its interior end
    assert np.array_equal(r, idx_r) and np.array_equal(c, idx_c)
    assert np.array_equal(comp, forest.label[np.where(r < n, r, n + c)])
    gamma = np.zeros((n + 2, n + 2))
    gamma[r, c] = mass
    scale = 1e-12 * (mu.sum() + col_mass.sum())
    assert np.all(gamma[~support] == 0.0)
    assert np.max(np.abs(gamma[:n].sum(axis=1) - mu)) <= scale
    assert np.max(np.abs(gamma[:, :n].sum(axis=0) - col_mass)) <= scale
    assert resid <= scale


def test_support_cycle_is_a_rejected_candidate(unit_model, grid8):
    """Rows 0, 1 and columns 0, 1 joined by all four arcs: the masses are not fixed."""
    n = grid8.n_cells
    mu = np.full(n, grid8.cell_width)
    kern = transport._Kernel(unit_model, grid8, 0.1, mu, None)
    cost = build_cost_matrix(unit_model, grid8, 0.1)
    plan = np.zeros((n + 2, n + 2))
    plan[np.arange(n), np.arange(n)] = grid8.cell_width
    plan[0, 1] = plan[1, 0] = 0.1 * grid8.cell_width
    r, c = np.nonzero(plan)
    assert transport._support_forest(n, r, c) is None
    stats = {"prune_passes": 0}
    with pytest.raises(StepFailure, match="reduced_residual") as err:
        transport._assemble_candidate(kern, cost, (r, c, plan[r, c]), stats)
    assert err.value.certificate == "reduced_residual"
    assert stats["prune_passes"] == 0


@pytest.mark.parametrize("wall_arcs", [
    [(3, "lo"), (3, "hi")],   # one row feeds both walls
    [(0, "lo"), ("hi", 0)],   # row 0 drains to one wall, column 0 fills from the other
])
def test_wall_cycle_is_a_rejected_candidate(unit_model, grid8, wall_arcs):
    """The walls are one node: two wall arcs of one component close a cycle."""
    n = grid8.n_cells
    wall = {"lo": n, "hi": n + 1}
    mu = np.full(n, grid8.cell_width)
    kern = transport._Kernel(unit_model, grid8, 0.1, mu, None)
    cost = build_cost_matrix(unit_model, grid8, 0.1)
    plan = np.zeros((n + 2, n + 2))
    plan[np.arange(n), np.arange(n)] = grid8.cell_width
    for r, c in wall_arcs:
        plan[wall.get(r, r), wall.get(c, c)] = 0.1 * grid8.cell_width
    r, c = np.nonzero(plan)
    assert transport._support_forest(n, r, c) is None
    stats = {"prune_passes": 0}
    with pytest.raises(StepFailure, match="reduced_residual") as err:
        transport._assemble_candidate(kern, cost, (r, c, plan[r, c]), stats)
    assert err.value.certificate == "reduced_residual"
    assert err.value.value == np.inf
    assert stats["prune_passes"] == 0


def test_prune_cuts_the_most_negative_arc(drifty_model, monkeypatch):
    """A staircase fed from the lower wall, whose columns all need more than their rows hold.

    Every arc from row i + 1 to column i carries the deficit of the chain
    above it, so peeling turns them all negative. One pass cuts only the
    most negative: cutting every negative arc would take the tight arcs of
    the optimum with it.
    """
    n = 6
    grid = build_grid(0.0, 1.0, n)
    mu = np.full(n, grid.cell_width)
    kern = transport._Kernel(drifty_model, grid, 0.1, mu, np.full(n, 1.5))
    cost = build_cost_matrix(drifty_model, grid, 0.1)
    support = np.zeros((n + 2, n + 2), dtype=bool)
    cells = np.arange(n)
    support[cells, cells] = True
    support[cells[1:], cells[:-1]] = True
    support[n, 0] = True
    supports, masses = [], []
    real_forest, real_masses = transport._support_forest, transport._arc_masses

    def dense(r, c, values):
        out = np.zeros((n + 2, n + 2), dtype=np.asarray(values).dtype)
        out[r, c] = values
        return out

    def forest_recorded(n, idx_r, idx_c):
        supports.append(dense(idx_r, idx_c, True))
        return real_forest(n, idx_r, idx_c)

    def masses_recorded(kern, forest, col_mass):
        r, c, mass, comp, resid = real_masses(kern, forest, col_mass)
        masses.append(dense(r, c, mass))
        return r, c, mass, comp, resid

    monkeypatch.setattr(transport, "_support_forest", forest_recorded)
    monkeypatch.setattr(transport, "_arc_masses", masses_recorded)
    stats = {"prune_passes": 0}
    _, _, (r, c, mass), resid = transport._reduced_solve(kern, cost, *np.nonzero(support), stats)
    gamma = dense(r, c, mass)
    passes = list(zip(supports, masses))
    assert len(supports) == len(masses)
    (first, masses), (second, _) = passes[:2]
    assert np.count_nonzero(masses < 0.0) >= 2
    worst = np.unravel_index(np.argmin(masses), masses.shape)
    cut = first & ~second
    assert np.count_nonzero(cut) == 1 and cut[worst]
    assert not np.any(second & ~first)
    assert stats["prune_passes"] == len(passes) - 1
    assert np.all(gamma >= 0.0)
    assert resid <= 1e-11 * mu.sum()


def test_gauge_root_takes_few_evaluations(monkeypatch):
    """Newton in the balance gauge: a handful of column-mass evaluations per root.

    Plain bisection to the 1e-14 mass tolerance took about 46 per call.
    """
    evaluations = []
    real = transport._decreasing_root

    def counted(f, df, m, total_mass):
        evaluations.append(0)

        def f_counted(t):
            evaluations[-1] += 1
            return f(t)

        return real(f_counted, df, m, total_mass)

    monkeypatch.setattr(transport, "_decreasing_root", counted)
    model, grid, mu = _drifty_step_64()
    sol = solve_jko_step(model, grid, 0.05, mu)
    assert sol.converged
    assert evaluations
    assert np.mean(evaluations) <= 12


def test_gauge_newton_does_not_circle_a_kink():
    """Newton points that alternate around the gauge root must not stall the bracket.

    On this trajectory the second step's balance gauge had Newton points on
    either side of its root (0.451718 / 0.451848), each inside a bracket
    1.3e-4 wide that never shrank, until the price root failed. A Newton
    point is taken only where it at most halves the last step; bisection
    does the rest.
    """
    model = build_model(0.0, 1.0, make_reaction("signed-power", w=1.3500069535363806,
                                                alpha=0.29484691091624715,
                                                q=0.5032053322171377),
                        drift=(0.0, -0.8066799555665751),
                        boundary_density=(1.0966439746233292, 0.9265801294016226))
    grid = build_grid(0.0, 1.0, 44)
    tau = 0.07602470491483837
    rho0 = 1.0 + 0.07775328194260389 * np.sin(2 * np.pi * grid.cell_centers)
    traj = run_minimizing_movement(model, grid, rho0, tau, 2 * tau, with_diagnostics=False)
    assert len(traj.solutions) == 3
    for sol in traj.solutions[1:]:
        assert sol.converged
        assert sol.residuals["polish_gap"] <= 1e-12


def test_later_rounds_hot_start_the_one_model(monkeypatch):
    """A step builds one HiGHS model; every later LP re-runs it from the last basis.

    On the 64-cell cold step the four LPs take 359, 133, 43 and 3 simplex
    iterations: each later one starts from the basis the last one left.
    """
    models = []
    iterations = []
    real_model = transport._highs_model
    real_run = transport._highs_run

    def built(*args):
        models.append(real_model(*args))
        return models[-1]

    def counted(highs, tol):
        answer = real_run(highs, tol)
        assert highs is models[-1]
        iterations.append(answer[2])
        return answer

    monkeypatch.setattr(transport, "_highs_model", built)
    monkeypatch.setattr(transport, "_highs_run", counted)
    model, grid, mu = _drifty_step_64()
    sol = solve_jko_step(model, grid, 0.05, mu)
    assert sol.converged
    assert sol.residuals["polish_gap"] <= 1e-8
    assert len(models) == 1
    assert len(iterations) == sol.stats["lp_rounds"] >= 2
    assert sum(iterations) == sol.stats["simplex_iterations"]
    assert all(its < iterations[0] for its in iterations[1:])


def test_zero_width_segments_hold_no_fill(unit_model, grid8):
    """Breakpoints whose masses tie add a segment of width 0: no fill, no position."""
    n = grid8.n_cells
    mu = (1.0 + 0.1 * np.sin(np.pi * grid8.cell_centers)) * grid8.cell_width
    kern = transport._Kernel(unit_model, grid8, 0.1, mu, None)
    cost = build_cost_matrix(unit_model, grid8, 0.1)
    seed = -unit_model.cost_slope(np.zeros(n), grid8.cell_centers)
    prices = seed[:, None] + 1.0 - np.linspace(0.0, 2.0, 11)[None, :]
    breaks, xi = transport._xi_table(kern, prices)
    every = np.divmod(np.arange(n * n), n)    # every interior arc, row-major
    _, pos, _, _ = transport._JointLP(kern, cost, *every).solve(breaks, xi)
    # two more breakpoints at the first mass, each cheaper than the last
    tied_breaks = np.concatenate([breaks[:, :1], breaks[:, :1], breaks], axis=1)
    tied_xi = np.concatenate([xi[:, :1] + 2.0, xi[:, :1] + 1.0, xi], axis=1)
    _, tied_pos, _, _ = transport._JointLP(kern, cost, *every).solve(tied_breaks, tied_xi)
    assert np.all(np.isfinite(tied_pos))
    assert np.allclose(tied_pos, pos, atol=1e-9)


def test_negative_wall_to_wall_price_stays_out_of_the_plan():
    """The wall-to-wall arc price is finite, here negative, yet never carries mass.

    Walls 0.4/1.5 with drift slope 0.3 and tau 1 price the upper-to-lower
    wall arc below 0. Both walls are the root, with no balance row, so a
    wall-to-wall arc in the LP would make it unbounded; dual pricing must
    never add one.
    """
    model = build_model(0.0, 1.0, make_reaction("power", w=1.0, beta=0.0, q=1.0),
                        drift=(0.0, 0.3), boundary_density=(0.4, 1.5))
    grid = build_grid(0.0, 1.0, 24)
    rho0 = 1.0 + 0.1 * np.sin(np.pi * grid.cell_centers)
    n = grid.n_cells
    tau = 1.0
    cost = build_cost_matrix(model, grid, tau)
    assert cost.price(n + 1, n) < -1.0

    mu = rho0 * grid.cell_width
    kern = transport._Kernel(model, grid, tau, mu, None)
    seed = -model.cost_slope(np.zeros(n), grid.cell_centers)
    prices = seed[:, None] + 1.0 - np.linspace(0.0, 2.0, 13)[None, :]
    breaks, xi = transport._xi_table(kern, prices)
    lp = transport._JointLP(kern, cost, np.arange(n), np.arange(n))
    (r, c, _), _, _, _ = lp.solve(breaks, xi)
    assert not np.any((r >= n) & (c >= n))
    # the model's columns: no wall-to-wall arc, every cell-wall arc
    mask = np.zeros((n + 2, n + 2), dtype=bool)
    mask[lp.rows, lp.cols] = True
    assert len(lp.rows) == np.count_nonzero(mask)
    assert not mask[n:, n:].any()
    assert mask[:n, n:].all() and mask[n:, :n].all()

    cold = solve_jko_step(model, grid, tau, mu)
    traj = run_minimizing_movement(model, grid, rho0, tau, 3 * tau, with_diagnostics=False)
    assert len(traj.solutions) == 4
    for sol in (cold, *traj.solutions[1:]):
        assert sol.converged
        assert np.all(sol.gamma[n:, n:] == 0.0)
        assert sol.residuals["concavity_gap"] <= 1e-9


def _readers(module, attrs):
    """Top-level functions and classes of a module that read any of attrs."""
    readers = set()
    for top in ast.parse(Path(module.__file__).read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr in attrs:
                readers.add(getattr(top, "name", None))
    return readers


def test_reservoir_price_is_read_once():
    """The reservoir price enters transport only through build_cost_matrix.

    Everything else, the diagnostics included, reads the arc price
    CostMatrix.price with both walls at price 0.
    """
    psi = {"psi_lo", "psi_hi"}
    assert _readers(transport, psi) == {"build_cost_matrix"}
    assert _readers(diagnostics, psi) == set()


def test_plan_is_scanned_once_per_lp():
    """Inside the step a plan is a list of arcs, and nothing scans a dense array.

    _polish hands _JointLP its shortlist as arcs, pricing lists the
    entering arcs of the rows the c-transform flags, and everything after
    the LP, the support forest, the prune passes and the packaged step,
    reads the arcs it returned. No admissible-arc mask is built.
    """
    assert not hasattr(transport, "_admissible")
    # a packaged step is read through its arcs; its dense view is for callers
    for module in (transport, diagnostics, flow, cli):
        assert not _readers(module, {"nonzero", "gamma"}), module.__name__


def _stored_arrays(value):
    """Every array a value holds, looking into tuples, dicts and dataclasses."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _stored_arrays(item)
    elif isinstance(value, dict):
        yield from _stored_arrays(list(value.values()))
    elif dataclasses.is_dataclass(value):
        yield from _stored_arrays([getattr(value, f.name) for f in dataclasses.fields(value)])


def test_a_step_stores_its_plan_as_arcs():
    """No array a step keeps holds more than 2n + 2 numbers: the plan is its arcs.

    The dense (n+2)^2 plan is built only when gamma is read, and matches the arcs.
    """
    model = build_model(0.0, 1.0, make_reaction("power", w=1.0, beta=0.0, q=1.0),
                        drift=(0.0, 0.3), boundary_density=(1.0, 0.8))
    grid = build_grid(0.0, 1.0, 64)
    n = grid.n_cells
    rho0 = 1.0 + 0.1 * np.sin(np.pi * grid.cell_centers)
    step = solve_jko_step(model, grid, 0.05, rho0 * grid.cell_width)
    traj = run_minimizing_movement(model, grid, rho0, 0.05, 0.15)
    assert len(traj.solutions) == 4
    for sol in (step, *traj.solutions[1:]):
        arrays = list(_stored_arrays(sol))
        assert arrays and max(a.size for a in arrays) <= 2 * n + 2
        r, c, mass = sol.arcs
        assert len(r) <= 2 * n
        assert np.all(np.lexsort((c, r)) == np.arange(len(r)))
        gamma = sol.gamma
        assert gamma.shape == (n + 2, n + 2) and gamma is not sol.gamma
        assert np.count_nonzero(gamma) <= len(r) and np.array_equal(gamma[r, c], mass)
    assert traj.solutions[1].diagnostics is not None
