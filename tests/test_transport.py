"""Production solver: feasibility, optimality certificates, and conventions."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resflow import (
    Density,
    SolverOptions,
    build_cost_matrix,
    build_grid,
    build_model,
    make_reaction,
    solve_fixed_target,
    solve_jko_step,
)


def test_cost_matrix_structure(unit_model, grid8):
    cost = build_cost_matrix(unit_model, grid8, tau=0.1)
    n = grid8.n_cells
    assert cost.quad.shape == (n + 2, n + 2)
    assert np.allclose(cost.quad, cost.quad.T)
    assert np.all(np.diag(cost.quad) == 0.0)
    # wall-to-wall arcs are forbidden in both directions
    assert cost.forbidden[n:, n:].all()
    assert not cost.forbidden[:n].any()
    assert np.isinf(cost.tilde[n + 1, n])
    with pytest.raises(ValueError):
        build_cost_matrix(unit_model, grid8, tau=0.0)


def test_wall_arcs_price_the_reservoir(drifty_model, grid8):
    cost = build_cost_matrix(drifty_model, grid8, tau=0.2)
    n = grid8.n_cells
    quad = cost.quad[0, n + 1]
    assert cost.tilde[0, n + 1] == pytest.approx(quad + drifty_model.psi_hi)
    assert cost.tilde[n + 1, 0] == pytest.approx(quad - drifty_model.psi_hi)


def test_density_wrapper_roundtrip(grid8):
    values = np.linspace(0.5, 2.0, grid8.n_cells)
    d = Density.from_density(values, grid8)
    assert np.allclose(d.density, values)
    assert np.allclose(d.cell_mass, values * grid8.cell_width)
    with pytest.raises(ValueError):
        Density(cell_mass=np.array([-0.1, 1.0]), cell_width=0.5)


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


def test_warm_start_reproduces_cold_solution(unit_model, grid16):
    rho0 = 1.0 + 0.1 * np.sin(np.pi * grid16.cell_centers)
    mu = rho0 * grid16.cell_width
    cold = solve_jko_step(unit_model, grid16, 0.05, mu)
    warm_opts = SolverOptions(init_phi_star=cold.phi_star[: grid16.n_cells])
    warm = solve_jko_step(unit_model, grid16, 0.05, mu, warm_opts)
    assert warm.converged
    assert np.max(np.abs(warm.rho - cold.rho)) < 1e-9
    assert warm.objective == pytest.approx(cold.objective, abs=1e-11)
    with pytest.raises(ValueError, match="init_phi_star"):
        solve_jko_step(unit_model, grid16, 0.05, mu, SolverOptions(init_phi_star=np.zeros(3)))


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
    assert np.max(np.abs(sol.gamma[:n].sum(axis=1) - mu)) <= 1e-10 * max(1.0, mu.sum())
    assert np.all(sol.gamma >= 0.0)
    assert sol.gamma[n:, n:].sum() == 0.0


def test_solution_records_iterations_and_kappa(unit_model, grid8):
    mu = np.full(grid8.n_cells, 1.2) * grid8.cell_width
    sol = solve_jko_step(unit_model, grid8, 0.1, mu)
    assert sol.iterations >= 1
    # at the optimum the interior prices sit at a single offset
    interior = sol.phi_star[: grid8.n_cells] + unit_model.cost_slope(
        sol.h, grid8.cell_centers
    )
    assert np.max(np.abs(interior - sol.kappa)) < 1e-8
