"""Reference optimizer sanity: tiny instances with hand-checkable answers."""
import tracemalloc

import numpy as np
import pytest

from resflow import oracle
from resflow import (
    brute_force_small,
    build_grid,
    build_model,
    certified_price_window,
    make_reaction,
    solve_fixed_target,
    solve_jko_step,
)


def test_rejects_large_instances(unit_model):
    grid = build_grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        brute_force_small(unit_model, grid, 0.1, np.ones(4) * grid.cell_width)


def test_stationary_single_cell(unit_model):
    grid = build_grid(0.0, 1.0, 1)
    mu = np.array([1.0 * grid.cell_width])
    ref = brute_force_small(unit_model, grid, 0.1, mu)
    assert ref.value == pytest.approx(0.0, abs=1e-12)
    assert ref.h[0] == pytest.approx(0.0, abs=1e-7)
    assert ref.rho[0] == pytest.approx(1.0, abs=1e-7)
    assert ref.window_ok
    assert ref.self_consistency_gap <= 1e-7


def test_fixed_target_self_cost(unit_model, drifty_model):
    grid = build_grid(0.0, 1.0, 2)
    rho = np.array([0.9, 1.4])
    # uncharged walls: staying put is free and optimal
    ref = brute_force_small(unit_model, grid, 0.2, rho * grid.cell_width, rho=rho)
    assert ref.value == pytest.approx(0.0, abs=1e-10)
    assert np.max(np.abs(ref.h)) <= 1e-6
    # charged walls may be worth trading with, so the cost can dip below
    # zero -- but never above, and the production solver must agree
    ref2 = brute_force_small(drifty_model, grid, 0.2, rho * grid.cell_width, rho=rho)
    assert ref2.value <= 1e-12
    sol = solve_fixed_target(drifty_model, grid, 0.2, rho * grid.cell_width, rho)
    assert sol.primal_value == pytest.approx(ref2.value, abs=1e-6)


def test_certified_window_brackets_zero_rate_price(drifty_model):
    grid = build_grid(0.0, 1.0, 3)
    lo, hi = certified_price_window(drifty_model, grid, 0.1)
    assert lo < hi
    zero_price = float(np.max(drifty_model.cost_slope(np.zeros(3), grid.cell_centers)))
    assert lo < zero_price < hi


@pytest.mark.parametrize("n", [1, 2, 3])
def test_production_solver_matches_reference(n, signed_model):
    rng = np.random.default_rng(100 + n)
    grid = build_grid(0.0, 1.0, n)
    mu = rng.uniform(0.4, 1.8, n) * grid.cell_width
    ref = brute_force_small(signed_model, grid, 0.12, mu)
    sol = solve_jko_step(signed_model, grid, 0.12, mu)
    assert sol.converged
    assert sol.objective == pytest.approx(ref.value, abs=1e-6)
    assert np.max(np.abs(sol.h - ref.h)) <= ref.h_resolution
    # The shrinking passes pin h far below the enumeration granularity.
    assert np.max(np.abs(sol.h - ref.h)) <= 1e-6


def test_fixed_target_agreement_with_production_solver():
    model = build_model(
        0.0, 1.0,
        make_reaction("log", w=0.8, q=0.5),
        drift=(0.1, -0.2),
        boundary_density=(1.1, 0.9),
        run_audit=False,
    )
    grid = build_grid(0.0, 1.0, 2)
    rho = np.array([1.3, 0.6])
    mu = np.array([0.8, 1.1]) * grid.cell_width
    ref = brute_force_small(model, grid, 0.1, mu, rho=rho)
    sol = solve_fixed_target(model, grid, 0.1, mu, rho)
    assert sol.converged
    assert sol.primal_value == pytest.approx(ref.value, abs=1e-6)


def test_reference_result_is_internally_consistent(unit_model):
    grid = build_grid(0.0, 1.0, 2)
    mu = np.array([1.2, 0.7]) * grid.cell_width
    ref = brute_force_small(unit_model, grid, 0.15, mu)
    assert ref.passes >= 1
    assert ref.h_resolution > 0.0
    assert ref.col_mass.shape == (2,)
    # reported columns are the produced masses
    assert np.allclose(ref.col_mass, (ref.rho + 0.15 * ref.h) * grid.cell_width,
                       atol=1e-9)
    assert ref.self_consistency_gap <= 1e-7


@pytest.mark.parametrize("fixed_target, mode", [(True, "fixed-target"), (False, "implicit-step")])
def test_failed_self_consistency_raises(unit_model, monkeypatch, fixed_target, mode):
    grid = build_grid(0.0, 1.0, 1)
    rho = np.array([1.1])
    mu = np.array([0.9]) * grid.cell_width
    monkeypatch.setattr(oracle, "_SELF_CONSISTENCY_TOL", -1.0)
    with pytest.raises(RuntimeError, match=f"{mode} oracle self-consistency gap"):
        brute_force_small(unit_model, grid, 0.1, mu, rho=rho if fixed_target else None)


def test_three_cell_search_memory_is_bounded(drifty_model):
    """The tensor search never materialises a mesh of points or a per-vertex
    score array: one 3-cell call per mode stays well under 64 MB traced."""
    grid = build_grid(0.0, 1.0, 3)
    mu = np.array([0.8, 1.3, 1.0]) * grid.cell_width
    rho = np.array([1.2, 0.7, 1.1])
    for target in (rho, None):
        tracemalloc.start()
        try:
            brute_force_small(drifty_model, grid, 0.15, mu, rho=target)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, f"rho={target}: traced peak {peak / 2**20:.1f} MB"
