"""Finite-difference reference path: convergence, weak form, path distance."""
import math

import numpy as np
import pytest

from resflow import build_grid, build_model, compare_trajectories, make_reaction, solve_fd, weak_residual


def _mms_model():
    return build_model(
        0.0, 1.0,
        make_reaction("power", w=1.0, beta=0.0, q=1.0),
        drift=(0.0, 0.3),
        boundary_density=1.0,
        run_audit=False,
    )


def _mms_exact(t, x):
    return 1.0 + 0.5 * math.exp(-t) * np.sin(np.pi * x)


def _mms_forcing(t, x):
    return math.exp(-t) * (
        0.5 * np.pi**2 * np.sin(np.pi * x) - 0.15 * np.pi * np.cos(np.pi * x)
    )


def test_stationary_profile_is_preserved(unit_model, grid16):
    sol = solve_fd(unit_model, grid16, np.ones(16), t_final=0.5, dt=0.05)
    assert np.max(np.abs(sol.values - 1.0)) <= 1e-8
    assert sol.halvings_used == 0
    assert sol.times[-1] == pytest.approx(0.5)


def test_dt_must_divide_horizon(unit_model, grid8):
    with pytest.raises(ValueError):
        solve_fd(unit_model, grid8, np.ones(8), t_final=1.0, dt=0.3)
    with pytest.raises(ValueError):
        solve_fd(unit_model, grid8, np.ones(8), t_final=1.0, dt=-0.1)
    with pytest.raises(ValueError):
        solve_fd(unit_model, grid8, np.zeros(8), t_final=1.0, dt=0.1)


def test_manufactured_solution_second_order_in_space():
    model = _mms_model()
    errs = []
    for n in (8, 16):
        grid = build_grid(0.0, 1.0, n)
        x = grid.cell_centers
        sol = solve_fd(model, grid, _mms_exact(0.0, x), t_final=0.05, dt=1e-3,
                       forcing=_mms_forcing)
        errs.append(float(np.max(np.abs(sol.values[-1] - _mms_exact(0.05, x)))))
    assert errs[0] / errs[1] >= 3.0


def test_weak_residual_vanishes_on_the_scheme(drifty_model, grid16):
    """Stencil mode moves fluxes by exact summation by parts."""
    rho0 = 1.0 + 0.2 * np.sin(np.pi * grid16.cell_centers)
    sol = solve_fd(drifty_model, grid16, rho0, t_final=0.3, dt=0.05)
    zeta = np.maximum(0.0, 1.0 - 4.0 * np.abs(grid16.cell_centers - 0.5))
    zeta[0] = zeta[-1] = 0.0
    res = weak_residual(grid16, drifty_model, sol.times, sol.values, zeta, 0.0, 0.3)
    # nonzero only through the Newton stopping tolerance, far below the
    # O(dx^2) level that any quadrature mismatch would produce
    assert res <= 1e-9


def test_weak_residual_rejects_bad_test_functions(unit_model, grid8):
    times = np.array([0.0, 0.1])
    values = np.ones((2, 8))
    bad = np.ones(8)
    with pytest.raises(ValueError):
        weak_residual(grid8, unit_model, times, values, bad, 0.0, 0.1)


def test_compare_identical_paths_is_zero(grid16):
    times = np.array([0.0, 0.5, 1.0])
    vals = np.ones((3, 16))
    assert compare_trajectories(grid16, times, vals, grid16, times, vals) == 0.0


def test_compare_known_constant_offset():
    grid = build_grid(0.0, 1.0, 4)
    times = np.array([0.0, 1.0])
    a = np.ones((2, 4))
    b = np.full((2, 4), 1.5)
    # interior window keeps 2 cells of width 1/4; offset 0.5 over unit time
    got = compare_trajectories(grid, times, a, grid, times, b)
    assert got == pytest.approx(math.sqrt(0.5**2 * 2 * 0.25), rel=1e-12)


def test_compare_restricts_fine_grid_by_cell_averages():
    coarse = build_grid(0.0, 1.0, 8)
    fine = build_grid(0.0, 1.0, 32)
    times = np.array([0.0, 1.0])
    rho_f = 1.0 + 0.3 * np.sin(2 * np.pi * fine.cell_centers)
    vals_f = np.tile(rho_f, (2, 1))
    block = rho_f.reshape(8, 4).mean(axis=1)
    vals_c = np.tile(block, (2, 1))
    d = compare_trajectories(coarse, times, vals_c, fine, times, vals_f)
    assert d <= 1e-14


def test_compare_is_symmetric_and_keeps_tiny_grids_whole():
    """Either argument may be the finer path; a 2-cell grid drops no cell."""
    rng = np.random.default_rng(5)
    coarse = build_grid(0.0, 1.0, 8)
    fine = build_grid(0.0, 1.0, 32)
    times_c = np.array([0.0, 0.3, 0.55, 1.0])
    times_f = np.linspace(0.0, 1.0, 6)
    vals_c = 1.0 + 0.2 * rng.random((4, 8))
    vals_f = 1.0 + 0.2 * rng.random((6, 32))
    forward = compare_trajectories(coarse, times_c, vals_c, fine, times_f, vals_f)
    assert forward > 0.0
    assert compare_trajectories(fine, times_f, vals_f, coarse, times_c, vals_c) == forward

    pair = build_grid(0.0, 1.0, 2)
    times = np.array([0.0, 0.5, 1.0])
    a = np.ones((3, 2))
    # offset 0.25 on both cells of width 1/2 over unit time
    got = compare_trajectories(pair, times, a, pair, times, a + 0.25)
    assert got == pytest.approx(math.sqrt(0.25**2 * 2 * 0.5), rel=1e-12)


def test_compare_rejects_mismatched_inputs():
    g_a = build_grid(0.0, 1.0, 8)
    g_b = build_grid(0.0, 2.0, 8)
    times = np.array([0.0, 1.0])
    vals = np.ones((2, 8))
    with pytest.raises(ValueError):
        compare_trajectories(g_a, times, vals, g_b, times, vals)
    g_c = build_grid(0.0, 1.0, 12)
    with pytest.raises(ValueError):
        compare_trajectories(g_a, times, vals, g_c, times, np.ones((2, 12)))
    with pytest.raises(ValueError):
        compare_trajectories(
            g_a, np.array([0.0, 0.4]), vals, g_a, np.array([0.6, 1.0]), vals
        )


def test_compare_uses_left_continuous_lookup():
    """A change at t=0.5 in one path is only charged after 0.5."""
    grid = build_grid(0.0, 1.0, 4)
    times_a = np.array([0.0, 1.0])
    vals_a = np.ones((2, 4))
    times_b = np.array([0.0, 0.5, 1.0])
    vals_b = np.stack([np.ones(4), np.full(4, 2.0), np.full(4, 2.0)])
    d = compare_trajectories(grid, times_a, vals_a, grid, times_b, vals_b)
    # difference of 1 on two interior cells for the last half unit of time
    assert d == pytest.approx(math.sqrt(0.5 * 2 * 0.25), rel=1e-12)
