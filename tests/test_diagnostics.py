"""Structural step measurements and support-based optimality probes."""
import numpy as np
import pytest

from resflow import (
    perturbation_inequalities,
    run_diagnostics,
    solve_jko_step,
    transported_mass_floor,
)


@pytest.fixture(scope="module")
def drifty_step(drifty_model, grid16):
    rho0 = 1.0 + 0.15 * np.sin(np.pi * grid16.cell_centers)
    mu = rho0 * grid16.cell_width
    sol = solve_jko_step(drifty_model, grid16, 0.06, mu)
    assert sol.converged
    return sol, run_diagnostics(sol, grid16), mu


def test_report_fields_are_sensible(drifty_step, grid16):
    _, report, _ = drifty_step
    assert 0.0 <= report.max_displacement <= grid16.length
    assert report.boundary_flux >= 0.0


def test_stationary_step_reports_no_motion(unit_model, grid8):
    mu = np.ones(grid8.n_cells) * grid8.cell_width
    sol = solve_jko_step(unit_model, grid8, 0.1, mu)
    report = run_diagnostics(sol, grid8)
    assert report.max_displacement == 0.0
    assert report.boundary_flux == 0.0


def test_perturbation_inequalities_hold(drifty_model, grid16, drifty_step):
    sol, _, _ = drifty_step
    worst = perturbation_inequalities(sol, drifty_model, grid16, 0.06, max_pairs=100)
    assert worst <= 1e-7
    # rerouting a k-cycle of admissible arcs saves at most
    # k * (support_slack + concavity_gap): no 2- or 3-cycle saves above 1e-9
    assert 3 * (sol.residuals["support_slack"] + sol.residuals["concavity_gap"]) <= 1e-9


def test_transported_mass_floor(drifty_step, grid16):
    sol, _, mu = drifty_step
    lam, worst, ok = transported_mass_floor(sol, grid16, 0.06, mu, sol.rho)
    assert ok
    assert lam > 0.0
    assert worst >= 0.25 * lam - 1e-12

