"""Structural step measurements and support-based optimality probes."""
import math

import numpy as np
import pytest

from resflow import (
    created_mass_window,
    fit_energy_constant,
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
    fe = drifty_model.free_energy
    e0 = fe.total(rho0, grid16.cell_centers, grid16.cell_width)
    e1 = fe.total(sol.rho, grid16.cell_centers, grid16.cell_width)
    report = run_diagnostics(sol, drifty_model, grid16, 0.06, mu, sol.rho, e0, e1)
    return sol, report, mu


def test_report_fields_are_sensible(drifty_step, grid16):
    _, report, _ = drifty_step
    assert 0.0 <= report.max_displacement <= grid16.length
    assert report.boundary_flux >= 0.0
    assert report.quadratic_cost >= 0.0
    assert report.created_mass_l1 >= 0.0
    assert report.created_mass_linf >= 0.0
    assert report.optimality_residual <= 1e-6
    assert 0.0 < report.kappa_ratio_min <= report.kappa_ratio_max
    assert report.mass_floor > 0.0


def test_stationary_step_reports_no_motion(unit_model, grid8):
    mu = np.ones(grid8.n_cells) * grid8.cell_width
    sol = solve_jko_step(unit_model, grid8, 0.1, mu)
    report = run_diagnostics(sol, unit_model, grid8, 0.1, mu, sol.rho, 0.0, 0.0)
    assert report.max_displacement == 0.0
    assert report.boundary_flux == 0.0
    assert report.quadratic_cost == 0.0
    assert report.created_mass_linf == 0.0
    # the bracket degenerates to the bare tau term
    assert report.energy_inequality_rhs == pytest.approx(0.1)


def test_created_mass_window(drifty_model, grid16, drifty_step):
    sol, _, _ = drifty_step
    win = created_mass_window(drifty_model, grid16, 0.06, sol.h)
    assert win.ok
    assert win.margin >= 0.0
    assert np.all(win.low < win.high)
    absurd = created_mass_window(drifty_model, grid16, 0.06,
                                 np.full(grid16.n_cells, 1e9))
    assert not absurd.ok and absurd.margin < 0.0


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


def test_fit_energy_constant_rules():
    assert fit_energy_constant([0.5, 0.2], [1.0, 1.0]) == 1.0
    assert fit_energy_constant([3.0, 0.2], [1.0, 0.1]) == 3.0
    # negative brackets with real cost make the fit impossible
    assert math.isinf(fit_energy_constant([0.5], [-1.0]))
    # vacuous steps are skipped
    assert fit_energy_constant([0.0, 4.0], [-1.0, 2.0]) == 2.0
