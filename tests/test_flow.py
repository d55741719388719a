"""Trajectory driver: stepping, envelopes, ledger, refinement study."""
import dataclasses

import numpy as np
import pytest

from resflow import (
    flow,
    barrier_check,
    calibrate_barriers,
    dissipation_ledger,
    run_minimizing_movement,
    tau_refinement_study,
    telescoped_energy_bound,
    trajectory_interpolate,
    weak_window_budget,
)


@pytest.fixture(scope="module")
def decaying_traj(unit_model, grid16):
    rho0 = 1.0 + 0.1 * np.sin(np.pi * grid16.cell_centers)
    return run_minimizing_movement(unit_model, grid16, rho0, 0.1, 0.4)


def test_snapshot_count_rounds_up(unit_model, grid8):
    rho0 = np.ones(8)
    traj = run_minimizing_movement(unit_model, grid8, rho0, 0.1, 0.45,
                                   with_diagnostics=False)
    assert traj.n_steps == 5
    assert len(traj.times) == 6
    assert traj.times[-1] == pytest.approx(0.5)
    single = run_minimizing_movement(unit_model, grid8, rho0, 0.2, 0.2,
                                     with_diagnostics=False)
    assert single.n_steps == 1


def test_input_validation(unit_model, grid8):
    with pytest.raises(ValueError):
        run_minimizing_movement(unit_model, grid8, np.ones(7), 0.1, 1.0)
    with pytest.raises(ValueError):
        run_minimizing_movement(unit_model, grid8, np.zeros(8), 0.1, 1.0)
    with pytest.raises(ValueError):
        run_minimizing_movement(unit_model, grid8, np.ones(8), -0.1, 1.0)
    with pytest.raises(ValueError):
        run_minimizing_movement(unit_model, grid8, np.ones(8), 0.1, 0.0)


def test_stationary_trajectory_is_exact(unit_model, grid16):
    traj = run_minimizing_movement(unit_model, grid16, np.ones(16), 0.1, 0.5)
    assert np.max(np.abs(traj.densities - 1.0)) == 0.0
    assert np.max(np.abs(traj.step_costs)) == 0.0
    assert np.max(np.abs(np.diff(traj.energies))) == 0.0


def test_energies_decrease_along_decay(decaying_traj):
    assert np.all(np.diff(decaying_traj.energies) <= 1e-12)
    assert decaying_traj.energies[-1] < decaying_traj.energies[0]


def test_solutions_carry_diagnostics(decaying_traj):
    assert decaying_traj.solutions[0] is None
    for sol in decaying_traj.solutions[1:]:
        assert sol.converged
        assert sol.diagnostics is not None
        assert sol.diagnostics.optimality_residual <= 1e-6


def test_interpolation_conventions(decaying_traj):
    d0 = trajectory_interpolate(decaying_traj, 0.0)
    assert np.array_equal(d0.density, decaying_traj.densities[0])
    mid = trajectory_interpolate(decaying_traj, 0.15)
    assert np.array_equal(mid.density, decaying_traj.densities[1])
    end = trajectory_interpolate(decaying_traj, 0.4)
    assert np.array_equal(end.density, decaying_traj.densities[-1])
    # exact multiples belong to the later snapshot
    at_tau = trajectory_interpolate(decaying_traj, 0.1)
    assert np.array_equal(at_tau.density, decaying_traj.densities[1])
    with pytest.raises(ValueError):
        trajectory_interpolate(decaying_traj, 0.41)
    with pytest.raises(ValueError):
        trajectory_interpolate(decaying_traj, -0.01)


def test_barrier_calibration_tight_for_stationary(unit_model, grid16):
    bar = calibrate_barriers(unit_model, grid16, np.ones(16), 0.1)
    assert bar.window_ok
    assert bar.raw_lower == pytest.approx(1.0)
    assert bar.raw_upper == pytest.approx(1.0)
    assert np.allclose(bar.lower_envelope(0), 1.0)
    assert np.allclose(bar.upper_envelope(), 1.0)
    # purely destructive reaction: growth degenerates, envelope barely decays
    assert bar.growth_rate <= 1e-8
    assert np.min(bar.lower_envelope(10)) >= 1.0 - 1e-8


def test_barrier_envelopes_hold(decaying_traj):
    check = barrier_check(decaying_traj)
    assert check.ok
    assert check.continuum_ok
    assert check.margins.shape == (decaying_traj.n_steps + 1,)
    assert check.worst_margin >= -1e-12


def test_barrier_check_flags_violations(decaying_traj):
    broken = decaying_traj.densities.copy()
    broken[2] *= 0.01
    tampered = dataclasses.replace(decaying_traj, densities=broken)
    check = barrier_check(tampered)
    assert not check.ok
    assert check.worst_step == 2
    assert check.worst_margin < 0.0
    assert not check.continuum_ok


def test_barrier_widening_is_reported(drifty_model, grid16, caplog):
    """A profile far outside the window still runs, with widened envelopes."""
    rho0 = np.full(16, 6.0)
    bar = calibrate_barriers(drifty_model, grid16, rho0, 0.1)
    assert not bar.window_ok
    assert bar.upper_constant >= bar.raw_upper
    assert np.all(bar.upper_envelope() >= 6.0 - 1e-12)


def test_dissipation_ledger_have_nonnegative_slack(decaying_traj, unit_model):
    rows = dissipation_ledger(decaying_traj, unit_model)
    assert len(rows) == decaying_traj.n_steps
    for row in rows:
        assert row.self_cost == pytest.approx(0.0, abs=1e-10)
        assert row.slack >= -1e-9
        assert row.energy_after <= row.energy_before + 1e-12


def test_dissipation_ledger_rejects_unconverged_self_transport(
        decaying_traj, unit_model, monkeypatch):
    real = flow.solve_fixed_target

    def unconverged(*args, **kwargs):
        sol = real(*args, **kwargs)
        return dataclasses.replace(sol, converged=False,
                                   residuals={**sol.residuals, "polish_gap": 3.5e-4})

    monkeypatch.setattr(flow, "solve_fixed_target", unconverged)
    with pytest.raises(RuntimeError, match=r"ledger step 1/4.*polish_gap 3\.500e-04"):
        dissipation_ledger(decaying_traj, unit_model)


def test_telescoped_bound(decaying_traj, unit_model, grid16):
    quad, bracket = telescoped_energy_bound(decaying_traj, unit_model)
    assert quad >= 0.0
    # the bracket keeps its tau * n_steps floor even with a flat energy
    assert bracket >= decaying_traj.n_steps * decaying_traj.tau - 1e-12
    bare = run_minimizing_movement(
        unit_model, grid16, np.ones(16), 0.1, 0.2, with_diagnostics=False
    )
    with pytest.raises(ValueError):
        telescoped_energy_bound(bare, unit_model)


def test_weak_window_budget(decaying_traj, unit_model):
    budget = weak_window_budget(decaying_traj, unit_model, 0.0, 0.4)
    assert budget >= np.sqrt(0.1) * 0.4 - 1e-12
    with pytest.raises(ValueError):
        weak_window_budget(decaying_traj, unit_model, 0.2, 0.25)


def test_refinement_study_validation(unit_model, grid8):
    rho0 = np.ones(8)
    with pytest.raises(ValueError):
        tau_refinement_study(unit_model, grid8, rho0, 0.4, [0.1, 0.05])
    with pytest.raises(ValueError):
        tau_refinement_study(unit_model, grid8, rho0, 0.4, [0.1, 0.1, 0.05])


def test_refinement_study_stationary_errors_vanish(unit_model, grid8):
    study = tau_refinement_study(
        unit_model, grid8, np.ones(8), 0.4, [0.2, 0.1, 0.05],
        rho0_fine=lambda x: np.ones_like(x),
    )
    assert max(study.errors) <= 1e-8
    assert study.reference.grid.n_cells == 32
