"""File emission: schema headers, exact round-trips, reports."""
import numpy as np
import pytest

from resflow import (
    emit_report,
    model_hash,
    model_signature,
    read_trajectory_csv,
    run_minimizing_movement,
    solve_fd,
    tau_refinement_study,
    write_field_csv,
    write_sweep_csv,
    write_trajectory_csv,
)


@pytest.fixture(scope="module")
def short_traj(unit_model, grid8):
    rho0 = 1.0 + 0.1 * np.sin(np.pi * grid8.cell_centers)
    return run_minimizing_movement(unit_model, grid8, rho0, 0.1, 0.3)


def test_model_signature_distinguishes_models(unit_model, drifty_model):
    assert model_signature(unit_model) != model_signature(drifty_model)
    assert model_hash(unit_model) != model_hash(drifty_model)
    assert len(model_hash(unit_model)) == 12
    assert model_signature(unit_model).startswith("interval=0,1;reaction=")


def test_trajectory_roundtrip_is_exact(short_traj, unit_model, tmp_path):
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, short_traj, unit_model)
    table = read_trajectory_csv(path)
    assert table.rho.shape == (short_traj.n_steps + 1, 8)
    # 17 significant digits reproduce the doubles bit for bit
    assert np.array_equal(table.rho, short_traj.densities)
    assert np.array_equal(table.times, np.asarray(short_traj.times))
    assert np.array_equal(table.x, short_traj.grid.cell_centers)
    assert np.all(np.isnan(table.h[0]))
    assert np.all(np.isnan(table.phi_star[0]))
    for k in range(1, short_traj.n_steps + 1):
        assert np.array_equal(table.h[k], short_traj.solutions[k].h)


def test_trajectory_headers(short_traj, unit_model, tmp_path):
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, short_traj, unit_model)
    head = path.read_text().splitlines()[:5]
    assert head[0] == "# schema: resflow-trajectory-v2"
    assert head[1] == f"# model: {model_hash(unit_model)}"
    assert head[2] == "# tau: 0.10000000000000001 t_final: 0.29999999999999999"
    assert head[3].startswith("# written: ")
    assert head[4] == "step,t,x,rho,h,phi_star"


def test_rewrite_is_byte_identical_modulo_timestamp(short_traj, unit_model, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_trajectory_csv(a, short_traj, unit_model)
    write_trajectory_csv(b, short_traj, unit_model)
    strip = lambda p: [l for l in p.read_text().splitlines() if not l.startswith("# written")]
    assert strip(a) == strip(b)


def test_read_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# schema: resflow-trajectory-v1\nstep,t,x,rho,h,phi_star\n")
    with pytest.raises(ValueError):
        read_trajectory_csv(path)


def test_sweep_csv(unit_model, grid8, tmp_path):
    study = tau_refinement_study(
        unit_model, grid8, np.ones(8), 0.4, [0.2, 0.1, 0.05],
        rho0_fine=lambda x: np.ones_like(x),
    )
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, study, unit_model)
    text = path.read_text()
    assert text.startswith("# schema: resflow-sweep-v1\n")
    assert "tau,error" in text
    assert text.rstrip().splitlines()[-1].startswith("# fitted_order = ")
    data = [l for l in text.splitlines() if l and not l.startswith("#") and l[0].isdigit()]
    assert len(data) == 3


def test_field_csv(unit_model, grid8, tmp_path):
    sol = solve_fd(unit_model, grid8, np.ones(8), t_final=0.2, dt=0.1)
    path = tmp_path / "field.csv"
    write_field_csv(path, sol, unit_model)
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema: resflow-field-v1"
    assert "t,x,rho" in lines
    data = [l for l in lines if l and not l.startswith("#") and l[0].isdigit()]
    assert len(data) == 3 * 8


def test_emit_report_layout():
    text = emit_report("demo", {
        "run": {"steps": 4, "tau": 0.1},
        "checks": {"barrier": "ok"},
    })
    lines = text.splitlines()
    assert lines[0] == "demo"
    assert lines[1] == "===="
    assert "[run]" in lines
    assert any(l.strip().startswith("tau") and "0.1" in l for l in lines)
    assert text.endswith("\n")
