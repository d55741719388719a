"""Command-line interface: exit codes, file outputs, flag handling."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import resflow
from resflow.cli import EXIT_CONFIG, EXIT_OK, main

SMALL = """
domain.n_cells = 8
model.reaction = power
model.w = 1.0
model.beta = 0.0
model.q = 1.0
scheme.tau = 0.1
scheme.t_final = 0.2
initial.kind = sine
initial.base = 1.0
initial.amplitude = 0.1
"""


@pytest.fixture()
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL)
    return path


def test_solve_writes_trajectory(small_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["solve", "--config", str(small_cfg), "--output", str(out)])
    assert code == EXIT_OK
    assert (out / "trajectory.csv").exists()
    report = capsys.readouterr().out
    assert "trajectory run" in report
    assert "barriers" in report
    assert (out / "report.txt").read_text() == report


def test_missing_config_file_is_a_config_error(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG


def test_bad_config_is_a_config_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery.key = 1\n")
    assert main(["solve", "--config", str(bad)]) == EXIT_CONFIG


def test_removed_solver_flags_are_rejected(small_cfg):
    for flag in ("--tol", "--max-iters", "--epsilon-scale"):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--config", str(small_cfg), flag, "1"])
        assert err.value.code == 2


def test_sweep_needs_three_taus(small_cfg, tmp_path):
    assert main(["sweep", "--config", str(small_cfg)]) == EXIT_CONFIG
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SMALL.replace("scheme.tau = 0.1",
                                 "scheme.tau_list = 0.1, 0.05, 0.025"))
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--config", str(cfg), "--output", str(out)]) == EXIT_OK
    assert (out / "sweep.csv").exists()


def test_oracle_writes_field(small_cfg, tmp_path, capsys):
    out = tmp_path / "oracle_out"
    code = main(["oracle", "--config", str(small_cfg), "--output", str(out),
                 "--dt", "0.05"])
    assert code == EXIT_OK
    assert (out / "reference.csv").exists()
    assert "reference solve" in capsys.readouterr().out


def test_oracle_rejects_nondividing_dt(small_cfg, tmp_path):
    out = tmp_path / "oracle_bad"
    code = main(["oracle", "--config", str(small_cfg), "--output", str(out),
                 "--dt", "0.07"])
    assert code == EXIT_CONFIG


def test_compare_reports_distance(small_cfg, capsys):
    assert main(["compare", "--config", str(small_cfg)]) == EXIT_OK
    assert "interior_l2_distance" in capsys.readouterr().out


def test_audit_passes_for_small_model(small_cfg, capsys):
    assert main(["audit", "--config", str(small_cfg)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "model assumption audit" in out
    assert "FAIL" not in out


def test_verify_battery_passes(capsys):
    assert main(["verify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_entry_point_help_runs():
    # the child interpreter imports the same resflow as this one
    src = str(Path(resflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import resflow.cli as c, sys; sys.exit(c.main(['--help']))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    # argparse prints help and exits 0 before main() returns
    assert proc.returncode == 0
    assert "solve" in proc.stdout and "verify" in proc.stdout
