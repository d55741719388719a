"""Command-line interface: exit codes, file outputs, flag handling."""
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import resflow
from resflow import StepFailure, cli, flow, model
from resflow.cli import EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, EXIT_UNEXPECTED, EXIT_VERIFY, main

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
    assert "support_slack" in report
    # 8 cells, tau = 0.1: interior arcs |i - j| <= 2 + 1 (44) plus 32 wall arcs;
    # each step's first LP settles inside the seed's windows but off the seed,
    # so it assembles no candidate, and each certifies the candidate of its
    # second LP, hot-started from the first: the first step after one prune
    # pass that cuts the arcs whose peeled masses come out negative, the
    # second with none; the line ends with the simplex iterations of both
    # steps' four LPs
    assert ("76 arcs max, 0 pricing rounds, 0 rejected candidates, 1 prune passes, "
            "47 simplex iterations\n") in report


def test_missing_config_file_is_a_config_error(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG


def test_bad_config_is_a_config_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery.key = 1\n")
    assert main(["solve", "--config", str(bad)]) == EXIT_CONFIG


def test_model_rejected_at_parse_is_a_config_error(small_cfg, capsys):
    # a power law with q = 0 has rate floor 0: no equilibrium density
    small_cfg.write_text(SMALL.replace("model.q = 1.0", "model.q = 0"))
    assert main(["solve", "--config", str(small_cfg)]) == EXIT_CONFIG
    assert "rate floor" in capsys.readouterr().err


def test_coefficient_constraints_are_checked_on_the_model_interval(small_cfg, tmp_path, capsys):
    # w = 1 - 0.4 x turns negative near x = 3: refused at parse
    small_cfg.write_text(SMALL.replace("model.w = 1.0", "model.w = 1, -0.4")
                         + "domain.x_lo = 2\ndomain.x_hi = 3\n")
    assert main(["solve", "--config", str(small_cfg)]) == EXIT_CONFIG
    assert "w > 0" in capsys.readouterr().err
    # w = 1 - 1.5 x stays in [0.25, 1] on (0, 0.5): every step certifies
    small_cfg.write_text(SMALL.replace("model.w = 1.0", "model.w = 1, -1.5")
                         + "domain.x_hi = 0.5\n")
    code = main(["solve", "--config", str(small_cfg), "--output", str(tmp_path / "out")])
    assert code == EXIT_OK


def test_value_error_inside_a_solve_is_not_a_config_error(small_cfg, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("cost slope diverges at the rate floor")

    monkeypatch.setattr(flow, "solve_jko_step", broken)
    code = main(["solve", "--config", str(small_cfg), "--output", str(tmp_path)])
    assert code == EXIT_UNEXPECTED


def test_step_failure_names_step_and_certificate(small_cfg, tmp_path, monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise StepFailure("reduced_residual", 2.5e-9)

    monkeypatch.setattr(flow, "solve_jko_step", failing)
    code = main(["solve", "--config", str(small_cfg), "--output", str(tmp_path)])
    assert code == EXIT_SOLVER
    err = capsys.readouterr().err
    assert "transport step 1/2" in err
    assert "reduced_residual 2.500e-09" in err


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
    # the reference step 0.03 / 8 does not divide t_final = 0.2
    cfg.write_text(SMALL.replace("scheme.tau = 0.1", "scheme.tau_list = 0.1, 0.05, 0.03"))
    assert main(["sweep", "--config", str(cfg), "--output", str(out)]) == EXIT_CONFIG


def test_oracle_writes_field(small_cfg, tmp_path, capsys):
    out = tmp_path / "oracle_out"
    code = main(["oracle", "--config", str(small_cfg), "--output", str(out),
                 "--dt", "0.05"])
    assert code == EXIT_OK
    assert (out / "reference.csv").exists()
    assert "reference solve" in capsys.readouterr().out


def test_oracle_default_step_divides_t_final(small_cfg, tmp_path):
    # tau / 8 = 0.00875 does not divide t_final = 0.2; 23 steps of 0.2 / 23 do
    small_cfg.write_text(SMALL.replace("scheme.tau = 0.1", "scheme.tau = 0.07"))
    out = tmp_path / "oracle_out"
    assert main(["oracle", "--config", str(small_cfg), "--output", str(out)]) == EXIT_OK
    header = [line for line in (out / "reference.csv").read_text().splitlines()
              if line.startswith("# dt:")]
    assert len(header) == 1
    assert float(header[0].split(":", 1)[1]) == 0.2 / math.ceil(0.2 / (0.07 / 8))


def test_oracle_rejects_nondividing_dt(small_cfg, tmp_path, capsys):
    out = tmp_path / "oracle_bad"
    code = main(["oracle", "--config", str(small_cfg), "--output", str(out),
                 "--dt", "0.07"])
    assert code == EXIT_CONFIG
    for dt in ("nan", "inf"):
        capsys.readouterr()
        assert main(["oracle", "--config", str(small_cfg), "--output", str(out),
                     "--dt", dt]) == EXIT_CONFIG
        assert f"--dt: need positive, finite dt and t_final, got {dt}" in capsys.readouterr().err


def test_compare_reports_distance(small_cfg, capsys):
    assert main(["compare", "--config", str(small_cfg)]) == EXIT_OK
    assert "interior_l2_distance" in capsys.readouterr().out


def test_audit_passes_for_small_model(small_cfg, capsys):
    assert main(["audit", "--config", str(small_cfg)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "model assumption audit" in out
    assert "FAIL" not in out


def test_audit_failure_exits_with_the_verify_code(small_cfg, monkeypatch, capsys):
    real = model.validate_assumptions

    def one_failed(m):
        audit = real(m)
        return dataclasses.replace(
            audit, checks=audit.checks + (model.AuditCheck("planted-check", False, -1.0),))

    monkeypatch.setattr(model, "validate_assumptions", one_failed)
    assert main(["audit", "--config", str(small_cfg)]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert "planted-check" in captured.out and "FAIL" in captured.out
    assert "verification failure" in captured.err


def test_verify_failure_exits_with_the_verify_code(monkeypatch, capsys):
    def battery():
        yield "planted pass", True, 0.0
        yield "planted fail", False, 2.5

    monkeypatch.setattr(cli, "_verify_battery", battery)
    assert main(["verify"]) == EXIT_VERIFY
    out = capsys.readouterr().out
    assert "PASS  planted pass  (worst 0.000e+00)\n" in out
    assert "FAIL  planted fail  (worst 2.500e+00)\n" in out
    assert "1 check(s) failed\n" in out


def test_verify_battery_passes(capsys):
    assert main(["verify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    # no brute-force rate leaves the rate window of its certified price window
    assert "PASS  brute-force price window  (worst 0.000e+00)\n" in out


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
