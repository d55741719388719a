"""A third of the equivalence battery (tests/battery.py): every solve certifies.

A plain stride of three would draw only the power law, since the law cycles
with the instance index; instance i runs when i % 3 equals (i // 3) % 3,
one law of each consecutive three in turn, so every law meets fixed-target,
cold and warm steps. Every certified solve also holds the price identity
phi_star + cost_slope(h) = 0 to rounding (kkt_kappa).
"""
import pickle

import numpy as np
import pytest

from battery import compare, draw, solves
from resflow import StepFailure, build_grid


def test_battery_third_certifies_every_solve():
    count = 0
    for i, inst in enumerate(draw()):
        if i % 3 != (i // 3) % 3:
            continue
        dx = build_grid(0.0, 1.0, inst.n).cell_width
        for label, mu, sol in solves(inst):
            count += 1
            assert not isinstance(sol, StepFailure), f"{label}: {sol}"
            assert sol.converged and sol.residuals["polish_gap"] <= 1e-8, label
            assert sol.residuals["kkt_kappa"] <= 1e-12, label
            n = inst.n
            r, c, mass = sol.arcs
            rows, cols = r < n, c < n
            tol = 1e-10 * float(np.sum(mu))
            assert np.max(np.abs(np.bincount(r[rows], mass[rows], minlength=n) - mu)) <= tol, label
            col_mass = (sol.rho + inst.tau * sol.h) * dx
            assert np.max(np.abs(np.bincount(c[cols], mass[cols], minlength=n)
                                 - col_mass)) <= tol, label
            assert not np.any(~rows & ~cols), f"{label}: wall-to-wall arc"
    assert count == 301    # 200 instances, 101 of them a cold and a warm step


@pytest.mark.parametrize("index", [84, 156])
def test_warm_step_keeps_the_price_identity(index):
    """A candidate whose feasibility repair lowers a column price is not accepted.

    The warm steps of battery instances 84 and 156 (power law, 30 cells
    each) once certified on a candidate whose repaired phi_star no longer
    priced its h: kkt_kappa read 9.97e-5 and 5.37e-5 with a gap near 1e-10.
    """
    inst = draw()[index]
    (_, _, cold), (label, _, warm) = solves(inst)
    assert label == f"instance {index} warm"
    for sol in (cold, warm):
        assert not isinstance(sol, StepFailure), f"{label}: {sol}"
        assert sol.converged and sol.residuals["polish_gap"] <= 1e-8
        assert sol.residuals["kkt_kappa"] <= 1e-12


def test_compare_exits_1_when_a_certified_solve_is_lost(tmp_path, capsys):
    """--compare fails on a solve A certified that B raised on or left unconverged."""
    def rec(converged=True):
        return {"converged": converged, "h": np.zeros(2), "residuals.kkt_kappa": 0.0,
                "stats": {"lp_rounds": 1}}

    a = {"s1": rec(), "s2": rec(), "s3": rec(), "s4": rec(False)}
    paths = []
    for name, recs in (("a", a), ("same", a),
                       ("lost", {**a, "s2": {"failure": ("price_root", 1.0, "x")},
                                 "s3": rec(False)})):
        paths.append(tmp_path / f"{name}.pkl")
        paths[-1].write_bytes(pickle.dumps(recs))
    assert compare(paths[0], paths[1]) == 0
    assert compare(paths[0], paths[2]) == 1
    assert "failed or unconverged in B: 2: s2, s3" in capsys.readouterr().out
