"""A third of the equivalence battery (tests/battery.py): every solve certifies.

A plain stride of three would draw only the power law, since the law cycles
with the instance index; instance i runs when i % 3 equals (i // 3) % 3,
one law of each consecutive three in turn, so every law meets fixed-target,
cold and warm steps.
"""
import numpy as np

from battery import draw, solves
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
