"""The oracle's own search primitives, and its independence from the fast path."""
import ast
from pathlib import Path

import numpy as np
import pytest

from resflow import oracle


def test_bracketed_min_finds_each_row():
    rows = [
        # smooth convex; an offset would round the values near 0.3 into ties
        (lambda s: (s - 0.3) ** 2, -1.0, 2.0, 0.3),
        # kinked max of affine pieces, like the dual-vertex transport value
        (lambda s: np.maximum.reduce([-2.0 * s + 1.0, 0.5 * s + 1.0 / 6.0, 3.0 * s - 2.0]),
         -3.0, 5.0, 1.0 / 3.0),
        # minimum on the lower endpoint
        (np.exp, 0.25, 1.0, 0.25),
        # minimum on the upper endpoint
        (lambda s: -s ** 3, -0.5, 0.7, 0.7),
        # zero-width bracket
        (lambda s: (s - 3.0) ** 2, 0.4, 0.4, 0.4),
    ]

    def f(pts):
        return np.stack([fn(p) for (fn, _, _, _), p in zip(rows, pts)])

    lo = np.array([r[1] for r in rows])
    hi = np.array([r[2] for r in rows])
    x, fx = oracle._bracketed_min(f, lo, hi)
    assert x.shape == fx.shape == (len(rows),)
    for (fn, _, _, best), xb, fb in zip(rows, x, fx):
        assert xb == pytest.approx(best, abs=1e-12)
        assert fb == pytest.approx(fn(np.array([xb]))[0], rel=1e-15, abs=1e-15)


def test_oracle_imports_nothing_from_the_fast_path():
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            imported.add(base)
            imported.update(f"{base}.{a.name}".lstrip(".") for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    assert not any("transport" in m.split(".") for m in imported), imported
    assert not any(m.startswith("scipy.optimize") for m in imported), imported
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not names & {"linprog", "minimize_scalar", "optimize"}, names
