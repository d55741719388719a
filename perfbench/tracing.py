"""Spans around the calls into each resflow layer, and the per-layer metrics.

The tracer replaces module attributes at the call sites for the duration of
one op and restores them afterwards, so untraced ops run the plain library.
A site that no longer exists is skipped and its layer reports zero calls.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import math
import statistics
import time
from dataclasses import asdict, dataclass, field

import numpy as np

GAP_TOL = 1e-8


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _step_attrs(args, kwargs, result) -> dict:
    options = [v for v in (*args, *kwargs.values()) if hasattr(v, "init_phi_star")]
    gap = float(result.residuals.get("polish_gap", math.inf))
    return {
        "warm": bool(options and options[0].init_phi_star is not None),
        "sweeps": int(result.iterations),
        "marginal": float(result.residuals.get("marginal", 0.0)),
        "gap": gap,
        "certified": bool(result.converged and gap <= GAP_TOL),
        "objective": float(result.objective),
        "h": np.array(result.h, dtype=float),
    }


def _highs_attrs(args, kwargs, result) -> dict:
    a_eq = kwargs.get("A_eq")
    return {"columns": len(args[0]), "nnz": 0 if a_eq is None else int(a_eq.nnz)}


def _fd_attrs(args, kwargs, result) -> dict:
    return {"newton_iters": int(result.max_newton_iters)}


def _compare_attrs(args, kwargs, result) -> dict:
    return {"distance": float(result)}


def _oracle_attrs(args, kwargs, result) -> dict:
    return {"value": float(result.value), "h": np.array(result.h, dtype=float)}


def _write_attrs(args, kwargs, result) -> dict:
    return {"bytes": args[0].stat().st_size}


# (module, attribute, span name, attribute extractor)
SITES = (
    ("resflow.flow", "run_minimizing_movement", "flow.trajectory", None),
    ("resflow.flow", "dissipation_ledger", "flow.ledger", None),
    ("resflow.flow", "solve_jko_step", "transport.jko_step", _step_attrs),
    ("resflow.transport", "solve_jko_step", "transport.jko_step", _step_attrs),
    ("resflow.flow", "solve_fixed_target", "transport.fixed_step", _step_attrs),
    ("resflow.transport", "solve_fixed_target", "transport.fixed_step", _step_attrs),
    ("resflow.flow", "run_diagnostics", "diagnostics.run", None),
    ("resflow.transport", "generalized_scaling_solve", "transport.seed", None),
    ("resflow.transport", "linprog", "transport.highs", _highs_attrs),
    ("resflow.transport", "nnls", "transport.nnls", None),
    ("resflow.transport", "extract_potentials", "transport.certificate", None),
    ("resflow.fdref", "solve_fd", "fdref.solve", _fd_attrs),
    ("resflow.fdref", "compare_trajectories", "fdref.compare", _compare_attrs),
    ("resflow.oracle", "brute_force_small", "oracle.brute_force", _oracle_attrs),
    ("resflow.io", "write_trajectory_csv", "io.write_trajectory", _write_attrs),
)


class Tracer:
    """In-memory spans; each traced op is one root span named ``op``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    def _wrap(self, name: str, fn, attrs_fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if attrs_fn is not None:
                self.spans[idx].attrs = attrs_fn(args, kwargs, result)
            return result
        return traced

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self._op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Trace one op: wrap every existing call site, restore them after."""
        saved = []
        for module_name, attr, name, attrs_fn in SITES:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, attrs_fn))
        self._op = op_id
        idx = self._open("op")
        try:
            yield
        finally:
            self._close(idx)
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self) -> list[dict]:
        out = []
        for s in self.spans:
            row = asdict(s)
            row["attrs"] = {k: v.tolist() if isinstance(v, np.ndarray) else v
                            for k, v in s.attrs.items()}
            out.append(row)
        return out


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span], setup: dict, overhead_frac: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}; per-op figures average the traced ops."""
    n_ops = max(1, sum(s.name == "op" for s in spans))
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    self_time = [s.duration - c for s, c in zip(spans, child_time)]

    def of(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def calls(name):
        return len(of(name)) / n_ops

    def total(name):
        return sum(spans[i].duration for i in of(name)) / n_ops

    def self_s(*names):
        return sum(self_time[i] for name in names for i in of(name)) / n_ops

    def attr(name, key):
        return [spans[i].attrs[key] for i in of(name) if key in spans[i].attrs]

    steps = [spans[i] for name in ("transport.jko_step", "transport.fixed_step")
             for i in of(name) if spans[i].attrs]
    jko = [spans[i] for i in of("transport.jko_step")]
    fixed = [spans[i] for i in of("transport.fixed_step")]

    # oracle agreement: each oracle call against the step solved just before it
    obj_err, h_err = [], []
    for i in of("oracle.brute_force"):
        ref = spans[i].attrs
        before = [s for s in steps if s.op == spans[i].op and s.end <= spans[i].start]
        if ref and before:
            step = max(before, key=lambda s: s.end).attrs
            obj_err.append(abs(step["objective"] - ref["value"]))
            h_err.append(float(np.max(np.abs(step["h"] - ref["h"]))))

    highs_cols = attr("transport.highs", "columns")
    highs_nnz = attr("transport.highs", "nnz")
    return {
        "transport.jko_step.calls": (calls("transport.jko_step"), "calls/op"),
        "transport.jko_step.s": (total("transport.jko_step"), "s/op"),
        "transport.jko_step.cold_s_p50": (
            _p50([s.duration for s in jko if s.attrs and not s.attrs["warm"]]), "s"),
        "transport.jko_step.warm_s_p50": (
            _p50([s.duration for s in jko if s.attrs and s.attrs["warm"]]), "s"),
        "transport.fixed_step.calls": (calls("transport.fixed_step"), "calls/op"),
        "transport.fixed_step.s": (total("transport.fixed_step"), "s/op"),
        "transport.fixed_step.s_p50": (_p50([s.duration for s in fixed]), "s"),
        "transport.fixed_step.uncertified": (
            sum(1 for s in fixed if not s.attrs.get("certified", False)), "count"),
        "transport.seed.s": (total("transport.seed"), "s/op"),
        "transport.seed.sweeps": (sum(s.attrs["sweeps"] for s in steps) / n_ops, "sweeps/op"),
        "transport.seed.marginal_max": (max((s.attrs["marginal"] for s in steps), default=0.0), "1"),
        "transport.highs.calls": (calls("transport.highs"), "calls/op"),
        "transport.highs.s": (total("transport.highs"), "s/op"),
        "transport.highs.columns_mean": (
            statistics.fmean(highs_cols) if highs_cols else 0.0, "count"),
        "transport.highs.nnz_mean": (statistics.fmean(highs_nnz) if highs_nnz else 0.0, "count"),
        "transport.nnls.calls": (calls("transport.nnls"), "calls/op"),
        "transport.nnls.s": (total("transport.nnls"), "s/op"),
        "transport.certificate.s": (total("transport.certificate"), "s/op"),
        "transport.exact_self.s": (self_s("transport.jko_step", "transport.fixed_step"), "s/op"),
        "transport.cert_gap_max": (max((s.attrs["gap"] for s in steps), default=0.0), "1"),
        "transport.certified_ratio": (
            sum(s.attrs["certified"] for s in steps) / len(steps) if steps else 1.0, "1"),
        "flow.trajectory.s": (total("flow.trajectory"), "s/op"),
        "flow.trajectory.self_s": (self_s("flow.trajectory"), "s/op"),
        "flow.ledger.s": (total("flow.ledger"), "s/op"),
        "flow.ledger.self_s": (self_s("flow.ledger"), "s/op"),
        "diagnostics.run.calls": (calls("diagnostics.run"), "calls/op"),
        "diagnostics.run.s": (total("diagnostics.run"), "s/op"),
        "fdref.solve.s": (total("fdref.solve"), "s/op"),
        "fdref.solve.newton_iters_max": (max(attr("fdref.solve", "newton_iters"), default=0), "count"),
        "fdref.compare.s": (total("fdref.compare"), "s/op"),
        "fdref.l2_distance": (_p50(attr("fdref.compare", "distance")), "1"),
        "oracle.brute_force.calls": (calls("oracle.brute_force"), "calls/op"),
        "oracle.brute_force.s": (total("oracle.brute_force"), "s/op"),
        "oracle.obj_err_max": (max(obj_err, default=0.0), "1"),
        "oracle.h_err_max": (max(h_err, default=0.0), "1"),
        "io.write_trajectory.s": (total("io.write_trajectory"), "s/op"),
        "io.write_trajectory.bytes": (
            sum(attr("io.write_trajectory", "bytes")) / n_ops, "B/op"),
        "import.s": (setup["import_s"], "s"),
        "config.parse.s": (setup["parse_s"], "s"),
        "model.build.s": (setup["model_s"], "s"),
        "op.self_s": (self_s("op"), "s/op"),
        "trace.ops": (n_ops, "count"),
        "trace.overhead_frac": (overhead_frac, "1"),
    }
