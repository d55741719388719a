"""Smoke test of the benchmark harness: python3 perfbench/run.py --self-test

Runs every workload at reduced size, traced and untraced, and checks that each
metric named in BENCHMARK.json is printed with its unit. Then checks that a
corrupted result and a raised error are both counted as failed ops.
"""
from __future__ import annotations

import dataclasses
import json
import sys

import run
import workloads


class SelfTestFailure(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise SelfTestFailure(message)


def check_printed(res, spec_metrics: list[dict]) -> None:
    text = run.report(res)
    printed = run.summary(res)["metrics"]
    for m in spec_metrics:
        name, unit = m["name"], m["unit"]
        expect(name in printed and printed[name]["unit"] == unit,
               f"{res.workload} trace {res.trace}: {name} [{unit}] missing from the result")
        value = printed[name]["value"]
        expect(isinstance(value, (int, float)) and value == value,
               f"{res.workload}: {name} is not a number: {value!r}")
        expect(f"  {name} = {value:.6g} {unit}" in text,
               f"{res.workload} trace {res.trace}: {name} [{unit}] not printed")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    try:
        for name in workloads.WORKLOADS:
            wl = workloads.make_workload(name, smoke=True)
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                res = run.measure(wl, seed=1, seconds=0.0, trace=trace, setup_repeats=1)
                print(run.report(res))
                expect(res.failed == 0, f"{name} trace {trace}: {res.failed} ops failed")
                check_printed(res, spec[key])

        # a corrupted oracle objective is a failed op, counted and not retried
        wl = workloads.make_workload("tiny-oracle", smoke=True)

        def corrupted(inp, scratch):
            out = wl.run(inp, scratch)
            one = out["instances"][0]
            one["ref"] = dataclasses.replace(one["ref"], value=one["ref"].value + 1e-3)
            return out

        res = run.measure(dataclasses.replace(wl, run=corrupted), seed=1, seconds=0.0,
                          trace=0, setup_repeats=1)
        expect(res.attempted == 1 and res.failed == 1,
               f"corrupted objective: {res.failed} of {res.attempted} ops failed")
        expect(run.summary(res)["correct"] is False, "corrupted run still reads correct")

        def raising(inp, scratch):
            raise RuntimeError("transport step did not converge")

        res = run.measure(dataclasses.replace(wl, run=raising), seed=1, seconds=0.0,
                          trace=0, setup_repeats=1)
        expect(res.attempted == 1 and res.failed == 1,
               f"raised error: {res.failed} of {res.attempted} ops failed")
    except SelfTestFailure as exc:
        sys.stderr.write(f"self-test FAILED: {exc}\n")
        return 1
    print("self-test passed")
    return 0
