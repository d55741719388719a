"""Time resflow's set-up in a fresh interpreter: import, config parse, model, grid.

Usage: python3 setup_probe.py CHECKOUT_ROOT < config.txt
Prints one JSON object of seconds.
"""
import json
import sys
import time

text = sys.stdin.read()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1] + "/src")
import resflow  # noqa: E402

t1 = time.perf_counter()
cfg = resflow.parse_config(text)
t2 = time.perf_counter()
cfg.build_model()
t3 = time.perf_counter()
cfg.build_grid()
t4 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1, "model_s": t3 - t2,
                  "grid_s": t4 - t3, "setup_s": t4 - t0}))
