"""Contract entry point: ``python3 benchmarks/perf/run.py --workload W --seed S
--seconds N --trace 0|1`` from the checkout root (see BENCHMARK.json).

Starts the set-up clock, pins ``PYTHONHASHSEED=0`` (set iteration order
must not vary between runs whose counts are compared) and puts the
checkout's ``src`` on the import path before anything of ``repro`` loads.
"""

import os
import sys
import time

T_START = time.perf_counter()

if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(here))
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        # Never fall back to a `repro` installed elsewhere: the benchmark
        # measures the package of the checkout it sits in.
        sys.exit(f"{root}/src/repro not found: run from a full checkout")
    sys.path[:0] = [root, os.path.join(root, "src")]
    from benchmarks.perf.probe import probe_reading

    at_start = probe_reading(5)  # the machine's speed before the imports, for setup_s
    from benchmarks.perf.cli import main

    raise SystemExit(main(sys.argv[1:], T_START, at_start))
