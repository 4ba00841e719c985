"""One untimed, traced round of a benchmarks/perf workload, checked.

    python .github/scripts/perf_smoke.py WORKLOAD [metric=value ...]

Runs the harness, reads the JSON result on its last stdout line, and exits
non-zero unless the harness's own check passed (every plan against
expected/ and the machine simulator), no op failed, and each named metric
reads exactly the value given.
"""

import json
import subprocess
import sys

workload, *pins = sys.argv[1:]
run = subprocess.run(
    [sys.executable, "benchmarks/perf/run.py", "--workload", workload,
     "--seed", "0", "--seconds", "0", "--trace", "1"],
    stdout=subprocess.PIPE, text=True, check=True,
)
result = json.loads(run.stdout.splitlines()[-1])
if result["correct"] is not True or result["failed"] != 0:
    sys.exit(f"{workload} smoke: {result}")
want = {name: float(value) for name, value in (pin.split("=") for pin in pins)}
got = {name: result["metrics"][name]["value"] for name in want}
if got != want:
    sys.exit(f"{workload} smoke: counts moved: got {got}, want {want}")
repeat = ", counts repeat" if want else ""
print(f"{workload} smoke: {result['attempted']} ops, 0 failed{repeat}")
