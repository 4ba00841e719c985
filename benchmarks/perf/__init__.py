"""The one benchmark for the planner stack (see README.md beside this file).

``python3 benchmarks/perf/run.py --workload W --seed S --seconds N --trace 0|1``
is the contract entry point named by the root ``BENCHMARK.json``;
``python -m benchmarks.perf run|compare|verify`` are the human-facing
commands built on it.  Every layer of ``repro`` is measured from outside,
through its public functions only.
"""
