"""A plan is a function of the program, not of the process's string
hashes.

The 16 pinned kernels of ``benchmarks/perf/corpus`` are planned for 16
processors in a fresh interpreter under ``PYTHONHASHSEED`` 0, 1, 2 and 3,
through the planning kernel ``align_and_distribute`` runs on
(``planning_records`` → ``solve_prefix`` → ``solve_suffix`` →
``plan_facts``); under seed 3 the printed plan comes from the CLI,
``python -m repro FILE --distribute 16``.  Every run must print the same
JSON: the facts a cache stores and the plan report a user reads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
CORPUS = ROOT / "benchmarks" / "perf" / "corpus"

_SCRIPT = """
import contextlib, io, json, sys
from pathlib import Path

from repro.__main__ import main
from repro.align.pipeline import plan_facts, planning_records, solve_prefix, solve_suffix
from repro.lang import parse

corpus, entry = Path(sys.argv[1]), sys.argv[2]
out = {}
for path in sorted(corpus.glob("*.dp")):
    name = str(path)
    options, machine = planning_records(16)
    ctx = solve_suffix(solve_prefix(parse(path.read_text(), name=name), options), machine)
    if entry == "cli":
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert main([name, "--distribute", "16"]) == 0
        # the plan report and the distribution plan, before the
        # naive baselines and the simulator's line
        report = printed.getvalue().split("  naive ")[0]
    else:
        report = f"{ctx.get('plan').report()}\\n{ctx.get('distribution').render()}\\n"
    out[path.stem] = {"facts": plan_facts(ctx), "report": report}
print(json.dumps(out))
"""


def _plan_under(seed: str, entry: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(CORPUS), entry],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def under_seed_0() -> dict:
    return _plan_under("0", "api")


def test_seed_0_plans_every_kernel(under_seed_0):
    assert len(under_seed_0) == 16
    for kernel, got in under_seed_0.items():
        assert got["facts"]["distribution"], kernel
        assert got["report"].count("distribution plan (16 processors") == 1


@pytest.mark.parametrize("seed,entry", [("1", "api"), ("2", "api"), ("3", "cli")])
def test_the_plans_do_not_depend_on_the_hash_seed(under_seed_0, seed, entry):
    assert _plan_under(seed, entry) == under_seed_0
