"""The pinned corpus, its pinned edits, and the committed expected results.

``corpus/*.dp`` are the 16 kernels (the 12 fragments of
``repro.lang.programs`` as pretty-printed source plus ``jacobi2d``,
``redblack1d``, ``cg_step`` and ``lu_wavefront``); ``corpus/edits/
<kernel>.<class>.dp`` is each kernel after one edit of the named class;
``expected/<key>.json`` maps a machine label to the reviewed facts of the
cold plan (directive, total cost, cost vector, hash of ``plan.report()``).
Nothing here depends on ``--seed``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))  # the checkout
CORPUS_DIR = os.path.join(HERE, "corpus")
EDITS_DIR = os.path.join(CORPUS_DIR, "edits")
EXPECTED_DIR = os.path.join(HERE, "expected")

#: Label of the 16-processor default machine (``machine_label(16, None)``).
P16 = "P16"


#: Set by the harness for the interpreters it starts itself, never by a
#: user: ``only`` sets up, prints the seconds that took and exits (the
#: set-up repeats of a contract run); ``once`` skips those repeats (a
#: trial of ``run``, whose T trials are the repeats).
SETUP_ENV = "BENCH_PERF_SETUP"


def run_cmd(workload: str, seed: int, *flags: str) -> list[str]:
    """The contract entry point in a fresh interpreter, plus ``flags``."""
    return [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed), *flags]


def child_env(setup_mode: str) -> dict:
    return {**os.environ, SETUP_ENV: setup_mode}


@dataclass(frozen=True)
class Item:
    name: str  # "jacobi2d", or "jacobi2d.op_swap" for an edit
    source: str
    kernel: str  # the corpus kernel it is (an edit of)
    edit_class: Optional[str] = None


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def load_items() -> list[Item]:
    names = sorted(f[:-3] for f in os.listdir(CORPUS_DIR) if f.endswith(".dp"))
    return [Item(n, _read(os.path.join(CORPUS_DIR, n + ".dp")), n) for n in names]


def load_edits(classes=None) -> list[Item]:
    out = []
    for f in sorted(os.listdir(EDITS_DIR)):
        if not f.endswith(".dp"):
            continue
        kernel, cls = f[:-3].split(".")
        if classes is None or cls in classes:
            out.append(Item(f[:-3], _read(os.path.join(EDITS_DIR, f)), kernel, cls))
    return out


# -- facts: what a result is compared on ----------------------------------


def plan_facts(plan) -> dict:
    """Facts of an ``AlignmentPlan`` with its distribution attached."""
    d = plan.distribution
    return {
        "total_cost": str(plan.total_cost),
        "directive": d.directive(),
        "hops": d.cost.hops,
        "moved": d.cost.moved,
        "broadcast": d.cost.broadcast,
        "exact": d.exact,
        "report_sha1": hashlib.sha1(plan.report().encode()).hexdigest()[:16],
    }


def payload_facts(payload: Mapping) -> dict:
    """Facts of a serve payload (it carries no broadcast count)."""
    return {
        "total_cost": payload["total_cost"],
        "directive": payload["distribution"],
        "hops": payload["hops"],
        "moved": payload["moved"],
        "exact": payload["exact"],
    }


def result_facts(result) -> dict:
    """Facts of a batch ``PlanResult``."""
    return {
        "total_cost": result.total_cost,
        "directive": result.distribution,
        "hops": result.dist_hops,
        "moved": result.dist_moved,
        "exact": result.dist_exact,
    }


def plan_cost(facts: Mapping) -> float:
    """Alignment ``total_cost`` + the chosen distribution's cost vector —
    this compiler's "run time of the generated code"."""
    return float(
        Fraction(facts["total_cost"])
        + facts["hops"]
        + facts["moved"]
        + facts.get("broadcast", 0)
    )


class Expected:
    """The committed reference results, loaded once."""

    def __init__(self, root: str = EXPECTED_DIR) -> None:
        self.root = root
        self._files: dict[str, dict] = {}

    def _file(self, key: str) -> dict:
        if key not in self._files:
            try:
                self._files[key] = json.loads(_read(os.path.join(self.root, key + ".json")))
            except (OSError, ValueError):
                self._files[key] = {}
        return self._files[key]

    def mismatch(self, key: str, label: str, facts: Mapping) -> Optional[str]:
        """``None`` when ``facts`` agree with the expected entry on every
        field both carry; otherwise a one-line description."""
        want = self._file(key).get(label)
        if want is None:
            return f"{key}@{label}: no expected entry"
        shared = [k for k in facts if k in want]
        if "directive" not in shared:
            return f"{key}@{label}: expected entry lacks a directive"
        bad = [f"{k}: got {facts[k]!r}, expected {want[k]!r}" for k in shared if facts[k] != want[k]]
        return f"{key}@{label}: " + "; ".join(bad) if bad else None

    def write(self, key: str, entries: Mapping[str, Mapping]) -> None:
        os.makedirs(self.root, exist_ok=True)
        with open(os.path.join(self.root, key + ".json"), "w", encoding="utf-8") as f:
            json.dump(entries, f, indent=1, sort_keys=True)
            f.write("\n")


def simulate(plan, topology_spec: Optional[str]) -> Optional[str]:
    """Run the machine simulator on a plan with its distribution attached;
    ``None`` when the measured traffic equals the modeled cost vector
    exactly, otherwise a description of the difference."""
    from repro.machine import measure_traffic
    from repro.topology import parse_topology

    topo = None if topology_spec is None else parse_topology(topology_spec)
    d = plan.distribution
    rep = measure_traffic(plan.adg, plan.alignments, d.to_distribution(), topology=topo)
    got = (rep.hop_cost, rep.elements_moved, rep.broadcast_elements)
    want = (d.cost.hops, d.cost.moved, d.cost.broadcast)
    return None if got == want else f"simulator {got} != model {want}"
