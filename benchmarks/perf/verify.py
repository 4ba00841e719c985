"""``verify``: every distinct op of every workload, planned cold and run
through the machine simulator, against ``expected/`` — with no clock.

The contract runs compare every op with ``expected/`` but can afford the
simulator only on a seeded sample; this command covers all of them.
``--write`` regenerates ``expected/`` and refuses an entry the simulator
does not confirm, so the committed files never come from the planner
alone.  Review the diff before committing it.
"""

from __future__ import annotations

from repro.align.pipeline import align_and_distribute
from repro.lang.generate import generate_corpus
from repro.lang.parser import parse
from repro.topology import parse_topology

from . import corpus
from .spec import NPROCS
from .workloads import BATCH_PROGRAMS, CHURN_MACHINES, SWEEP_MACHINES, SWEEP_PREFIXES, machine_label


def distinct_ops():
    """``(expected key, label, program name, source, nprocs, topology)`` of every op."""
    items = corpus.load_items()
    for item in items:
        for nprocs, topology in CHURN_MACHINES:  # a superset of the serve_warm machines
            yield item.name, machine_label(nprocs, topology), item.name, item.source, nprocs, topology
        if item.name in SWEEP_PREFIXES:
            for spec in SWEEP_MACHINES:
                yield item.name, spec, item.name, item.source, None, spec
    for edit in corpus.load_edits():
        yield edit.name, corpus.P16, edit.kernel, edit.source, NPROCS, None
    for scenario in generate_corpus(BATCH_PROGRAMS, seed=0):
        yield "generated", scenario.name, scenario.name, scenario.source, NPROCS, None


def cmd_verify(write: bool) -> int:
    expected = corpus.Expected()
    entries: dict[str, dict] = {}
    bad = 0
    for key, label, name, source, nprocs, topology in distinct_ops():
        if nprocs is None:
            nprocs = parse_topology(topology).nprocs
        options = {"topology": topology} if topology else None
        plan = align_and_distribute(parse(source, name=name), nprocs, distrib_options=options)
        facts = corpus.plan_facts(plan)
        problem = corpus.simulate(plan, topology)
        if problem is None and not write:
            problem = expected.mismatch(key, label, facts)
        if problem:
            bad += 1
            print(f"FAIL {key}@{label}: {problem}")
        else:
            entries.setdefault(key, {})[label] = facts
            print(f"ok   {key}@{label}: {facts['directive']} cost={corpus.plan_cost(facts):g}")
    if write and not bad:
        for key, labels in entries.items():
            expected.write(key, labels)
        print(f"wrote {len(entries)} files under {expected.root}")
    print(f"{bad} failed")
    return 1 if bad else 0
