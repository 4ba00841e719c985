"""The planner's exact scalar over real plans (``repro.ir.affine``).

A value is an ``int`` whenever it is integral and a ``Fraction`` only
when a denominator survives.  ``tests/test_properties.py`` checks the
arithmetic against a ``Fraction``-only model; this file checks what a
cold plan actually stores, and what that does to a pickled prefix.
"""

from __future__ import annotations

import pickle
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from repro.align.pipeline import planning_records, solve_prefix
from repro.ir import AffineForm, Polynomial
from repro.lang import parse
from repro.lang.generate import generate_corpus

#: ``len(pickle.dumps(solve_prefix(program, default options), HIGHEST_PROTOCOL))``
#: at the parent commit ``8993010``, where every scalar was a ``Fraction``
#: (1 342 467 bytes in all; 1 292 967 when scalars became canonical).  A
#: prefix has carried its profile's pricing front since ``9fc4546``: the
#: pins hold for the prefix without it, and the front's own bytes are
#: bounded by the distinct moving cells it describes.
PREFIX_BYTES_BEFORE = {
    "cg_step": 45143, "conditional_update": 23232, "doubly_nested": 42630,
    "example1": 10019, "example2": 10001, "example3": 8588, "example5": 21586,
    "figure1": 190858, "figure4": 19836, "jacobi2d": 341081,
    "lookup_table": 10060, "lu_wavefront": 99847, "redblack1d": 20733,
    "skewed_wavefront": 102361, "stencil_sweep": 26243,
    "triangular_sections": 21042,
    "multiphase_0": 41604, "reduction_1": 16283, "shift1d_2": 28299,
    "spread_3": 19831, "strided_4": 9996, "twod_5": 33414, "wavefront_6": 28029,
    "multiphase_7": 41497, "reduction_8": 16313, "shift1d_9": 25657,
    "spread_10": 19832, "strided_11": 9998, "twod_12": 33210,
    "wavefront_13": 25244,
}  # fmt: skip

_LEAVES = (str, bytes, int, float, type(None), np.ndarray, type,
           types.FunctionType, types.BuiltinFunctionType, types.ModuleType)  # fmt: skip


def reachable(root, wanted: tuple) -> list:
    """Every instance of ``wanted`` reachable from ``root`` through
    containers, instance dicts and slots (each object once)."""
    seen: set[int] = set()
    found, stack = [], [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, wanted):
            found.append(obj)
        if isinstance(obj, _LEAVES + (Fraction,)):
            continue
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            stack.extend(getattr(obj, "__dict__", {}).values())
            for cls in type(obj).__mro__:
                for name in getattr(cls, "__slots__", ()):
                    if hasattr(obj, name):
                        stack.append(getattr(obj, name))
    return found


def is_canonical(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def stored_scalars(form) -> list:
    if isinstance(form, AffineForm):
        return [form._const, *form._coeffs.values()]
    return list(form._terms.values())


def distinct_moving_bytes(profile) -> int:
    """int64 bytes of what a compact front must keep, counted from the
    records alone: per template axis, four words per distinct moving
    ``(src, dst)`` pair (cells, weight, ``moved``); per element that
    moves on k ≥ 2 axes, ``2k + 1`` words per distinct row."""
    pairs: list[set] = [set() for _ in range(profile.template_rank)]
    joints: set = set()
    for r in profile.records:
        src = [a.ravel().tolist() for a in r.src]
        dst = [a.ravel().tolist() for a in r.dst]
        for e in range(r.elements):
            on = [j for j in range(len(r.axes)) if src[j][e] != dst[j][e]]
            for j in on:
                pairs[r.axes[j]].add((src[j][e], dst[j][e]))
            if len(on) > 1:
                joints.add(tuple((r.axes[j], src[j][e], dst[j][e]) for j in on))
    return 32 * sum(map(len, pairs)) + sum(8 * (2 * len(row) + 1) for row in joints)


def _programs():
    corpus = Path(__file__).parent.parent / "benchmarks" / "perf" / "corpus"
    for path in sorted(corpus.glob("*.dp")):
        yield pytest.param(lambda p=path: parse(p.read_text(), name=p.stem), id=path.stem)
    for sc in generate_corpus(14, seed=0):
        yield pytest.param(sc.parse, id=sc.name)


@pytest.mark.parametrize("make", _programs())
def test_a_solved_prefix_stores_canonical_scalars_and_pickles_no_larger(make, request):
    options, _ = planning_records()
    prefix = solve_prefix(make(), options)
    # The three places a plan keeps its affine forms, by name ...
    named = [
        reachable(prefix.get("plan").alignments, (AffineForm,)),
        reachable([(e.space, e.weight) for e in prefix.get("adg").edges], (AffineForm, Polynomial)),
        reachable(prefix.get("skeletons"), (AffineForm,)),
    ]
    assert all(named), [len(forms) for forms in named]
    # ... and everything else the context holds (ports, offsets, profile).
    forms = reachable(prefix, (AffineForm, Polynomial))
    assert {id(f) for part in named for f in part} <= {id(f) for f in forms}
    bad = [f for f in forms if not all(is_canonical(c) for c in stored_scalars(f))]
    assert not bad, bad[:5]
    # No integral Fraction anywhere else either (costs, cut values, moments).
    assert [x for x in reachable(prefix, (Fraction,)) if x.denominator == 1] == []
    name = request.node.callspec.id
    profile = prefix.get("profile")
    front, profile.front = profile.front, None
    try:
        size = len(pickle.dumps(prefix, protocol=pickle.HIGHEST_PROTOCOL))
    finally:
        profile.front = front
    assert size <= PREFIX_BYTES_BEFORE[name], (name, size)
    front_bytes = len(pickle.dumps(front, protocol=pickle.HIGHEST_PROTOCOL))
    assert front_bytes <= distinct_moving_bytes(profile) + 1024, (name, front_bytes)
    # What was stored is what loads.
    again = pickle.loads(pickle.dumps(prefix, protocol=pickle.HIGHEST_PROTOCOL))
    assert again.get("plan").alignments == prefix.get("plan").alignments
    assert str(again.get("total_cost")) == str(prefix.get("total_cost"))


def test_a_cold_plan_of_jacobi2d_builds_no_form_around_an_integral_fraction(
    corpus_kernels, monkeypatch
):
    """Every ``AffineForm`` / ``Polynomial`` constructed on the way to a
    plan — not only the ones the plan keeps — stores canonical scalars."""
    from repro import cachestats
    from repro.align.pipeline import align_and_distribute

    built: list = []
    for cls in (AffineForm, Polynomial):
        init = cls.__init__

        def recording(self, *args, _init=init, **kwargs):
            _init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(cls, "__init__", recording)
    cachestats.clear_caches()
    plan = align_and_distribute(parse(corpus_kernels["jacobi2d"], name="jacobi2d"), nprocs=16)
    # 806 forms (1 634 before the axis/stride labeling numbered its
    # skeletons and ran each label map once per skeleton).
    assert plan.distribution is not None and len(built) > 500
    bad = [f for f in built if not all(is_canonical(c) for c in stored_scalars(f))]
    assert not bad, bad[:5]
    assert not any(isinstance(c, float) for f in built for c in stored_scalars(f))


#: Bytes of the prefix entry a ``PlanService`` stored for each kernel at
#: ``9fc4546``, where a prefix stored after its first suffix carried the
#: padded ``(records, max_len)`` front tensors.
PADDED_PREFIX_ENTRY_BYTES = {"figure1": 671438, "jacobi2d": 960659, "skewed_wavefront": 509268}


def test_the_largest_stored_prefixes_are_at_least_halved(corpus_kernels, tmp_path):
    from repro.serve import PlanService, ServeRequest

    with PlanService(cache_dir=str(tmp_path)) as svc:
        for name in PADDED_PREFIX_ENTRY_BYTES:
            assert svc.handle(ServeRequest(name, corpus_kernels[name], nprocs=16)).ok
    stored = {
        pickle.loads(path.read_bytes())["payload"].get("program").name: path.stat().st_size
        for path in (tmp_path / "prefix").glob("*.pkl")
    }
    assert stored.keys() == PADDED_PREFIX_ENTRY_BYTES.keys()
    for name, before in PADDED_PREFIX_ENTRY_BYTES.items():
        assert 2 * stored[name] <= before, (name, stored[name])
