"""The class walk ``repro.distrib.costmodel._edge_contribution`` is
checked against: one edge compiled the way comm-profile compiled it
before its class tests were compiled per edge.

Points are grouped by the values of every form the move is a function
of, exactly as the fast path groups them; then, per class, the per-axis
keys are built, the window is read off both ends' keys axis by axis,
and the coordinate arrays of a class whose numbers differ come from the
simulator's :func:`repro.machine.comm._axis_positions` at one point of
the class (through ``AffineForm.evaluate``, without the position memo).
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from repro.distrib.costmodel import EdgeContribution, _key_forms, _walked_livs
from repro.ir.affine import scalar
from repro.machine.comm import _axis_positions


def reference_edge_contribution(rank, src, dst, space, tail) -> EdgeContribution:
    if space.is_empty():
        return EdgeContribution()
    walk = space.projected(_walked_livs(tail.shape, src, dst))
    mult = space.count // walk.count
    position = {liv: j for j, liv in enumerate(walk.livs)}
    slot_of = {}
    table = []
    for what, form in _key_forms(tail.shape, src, dst):
        if form in slot_of:
            continue
        try:
            terms = tuple((position[v], c) for v, c in form.coeffs.items())
        except KeyError as exc:
            raise KeyError(
                f"unbound LIV {exc.args[0].name} in evaluation"
            ) from None
        slot_of[form] = len(table)
        table.append((what, form, form.const, terms))
    classes = {}
    for point in product(*walk.triplets):
        vals = []
        for what, form, v, terms in table:
            for j, c in terms:
                v += c * point[j]
            if type(v) is not int:
                v = scalar(v)
            if type(v) is not int or (v < 0 and what == "extent"):
                raise ValueError(
                    f"{what} {form} evaluates to {v} at "
                    f"{dict(zip(walk.livs, point))}"
                )
            vals.append(v)
        seen = classes.setdefault(tuple(vals), [point, 0])
        seen[1] += mult
    shape_slots = [slot_of[ext] for ext in tail.shape]
    key_slots = [
        [
            "R"
            if ax.is_replicated
            else (ax.array_axis, slot_of[ax.stride], slot_of[ax.offset])
            if ax.is_body
            else (None, slot_of[ax.offset])
            for ax in align.axes
        ]
        for align in (src, dst)
    ]
    axes_differ = src.axis_signature() != dst.axis_signature()
    pairs = list(zip(src.axes, dst.axes))
    broadcasts = sum(
        a2.is_replicated and not a1.is_replicated for a1, a2 in pairs
    )
    active = tuple(
        t
        for t, (a1, a2) in enumerate(pairs)
        if not (a1.is_replicated or a2.is_replicated)
    )
    body = [t for t, ax in enumerate(src.axes) if ax.is_body]
    elements = general_moved = general_moves = broadcast = 0
    lo = [None] * rank
    hi = [None] * rank
    distinct = {}
    for vals, (point, moves) in classes.items():
        shape = tuple([vals[i] for i in shape_slots])
        src_key, dst_key = (
            tuple(
                [
                    p if p == "R" else (p[0], *[vals[i] for i in p[1:]])
                    for p in parts
                ]
            )
            for parts in key_slots
        )
        n = math.prod(shape)
        elements += n * moves
        for key in (src_key, dst_key) if n else ():
            for t, part in enumerate(key):
                if part == "R":
                    continue
                if part[0] is None:
                    a_lo = a_hi = part[1]
                else:
                    axis, stride, off = part
                    last = off + stride * (shape[axis] if shape else 1)
                    a_lo, a_hi = sorted((off + stride, last))
                lo[t] = a_lo if lo[t] is None else min(lo[t], a_lo)
                hi[t] = a_hi if hi[t] is None else max(hi[t], a_hi)
        if axes_differ or any(src_key[t][1] != dst_key[t][1] for t in body):
            general_moved += n * moves
            general_moves += moves
            continue
        broadcast += broadcasts * n * moves
        if all(src_key[t] == dst_key[t] for t in active):
            continue
        env = dict(zip(walk.livs, point))
        src_pos = _axis_positions(src, shape, env)
        dst_pos = _axis_positions(dst, shape, env)
        s = tuple(np.ascontiguousarray(src_pos[t]) for t in active)
        d = tuple(np.ascontiguousarray(dst_pos[t]) for t in active)
        if all(np.array_equal(a, b) for a, b in zip(s, d)):
            continue
        key = (
            active,
            tuple(a.shape for a in s),
            tuple(a.tobytes() for a in s),
            tuple(a.tobytes() for a in d),
        )
        seen = distinct.get(key)
        if seen is None:
            for a in s + d:
                a.setflags(write=False)
            distinct[key] = [active, s, d, moves]
        else:
            seen[3] += moves
    return EdgeContribution(
        elements,
        tuple(None if l is None else (l, h) for l, h in zip(lo, hi)),
        general_moved,
        general_moves,
        broadcast,
        tuple((key, *move) for key, move in distinct.items()),
    )
