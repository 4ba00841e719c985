"""The five mobile-offset algorithms of Section 4.2.

All five share the RLP core (:mod:`repro.align.offset_static`); they
differ only in how each edge's iteration space is partitioned into
subranges, and whether the partition is iterated:

1. **unrolling** — every iteration its own subrange; exact but the LP
   grows with the iteration count;
2. **state-space search** — one subrange, then steepest descent on the
   exact cost from the rounded solution (at most
   :data:`STATE_SPACE_PASSES` passes);
3. **tracking zero crossings** — two equal subranges, then move each
   edge's boundary to its span's zero crossing and re-solve until
   quiescent (convergence not guaranteed; capped at
   :data:`REFINE_ROUNDS` solves);
4. **recursive refinement** — one subrange, then split any subrange in
   which the solved span changes sign and re-solve, until clean,
   stalled or :data:`REFINE_ROUNDS` solves;
5. **fixed partitioning** — m equal subranges (m = 3 by default); the
   paper's recommended compromise, within ``1 + 2/m**2`` of optimal.

:data:`ALGORITHMS` names each with its callable and its own keywords —
only fixed partitioning takes one, ``m``; the other caps are constants.
:func:`check_algorithm` checks a name and keywords against it when the
options record is built (``AlignOptions.of``), before anything is solved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping, MutableMapping, NamedTuple

from ..adg.graph import ADG
from ..ir.affine import AffineForm, Scalar
from ..ir.itspace import IterationSpace
from ..ir.symbols import LIV
from .cost import offset_only_cost
from .offset_static import (
    OffsetLPStats,
    OffsetMap,
    OffsetProblem,
    PartitionPlan,
    ReplicationLabels,
    edge_is_offset_costed,
)
from .position import Alignment
from .span import has_sign_change, refine_space_at_crossings

Skeleton = Mapping[str, Alignment]

#: Descent passes of the state-space search over the rounded solution.
STATE_SPACE_PASSES = 4
#: LP solves, the first included, that zero-crossing tracking and
#: recursive refinement make at most.
REFINE_ROUNDS = 8


@dataclass
class MobileOffsetResult:
    """One algorithm's offsets and their exact offset-only cost.

    ``priced_on`` is the graph, skeleton and replicated set the offsets
    were solved under.  ``cost`` is computed from it where it is first
    read, unless the algorithm priced the offsets while it searched.
    """

    algorithm: str
    offsets: OffsetMap
    lp_stats: list[OffsetLPStats] = field(default_factory=list)
    iterations: int = 1
    subranges_total: int = 0
    priced_on: tuple = field(default=(), repr=False, compare=False)

    @cached_property
    def cost(self) -> Scalar:
        return _exact_cost(*self.priced_on, self.offsets)

    @property
    def lp_vars_total(self) -> int:
        return sum(s.num_vars for s in self.lp_stats)


def _problem(
    adg: ADG, skeleton: Skeleton, static: bool, problem: OffsetProblem | None
) -> OffsetProblem:
    if problem is None:
        return OffsetProblem(adg, skeleton, static)
    if (
        problem.adg is not adg
        or problem.static != static
        or problem.skeleton != dict(skeleton)
    ):
        raise ValueError(
            "the compiled offset problem is of another graph, skeleton or mode"
        )
    return problem


def _count_subranges(plan: PartitionPlan) -> int:
    return sum(len(v) for v in plan.values())


def _exact_cost(
    adg: ADG,
    skeleton: Skeleton,
    replicated: ReplicationLabels | None,
    offsets: OffsetMap,
) -> Scalar:
    return offset_only_cost(adg, skeleton, offsets, set(replicated or ()))


def _edge_spans(
    adg: ADG,
    skeleton: Skeleton,
    offsets: OffsetMap,
    replicated: ReplicationLabels | None,
):
    """Yield (edge, axis, span) for every costed edge/axis pair."""
    rep = set(replicated or ())
    for e in adg.edges:
        for tau in range(adg.template_rank):
            if not edge_is_offset_costed(e, skeleton, tau, rep):
                continue
            span = offsets[(e.tail.key, tau)] - offsets[(e.head.key, tau)]
            yield e, tau, span


# ---------------------------------------------------------------------------
# 5. Fixed partitioning (the paper's recommendation)
# ---------------------------------------------------------------------------


def fixed_partitioning(
    adg: ADG,
    skeleton: Skeleton,
    m: int = 3,
    replicated: ReplicationLabels | None = None,
    static: bool = False,
    memo: MutableMapping | None = None,
    problem: OffsetProblem | None = None,
) -> MobileOffsetResult:
    """Partition every edge space into ``m`` equal subranges per axis and
    solve once.  Guaranteed within ``1 + 2/m**2`` of optimal."""
    problem = _problem(adg, skeleton, static, problem)
    plan = problem.partition(m)
    sol = problem.solve(plan, replicated, memo)
    return MobileOffsetResult(
        f"fixed(m={m})",
        sol.offsets,
        sol.stats,
        1,
        _count_subranges(plan),
        (adg, skeleton, replicated),
    )


# ---------------------------------------------------------------------------
# 1. Unrolling (exact, large LP)
# ---------------------------------------------------------------------------


def unrolling(
    adg: ADG,
    skeleton: Skeleton,
    replicated: ReplicationLabels | None = None,
    static: bool = False,
    memo: MutableMapping | None = None,
    problem: OffsetProblem | None = None,
) -> MobileOffsetResult:
    """Every iteration its own subrange: the exact mobile-offset optimum
    (over affine alignments), at the price of an LP that scales with the
    iteration count."""
    problem = _problem(adg, skeleton, static, problem)
    plan = problem.partition(None)
    sol = problem.solve(plan, replicated, memo)
    return MobileOffsetResult(
        "unrolling",
        sol.offsets,
        sol.stats,
        1,
        _count_subranges(plan),
        (adg, skeleton, replicated),
    )


# ---------------------------------------------------------------------------
# 2. State-space search
# ---------------------------------------------------------------------------


def state_space_search(
    adg: ADG,
    skeleton: Skeleton,
    replicated: ReplicationLabels | None = None,
    static: bool = False,
    memo: MutableMapping | None = None,
    problem: OffsetProblem | None = None,
) -> MobileOffsetResult:
    """One-subrange RLP seed, then steepest descent on the exact cost.

    The descent perturbs each offset coefficient slot by +-1 and keeps
    the per-node constraint structure intact by re-deriving dependent
    ports — implemented here as a coordinate descent over the rounded
    solution's free slots, since node-derived slots move rigidly with
    their roots.
    """
    problem = _problem(adg, skeleton, static, problem)
    plan = problem.partition(1)
    sol = problem.solve(plan, replicated, memo)
    offsets = dict(sol.offsets)
    best = _exact_cost(adg, skeleton, replicated, offsets)
    # Group ports per node: moving a node's ports together preserves all
    # intra-node relations (they are relative).
    passes = 0
    for _ in range(STATE_SPACE_PASSES):
        passes += 1
        improved = False
        for n in adg.nodes:
            for tau in range(adg.template_rank):
                slots: list[LIV | None] = [None]
                for p in n.ports:
                    for liv in p.space.livs:
                        if liv not in slots:
                            slots.append(liv)
                for slot in slots:
                    for delta in (1, -1):
                        trial = dict(offsets)
                        for p in n.ports:
                            key = (p.key, tau)
                            form = trial[key]
                            if slot is None:
                                trial[key] = form + delta
                            elif slot in p.space.livs:
                                trial[key] = form + AffineForm.variable(slot, delta)
                        c = _exact_cost(adg, skeleton, replicated, trial)
                        if c < best:
                            best = c
                            offsets = trial
                            improved = True
                            break
        if not improved:
            break
    result = MobileOffsetResult(
        "state-space",
        offsets,
        sol.stats,
        passes,
        _count_subranges(plan),
        (adg, skeleton, replicated),
    )
    result.cost = best  # priced by the search
    return result


# ---------------------------------------------------------------------------
# 3. Tracking zero crossings
# ---------------------------------------------------------------------------


def tracking_zero_crossings(
    adg: ADG,
    skeleton: Skeleton,
    replicated: ReplicationLabels | None = None,
    static: bool = False,
    memo: MutableMapping | None = None,
    problem: OffsetProblem | None = None,
) -> MobileOffsetResult:
    """Two equal subranges per edge; then move subrange boundaries to the
    solved spans' zero crossings and re-solve until the cost stops
    improving (convergence is not guaranteed; the paper says so)."""
    problem = _problem(adg, skeleton, static, problem)
    plan = problem.partition(2)
    sol = problem.solve(plan, replicated, memo)
    best_offsets = sol.offsets
    best = _exact_cost(adg, skeleton, replicated, best_offsets)
    stats = list(sol.stats)
    iters = 1
    for _ in range(REFINE_ROUNDS - 1):
        newplan: PartitionPlan = dict(plan)
        changed = False
        for e, tau, span in _edge_spans(adg, skeleton, best_offsets, replicated):
            if span == AffineForm(0) or not has_sign_change(span, e.space):
                continue
            parts = refine_space_at_crossings(span, e.space)
            if len(parts) > 1:
                newplan[e.eid] = parts
                changed = True
        if not changed:
            break
        iters += 1
        plan = newplan
        sol = problem.solve(plan, replicated, memo)
        stats.extend(sol.stats)
        c = _exact_cost(adg, skeleton, replicated, sol.offsets)
        if c < best:
            best = c
            best_offsets = sol.offsets
        else:
            break
    result = MobileOffsetResult(
        "zero-crossing",
        best_offsets,
        stats,
        iters,
        _count_subranges(plan),
        (adg, skeleton, replicated),
    )
    result.cost = best  # priced by the search
    return result


# ---------------------------------------------------------------------------
# 4. Recursive refinement
# ---------------------------------------------------------------------------


def recursive_refinement(
    adg: ADG,
    skeleton: Skeleton,
    replicated: ReplicationLabels | None = None,
    static: bool = False,
    memo: MutableMapping | None = None,
    problem: OffsetProblem | None = None,
) -> MobileOffsetResult:
    """One subrange; split any subrange whose solved span changes sign at
    the crossing; re-solve; repeat until clean, stalled, or capped."""
    problem = _problem(adg, skeleton, static, problem)
    plan: PartitionPlan = problem.partition(1)
    sol = problem.solve(plan, replicated, memo)
    best_offsets = sol.offsets
    best = _exact_cost(adg, skeleton, replicated, best_offsets)
    stats = list(sol.stats)
    iters = 1
    for _ in range(REFINE_ROUNDS - 1):
        newplan: PartitionPlan = {}
        changed = False
        span_by_edge: dict[tuple[int, int], AffineForm] = {}
        for e, tau, span in _edge_spans(adg, skeleton, best_offsets, replicated):
            span_by_edge[(e.eid, tau)] = span
        for e in adg.edges:
            parts = plan.get(e.eid, [e.space])
            refined: list[IterationSpace] = []
            for sub in parts:
                split = False
                for tau in range(adg.template_rank):
                    span = span_by_edge.get((e.eid, tau))
                    if span is None or span == AffineForm(0):
                        continue
                    if has_sign_change(span, sub):
                        refined.extend(refine_space_at_crossings(span, sub))
                        split = True
                        changed = True
                        break
                if not split:
                    refined.append(sub)
            newplan[e.eid] = refined
        if not changed:
            break
        iters += 1
        plan = newplan
        sol = problem.solve(plan, replicated, memo)
        stats.extend(sol.stats)
        c = _exact_cost(adg, skeleton, replicated, sol.offsets)
        if c < best:
            best = c
            best_offsets = sol.offsets
        else:
            break
    result = MobileOffsetResult(
        "recursive-refinement",
        best_offsets,
        stats,
        iters,
        _count_subranges(plan),
        (adg, skeleton, replicated),
    )
    result.cost = best  # priced by the search
    return result


class Algorithm(NamedTuple):
    """One Section 4.2 algorithm: the callable, and the keywords it takes
    beyond the ones :func:`solve_mobile_offsets` passes every algorithm."""

    run: Callable[..., MobileOffsetResult]
    keywords: tuple[str, ...] = ()


ALGORITHMS = {
    "unrolling": Algorithm(unrolling),
    "state-space": Algorithm(state_space_search),
    "zero-crossing": Algorithm(tracking_zero_crossings),
    "recursive-refinement": Algorithm(recursive_refinement),
    "fixed": Algorithm(fixed_partitioning, ("m",)),
}

#: What :func:`solve_mobile_offsets` passes every algorithm itself.
_SOLVER_KEYWORDS = ("replicated", "static", "memo", "problem")


def check_algorithm(name: str, keywords: Iterable[str] = ()) -> Algorithm:
    """The :data:`ALGORITHMS` entry for ``name``, checked against the
    algorithm keywords a caller gives it — ``ValueError`` for an unknown
    name, ``TypeError`` for a keyword the solver already passes or the
    algorithm does not take, in the words of the failing call."""
    try:
        alg = ALGORITHMS[name]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}"
        ) from None
    for key in sorted(keywords):
        if key in _SOLVER_KEYWORDS:
            raise TypeError(
                f"{__name__}.solve_mobile_offsets() got multiple values for "
                f"keyword argument {key!r}"
            )
        if key not in alg.keywords:
            raise TypeError(
                f"{alg.run.__name__}() got an unexpected keyword argument {key!r}"
            )
    return alg


def solve_mobile_offsets(
    adg: ADG,
    skeleton: Skeleton,
    algorithm: str = "fixed",
    replicated: ReplicationLabels | None = None,
    **kw,
) -> MobileOffsetResult:
    """Entry point: run one of the five Section 4.2 algorithms.

    ``problem`` (keyword), an :class:`OffsetProblem` compiled for this
    graph, skeleton and ``static`` flag, carries its compiled rows and
    solved axes from one call to the next; without it each call
    compiles its own.
    """
    run = check_algorithm(algorithm).run
    return run(adg, skeleton, replicated=replicated, **kw)
