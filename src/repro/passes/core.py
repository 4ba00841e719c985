"""The pass-manager core: passes, contexts, and the pipeline driver.

The paper's phases (ADG build → axis/stride → replication ↔ mobile
offsets → assembly → distribution) used to be hardwired inside one
monolithic driver.  Here each phase is a :class:`Pass` — a
named unit declaring the artifact keys it ``requires`` and ``provides``
— and the passes form one fixed chain
(:data:`~repro.passes.registry.PASSES`).  A :class:`Pipeline` runs the
chain up to the last pass that provides a goal, instruments each run
(wall time and a structured trace event; the pass's span holds its
cache-counter deltas), and *reuses* artifacts whose inputs have not changed.

Reuse is what makes machine sweeps cheap: a :class:`PlanContext` holds
typed artifacts versioned by a store-time clock.  Only the three planner
inputs (:data:`INPUT_KEYS`: ``program``, ``align_options``, ``machine``)
are fingerprinted by content: those fingerprints are the serve cache's
keys, and a machine re-stored with equal content keeps what was solved
from it.  Every other artifact has no fingerprint and is identified by
its version: a pass is deterministic in its inputs, so hashing what it
derives would decide nothing.  ``ctx.fork()`` shares the solved
artifacts; re-running the pipeline on the fork after replacing only the
machine artifact re-executes just the machine-dependent suffix — every
machine-independent pass is skipped with a ``reuse`` trace event, and
the shared prefix objects (ADG, alignments, profile) keep their
identity across the sweep.

All per-port artifacts are keyed by the stable ``Port.key`` (never
``id(port)``), so a context prefix pickles across process boundaries —
:mod:`repro.serve` ships exactly these prefixes back from its worker
pool and keeps them in its cache.

A content fingerprint is the digest of a canonical rendering
(:func:`_stable_repr`) of atoms, tuples, lists and frozen dataclasses,
whatever their size; the parser bounds how deep an expression nests.
A program holds many affine forms, so ``AffineForm`` has its
own renderer (:func:`_render_affine`), which alone owns the form's
format: the constant and the coefficient map, every scalar written as a
``Fraction``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from ..ir.affine import AffineForm
from ..obs import spans as obs


class PipelineError(Exception):
    """A pass that did not provide every artifact it declared."""


class MissingArtifactError(KeyError):
    """A required artifact is absent from the context.

    Carries enough context to be actionable: the missing key, who asked
    for it, and what *is* available.  Every pass before the requester
    has run, so a key still missing is one no pass provides.
    """

    def __init__(
        self,
        key: str,
        requester: str | None = None,
        available: Iterable[str] = (),
        goal: bool = False,
    ) -> None:
        self.key = key
        self.requester = requester
        self.available = sorted(available)
        have = ", ".join(self.available) or "none"
        if goal:
            # A goal must be *producible* by a pass of the chain; context
            # contents are irrelevant (the check comes before any run).
            msg = (
                f"goal {key!r} is not a producible artifact of this "
                f"pipeline; producible goals: {have}"
            )
        else:
            who = f" (required by pass {requester!r})" if requester else ""
            msg = (
                f"missing artifact {key!r}{who}; no registered pass provides "
                f"it — supply it as a pipeline input (available: {have})"
            )
        super().__init__(msg)

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message readable
        return self.args[0]


class _NotContentAddressable(Exception):
    pass


#: Renders one value of a given exact type.
_Renderer = Callable[[Any], str]

#: ``type(value)`` → how values of exactly that type are rendered.  It
#: holds code, never a rendered value: what a type resolves to depends
#: on the type alone (:func:`_resolve_renderer`).
_RENDERERS: dict[type, _Renderer] = {}


def _render_atom(value: Any) -> str:
    return repr(value)


def _render_sequence(value: Any) -> str:
    inner = ",".join([_stable_repr(v) for v in value])
    return f"{type(value).__name__}({inner})"


def _render_opaque(value: Any) -> str:
    raise _NotContentAddressable


def _render_affine(value: AffineForm) -> str:
    """An ``AffineForm`` as ``AffineForm<tuple(const,dict(liv:coeff,..))>``,
    every scalar written as ``repr(Fraction(x))`` (an on-disk format
    older than the canonical scalar), without building a ``Fraction``
    per scalar."""
    items = sorted(
        [(_stable_repr(liv), _fraction_repr(c)) for liv, c in value._coeffs.items()]
    )
    inner = ",".join([f"{k}:{v}" for k, v in items])
    return f"AffineForm<tuple({_fraction_repr(value._const)},dict({inner}))>"


def _fraction_repr(x: int | Fraction) -> str:
    """``repr(Fraction(x))`` of a canonical scalar."""
    if type(x) is int:
        return f"Fraction({x}, 1)"
    return f"Fraction({x.numerator}, {x.denominator})"


# The types the precedence of the scheme does not cover.
_RENDERERS[AffineForm] = _render_affine


def _resolve_renderer(tp: type) -> _Renderer:
    """The renderer for values whose exact type is ``tp``.

    The precedence is part of the fingerprint scheme: atoms, then
    tuple/list, then frozen dataclass, and otherwise not
    content-addressable.  A subclass renders as its first matching base
    does, under its own name (a ``NamedTuple`` as a tuple, an
    ``IntEnum`` member by its ``repr``).
    """
    if tp is type(None) or issubclass(tp, (bool, int, float, str, Fraction)):
        return _render_atom
    if issubclass(tp, (tuple, list)):
        return _render_sequence
    if dataclasses.is_dataclass(tp) and tp.__dataclass_params__.frozen:
        qualname = tp.__qualname__
        names = tuple(f.name for f in dataclasses.fields(tp))

        def render_dataclass(value: Any) -> str:
            fields = ",".join([f"{n}={_stable_repr(getattr(value, n))}" for n in names])
            return f"{qualname}({fields})"

        return render_dataclass
    return _render_opaque


def _stable_repr(value: Any) -> str:
    """A canonical string for values whose *content* fully determines it.

    Only what the planner inputs are made of qualifies: primitives,
    tuples and lists of such values, frozen dataclasses (``Program`` and
    its AST, ``MachineSpec``, ``AlignOptions``, ``LIV``, ...) and
    ``AffineForm`` (its own renderer).  Everything else — in particular
    objects with summary-style reprs like ``<ADG main: 4 nodes...>``,
    which do not distinguish distinct contents — raises
    :class:`_NotContentAddressable`.  How a value is rendered is
    resolved once per exact type (:data:`_RENDERERS`).
    """
    tp = type(value)
    render = _RENDERERS.get(tp)
    if render is None:
        render = _RENDERERS[tp] = _resolve_renderer(tp)
    return render(value)


def content_fingerprint(value: Any) -> Optional[str]:
    """A short content fingerprint, or ``None`` when the value is not
    content-addressable (an opaque object, or nesting too deep to walk).

    This is the public face of the fingerprinting scheme: two values
    with the same fingerprint have the same canonical content, across
    processes and machines.  Persistent caches (:mod:`repro.serve`) key
    on exactly these — a ``None`` here must never become a cache key.
    """
    try:
        text = f"{type(value).__name__}|{_stable_repr(value)}"
    except Exception:  # noqa: BLE001 - fingerprinting must never fail
        return None
    return hashlib.sha1(text.encode()).hexdigest()[:12]


#: The artifacts fingerprinted by content: the planner's three inputs.
INPUT_KEYS = frozenset({"program", "align_options", "machine"})


class SubproblemMemo:
    """Results of solver subproblems, by content key, in layers.

    A key is a tuple whose first element names the kind of subproblem
    (``"edge"``: one ADG edge compiled into the comm profile;
    ``"offset_lp"``: one numeric offset LP) and whose rest determines
    the result completely; a value is immutable and never ``None``.
    Solvers use it as a plain mapping — ``get`` then ``__setitem__`` —
    so a ``dict`` does in its place.

    Writes go to the memo's own layer.  Reads fall through to the
    layers of the contexts it descends from (:meth:`child`), which it
    can never write: a replan or fork reads what its base solved and
    leaves the base exactly as it found it.  ``hits`` / ``misses`` count
    this memo's own lookups per kind.

    The memo has no say in any reuse decision.  A lookup that misses
    costs a solve; it cannot change an answer.
    """

    #: Ancestor layers a child keeps: a chain of replans, each the next
    #: one's base, must not pin every ancestor's entries for ever.
    MAX_PARENTS = 8

    __slots__ = ("_own", "_parents", "hits", "misses")

    def __init__(self, parents: tuple[dict, ...] = ()) -> None:
        self._own: dict[tuple, Any] = {}
        self._parents = parents
        self.hits: dict[str, int] = {}
        self.misses: dict[str, int] = {}

    def get(self, key: tuple, default: Any = None) -> Any:
        hit = self._own.get(key)
        if hit is None:
            for layer in self._parents:
                hit = layer.get(key)
                if hit is not None:
                    break
            else:
                self.misses[key[0]] = self.misses.get(key[0], 0) + 1
                return default
        self.hits[key[0]] = self.hits.get(key[0], 0) + 1
        return hit

    def __setitem__(self, key: tuple, value: Any) -> None:
        self._own[key] = value

    def __len__(self) -> int:
        """Entries of its own layer (inherited ones are not counted)."""
        return len(self._own)

    def child(self) -> "SubproblemMemo":
        """An empty memo that reads through to this one's entries."""
        return SubproblemMemo((self._own, *self._parents)[: self.MAX_PARENTS])


@dataclass(frozen=True)
class Artifact:
    """One stored artifact: value plus versioning metadata."""

    key: str
    value: Any
    version: int
    #: The content digest of a planner input (:data:`INPUT_KEYS`);
    #: ``None`` for everything else, which ``version`` identifies.
    fingerprint: Optional[str]


class PlanContext:
    """Typed artifact store threaded through the pipeline.

    Artifacts are immutable records: ``put`` always creates a new
    :class:`Artifact` with a fresh version from the context clock.  The
    trace is a list of structured per-pass event dicts, and the ledger
    records the input signature each pass last ran under — the basis of
    the pipeline's reuse decision.

    Beside the artifacts the context carries a :class:`SubproblemMemo`:
    the solvers fill it while the context is solved, and a ``fork()`` or
    a replan of the context reads it.  It is in no pass's ``requires``
    and is not pickled.
    """

    def __init__(self) -> None:
        self._artifacts: dict[str, Artifact] = {}
        self._clock = 0
        # pass name -> {required key -> (version, fingerprint) at last run}
        self._ledger: dict[str, dict[str, tuple[int, Optional[str]]]] = {}
        self.trace: list[dict] = []
        self._current_event: dict | None = None
        self.memo = SubproblemMemo()
        # What :mod:`repro.passes.delta` derives from this context as the
        # *base* of a replan (its two projections): computed once, however
        # many edits are replanned against it.
        self._delta_base_memo: dict = {}

    # -- artifact access ---------------------------------------------------

    def put(
        self, key: str, value: Any, fingerprint: Optional[str] = None
    ) -> Artifact:
        """Store ``value`` under ``key``.

        An input (:data:`INPUT_KEYS`) is fingerprinted by content, or
        takes ``fingerprint`` from a caller that already knows it (the
        delta engine, which rendered the program for its diff); the
        caller owns the claim that the value's content matches.  Every
        other artifact has no fingerprint: its version identifies it.
        """
        self._clock += 1
        if key not in INPUT_KEYS:
            fingerprint = None
        elif fingerprint is None:
            fingerprint = content_fingerprint(value)
        art = Artifact(key, value, self._clock, fingerprint)
        self._artifacts[key] = art
        return art

    def get(self, key: str) -> Any:
        try:
            return self._artifacts[key].value
        except KeyError:
            raise MissingArtifactError(
                key, available=self._artifacts
            ) from None

    def artifact(self, key: str) -> Artifact:
        if key not in self._artifacts:
            raise MissingArtifactError(key, available=self._artifacts)
        return self._artifacts[key]

    def has(self, key: str) -> bool:
        return key in self._artifacts

    def keys(self) -> list[str]:
        return sorted(self._artifacts)

    def __contains__(self, key: str) -> bool:
        return key in self._artifacts

    # -- trace annotation --------------------------------------------------

    def annotate(self, **extras: Any) -> None:
        """Attach extra fields (e.g. fixpoint rounds) to the trace event
        of the pass currently running; no-op outside a pass."""
        if self._current_event is not None:
            self._current_event.update(extras)
        obs.annotate(**extras)  # mirrored onto the active span, if tracing

    # -- prefix reuse ------------------------------------------------------

    def fork(self) -> "PlanContext":
        """A child context sharing every solved artifact.

        The child sees the parent's artifacts and run ledger (so
        unchanged passes are reused with their object identity intact)
        but has its own trace and an independent future: ``put`` on the
        child never mutates the parent.  Its memo reads the parent's
        entries and keeps its own to itself.
        """
        child = PlanContext()
        child._artifacts = dict(self._artifacts)
        child._clock = self._clock
        child._ledger = {name: dict(sig) for name, sig in self._ledger.items()}
        child.memo = self.memo.child()
        return child

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_current_event"] = None  # never ship a live event handle
        # Memos are recomputable and would only grow a cache entry.
        del state["memo"], state["_delta_base_memo"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.memo = SubproblemMemo()
        self._delta_base_memo = {}

    def __repr__(self) -> str:
        return f"<PlanContext {len(self._artifacts)} artifacts: {', '.join(self.keys())}>"


class Pass:
    """One named pipeline stage.

    Subclasses set ``name``, ``requires`` and ``provides`` (artifact key
    tuples) and implement :meth:`run`, reading inputs with ``ctx.get``
    and storing every declared output with ``ctx.put``.  A pass must be
    deterministic in its declared inputs — that is what makes the
    pipeline's reuse decision sound.  ``kind`` is the column
    :meth:`Pipeline.explain` shows.
    """

    name: str = "pass"
    kind: str = "pass"
    requires: tuple[str, ...] = ()
    provides: tuple[str, ...] = ()

    def run(self, ctx: PlanContext) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.name}: "
            f"{', '.join(self.requires) or '∅'} -> {', '.join(self.provides)}>"
        )


def _through(goal: str | Sequence[str]) -> Sequence[Pass]:
    """The prefix of the chain that ends at the last pass providing a
    ``goal`` artifact.  Each pass requires what the one before it
    provides, so that prefix is exactly what the goal needs."""
    from .registry import PASSES

    goals = [goal] if isinstance(goal, str) else list(goal)
    end = {key: i for i, p in enumerate(PASSES) for key in p.provides}
    for g in goals:
        if g not in end:
            raise MissingArtifactError(g, available=end, goal=True)
    return PASSES[: max([end[g] + 1 for g in goals], default=0)]


class Pipeline:
    """The instrumented driver over the fixed chain of passes.

    :meth:`run` executes the chain up to the last pass that provides a
    ``goal`` artifact, skipping any pass whose outputs are already
    present and whose recorded input signature still matches — by
    version, or for a planner input by content fingerprint — so forked
    contexts re-execute only what actually changed.

    A pipeline holds no state at all — what happened is on the context
    (``ctx.trace``) — so any instance serves every caller and thread.
    """

    # -- execution ---------------------------------------------------------

    def run(self, ctx: PlanContext, goal: str | Sequence[str]) -> PlanContext:
        for p in _through(goal):
            for req in p.requires:
                if not ctx.has(req):
                    raise MissingArtifactError(
                        req, requester=p.name, available=ctx.keys()
                    )
            signature = {
                req: (ctx.artifact(req).version, ctx.artifact(req).fingerprint)
                for req in p.requires
            }
            if self._reusable(ctx, p, signature):
                if p.name not in ctx._ledger:
                    # Externally supplied outputs are honored, but pinned
                    # to the inputs current *now*: if e.g. the program is
                    # later replaced, a supplied TypeInfo goes stale and
                    # the pass re-runs instead of serving stale artifacts.
                    ctx._ledger[p.name] = signature
                obs.instant(f"pass:{p.name}", event="reuse")
                ctx.trace.append(
                    {
                        "pass": p.name,
                        "event": "reuse",
                        "seconds": 0.0,
                        "provides": p.provides,
                    }
                )
                continue
            event: dict = {"pass": p.name, "event": "run"}
            ctx._current_event = event
            t0 = time.perf_counter()
            try:
                # The span subsumes the trace event when tracing is on:
                # same name and wall time, plus the pass's cache-counter
                # deltas, as a node in the hierarchical trace (nested
                # under whatever span the caller — CLI root, batch task —
                # has open).
                with obs.span(f"pass:{p.name}", kind="pass"):
                    p.run(ctx)
            finally:
                event["seconds"] = time.perf_counter() - t0
                ctx._current_event = None
            missing = [key for key in p.provides if not ctx.has(key)]
            if missing:
                raise PipelineError(
                    f"pass {p.name!r} declared but did not provide: "
                    f"{', '.join(missing)}"
                )
            event["provides"] = p.provides
            ctx.trace.append(event)
            ctx._ledger[p.name] = signature
        return ctx

    @staticmethod
    def _reusable(
        ctx: PlanContext,
        p: Pass,
        signature: Mapping[str, tuple[int, Optional[str]]],
    ) -> bool:
        if not all(ctx.has(key) for key in p.provides):
            return False
        last = ctx._ledger.get(p.name)
        if last is None:
            # Outputs present but the pass never ran in this lineage:
            # they were supplied externally (e.g. a precomputed TypeInfo).
            # Honored — and the caller pins the current input signature
            # so a later input change invalidates them.
            return True
        if set(last) != set(signature):
            return False
        for req, (version, fp) in signature.items():
            lv, lfp = last[req]
            if version == lv:
                continue
            if fp is not None and fp == lfp:
                continue  # an input re-stored with identical content
            return False
        return True

    # -- introspection -----------------------------------------------------

    def explain(self, goal: str | Sequence[str], delta: Any = None) -> str:
        """Render the passes the given goal would execute.

        ``delta`` (a :class:`~repro.passes.delta.DeltaReport`, or any
        object with a ``pass_status`` mapping) adds a dirty/clean column
        showing what an incremental replan actually did per pass.
        """
        label = goal if isinstance(goal, str) else ", ".join(goal)
        lines = ["planning pipeline" + (f" (goal: {label})" if label else "")]
        status = getattr(delta, "pass_status", None)
        for i, p in enumerate(_through(goal)):
            req = ", ".join(p.requires) or "-"
            prov = ", ".join(p.provides)
            col = (
                f" [{status.get(p.name, 'pending'):<14s}]"
                if status is not None
                else ""
            )
            lines.append(
                f"  {i + 1}. {p.name:<22s} [{p.kind}]{col}  {req}  ->  {prov}"
            )
        return "\n".join(lines)


def trace_table(trace: Sequence[Mapping], indent: str = "") -> str:
    """Human-readable rendering of a context's structured trace."""
    lines = [
        f"{indent}{'pass':<22s} {'event':<7s} {'seconds':>9s}  detail"
    ]
    for ev in trace:
        detail = []
        if "rounds" in ev:
            detail.append(
                f"rounds={ev['rounds']}"
                + ("" if ev.get("converged", True) else " (capped)")
            )
        if ev.get("provides"):
            detail.append("-> " + ", ".join(ev["provides"]))
        lines.append(
            f"{indent}{ev['pass']:<22s} {ev['event']:<7s} "
            f"{ev.get('seconds', 0.0):9.4f}  {' '.join(detail)}"
        )
    return "\n".join(lines)
