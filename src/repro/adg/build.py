"""Construction of the ADG from a typechecked program.

Follows the SSA-flavored recipe of Section 2.2 (and the companion paper
[3]): one port per static definition or use, merge nodes where multiple
definitions reach a use, fanout nodes where one definition reaches
several uses in the same region, branch nodes where it reaches
*alternate* uses, and transformer nodes wherever data crosses an
iteration-space boundary (loop entry, loop-back, loop exit).

Loop-carried structure (matching Figure 2 of the paper): for every array
referenced in a loop we build

    outer def --> [entry transformer] --> [merge] --> body uses/defs
                                            ^              |
                                            |        (defined arrays)
                              [loop-back transformer] <-- [branch] --> [exit transformer] --> outer def'

Read-only arrays get the same entry/merge/loop-back cycle (their value
flows *around* the loop, so a mobile alignment correctly pays a
realignment per iteration) but no branch/exit — later uses read the
unchanged outer definition.

Edge iteration spaces are exact: the entry edge flows once (first
iteration), the loop-back return edge for iterations ``lo+s .. last``,
the exit edge only at ``last``.

Nodes, ports and edges are numbered in the order the program is read,
and the offset LP's columns follow that order.  Equal values are built
once per graph: the ports of one declared array share its shape tuple,
the edges of one loop share its restricted spaces, and edges leaving
equal shapes share one weight polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.affine import AffineForm
from ..ir.itspace import IterationSpace, Triplet
from ..ir.polynomial import Polynomial
from ..ir.symbols import LIV
from ..lang import ast as A
from ..lang.typecheck import TypeInfo, typecheck
from .graph import ADG, ADGNode, Port
from .nodes import (
    EMPTY,
    NodeKind,
    NodePayload,
    ReducePayload,
    SectionPayload,
    SinkPayload,
    SourcePayload,
    SpreadPayload,
    SubscriptSpec,
    TransformerPayload,
)


def size_poly(shape: tuple[AffineForm, ...]) -> Polynomial:
    """Element count of an object: the product of its affine extents."""
    total = Polynomial.constant(1)
    for ext in shape:
        total = total * Polynomial.from_affine(ext)
    return total


def _subscript_specs(subs: tuple[A.Subscript, ...]) -> tuple[SubscriptSpec, ...]:
    out = []
    for s in subs:
        if isinstance(s, A.FullSlice):
            out.append(SubscriptSpec("full"))
        elif isinstance(s, A.Index):
            out.append(SubscriptSpec("index", index=s.value))
        else:
            assert isinstance(s, A.Slice)
            out.append(SubscriptSpec("slice", lo=s.lo, step=s.step))
    return tuple(out)


@dataclass
class _Distributor:
    """Bookkeeping for lazily created fanout/branch nodes."""

    node: ADGNode
    regions: set[str] = field(default_factory=set)


class ADGBuilder:
    def __init__(self, program: A.Program, info: TypeInfo | None = None) -> None:
        self.program = program
        self.info = info or typecheck(program)
        rank = 1
        for shape in self.info.shapes.values():
            rank = max(rank, len(shape))
        for d in program.decls:
            rank = max(rank, d.rank)
        self.adg = ADG(program.name, template_rank=rank)
        self.defs: dict[str, Port] = {}
        self.space = IterationSpace.scalar()
        # The conditional arm being built: "top", or "top/if<n>.then" ...
        self.region = "top"
        self.cw = 1.0
        self._distributors: dict[int, _Distributor] = {}  # keyed by id(def port)
        self._use_regions: dict[int, str] = {}  # keyed by id(use port)
        # Edge weights of this build, one per distinct tail shape: edges
        # leaving equal shapes share the object.  Most lookups are for a
        # shape tuple seen before, found by identity without hashing its
        # forms.
        self._sizes: dict[tuple[AffineForm, ...], Polynomial] = {}
        self._sizes_by_id: dict[int, tuple[tuple[AffineForm, ...], Polynomial]] = {}
        # Every port of one declared array shares its shape tuple.
        self._decl_shapes: dict[str, tuple[AffineForm, ...]] = {}

    # -- helpers -----------------------------------------------------------

    def _decl_shape(self, name: str) -> tuple[AffineForm, ...]:
        shape = self._decl_shapes.get(name)
        if shape is None:
            dims = self.program.decl(name).dims
            shape = self._decl_shapes[name] = tuple(AffineForm(d) for d in dims)
        return shape

    def _size(self, shape: tuple[AffineForm, ...]) -> Polynomial:
        seen = self._sizes_by_id.get(id(shape))
        if seen is not None and seen[0] is shape:
            return seen[1]
        size = self._sizes.get(shape)
        if size is None:
            size = self._sizes[shape] = size_poly(shape)
        self._sizes_by_id[id(shape)] = (shape, size)
        return size

    def connect(
        self,
        tail: Port,
        head: Port,
        space: IterationSpace | None = None,
        cw: float | None = None,
    ) -> None:
        """Add a data-flow edge, inserting a fanout/branch distributor when
        the definition already has a consumer."""
        space = space if space is not None else tail.space
        cw = cw if cw is not None else self.cw
        weight = self._size(tail.shape)
        dist = self._distributors.get(id(tail))
        if dist is None:
            old = self.adg.first_out_edge(tail)
            if old is None:
                self.adg.add_edge(tail, head, weight, space, cw)
                self._note_use(head)
                return
            # Second consumer: splice a distributor in front of the first.
            node = self.adg.add_node(
                NodeKind.FANOUT, EMPTY, f"fanout({tail.node.label})"
            )
            din = node.add_port("in", tail.shape, tail.space, is_output=False)
            self.adg.remove_edge(old)
            self.adg.add_edge(tail, din, weight, tail.space, cw)
            out0 = node.add_port("out0", tail.shape, tail.space, is_output=True)
            self.adg.add_edge(out0, old.head, old.weight, old.space, old.control_weight)
            dist = _Distributor(node)
            dist.regions.add(self._use_regions.get(id(old.head), "top"))
            self._distributors[id(tail)] = dist
        node = dist.node
        out = node.add_port(
            f"out{len(node.outputs())}", tail.shape, tail.space, is_output=True
        )
        self.adg.add_edge(out, head, weight, space, cw)
        self._note_use(head, dist)

    def _note_use(self, head: Port, dist: _Distributor | None = None) -> None:
        self._use_regions[id(head)] = self.region
        if dist is not None:
            dist.regions.add(self.region)
            if len(dist.regions) > 1:
                dist.node.kind = NodeKind.BRANCH
                dist.node.label = dist.node.label.replace("fanout", "branch")

    # -- entry point ---------------------------------------------------------

    def build(self) -> ADG:
        # Every node is stamped with the provenance tag of the top-level
        # statement (or declaration) being built when it was created —
        # ``"s<i>"`` / ``"decl:<name>"``; distributor nodes spliced
        # lazily in :meth:`connect` inherit the tag of the use that
        # triggered them.  Nothing reads the tags (``ADGNode.stmt``).
        for d in self.program.decls:
            self.adg.current_stmt = f"decl:{d.name}"
            node = self.adg.add_node(
                NodeKind.SOURCE,
                SourcePayload(d.name, d.readonly, d.replicate_hint),
                f"source({d.name})",
            )
            out = node.add_port("out", self._decl_shape(d.name), self.space, True)
            self.defs[d.name] = out
        for i, s in enumerate(self.program.body):
            self.adg.current_stmt = f"s{i}"
            self._build_block((s,))
        for d in self.program.decls:
            self.adg.current_stmt = f"decl:{d.name}"
            node = self.adg.add_node(
                NodeKind.SINK, SinkPayload(d.name), f"sink({d.name})"
            )
            inp = node.add_port("in", self._decl_shape(d.name), self.space, False)
            self.connect(self.defs[d.name], inp)
        self.adg.current_stmt = ""
        self.adg.validate()
        return self.adg

    # -- statements --------------------------------------------------------------

    def _build_block(self, stmts: tuple[A.Stmt, ...]) -> None:
        for s in stmts:
            if isinstance(s, A.Assign):
                self._build_assign(s)
            elif isinstance(s, A.Do):
                self._build_do(s)
            elif isinstance(s, A.If):
                self._build_if(s)
            else:
                raise TypeError(f"unknown statement {s!r}")

    def _build_assign(self, s: A.Assign) -> None:
        rhs_port = self._build_expr(s.rhs)
        name = s.lhs.name
        if not s.lhs.subscripts:
            if rhs_port is None:
                # Scalar fill of a whole array: a generator node.
                node = self.adg.add_node(NodeKind.ELEMENTWISE, EMPTY, f"fill({name})")
                out = node.add_port("out", self._decl_shape(name), self.space, True)
                self.defs[name] = out
            else:
                self.defs[name] = rhs_port
            return
        # Section assignment.
        node = self.adg.add_node(
            NodeKind.SECTION_ASSIGN,
            SectionPayload(name, _subscript_specs(s.lhs.subscripts)),
            f"sectassign({name})",
        )
        arr_shape = self._decl_shape(name)
        arr_in = node.add_port("array", arr_shape, self.space, False)
        self.connect(self.defs[name], arr_in)
        if rhs_port is not None:
            val_shape = rhs_port.shape
            val_in = node.add_port("value", val_shape, self.space, False)
            self.connect(rhs_port, val_in)
        else:
            # Scalar rhs broadcast into the section: generator port, no edge.
            lhs_shape = self.info.shape_of(s.lhs)
            node.add_port("value", lhs_shape, self.space, False)
        out = node.add_port("out", arr_shape, self.space, True)
        self.defs[name] = out

    def _build_do(self, s: A.Do) -> None:
        liv = LIV(s.liv, 0)
        trip = Triplet(s.lo, s.hi, s.step)
        if trip.is_empty():
            return  # zero-trip loop contributes nothing
        last = trip.last
        outer_space = self.space
        inner_space = self.space.extended(liv, trip)

        used, defined = self._scan_body(s.body)
        touched = sorted(used | defined)
        outer_defs = {name: self.defs[name] for name in touched}

        # Entry edges flow only at the first iteration, exit edges only at
        # the last; the loop-back sends at all but the last iteration and
        # receives at all but the first.
        first_space = inner_space.restricted(liv, Triplet(s.lo, s.lo, s.step))
        last_space = inner_space.restricted(liv, Triplet(last, last, s.step))
        repeats = len(trip) > 1
        if repeats:
            send_space = inner_space.restricted(liv, Triplet(s.lo, last - s.step, s.step))
            recv_space = inner_space.restricted(liv, Triplet(s.lo + s.step, last, s.step))

        backs: dict[str, Port] = {}
        for name in touched:
            shape = self._decl_shape(name)
            tin = self.adg.add_node(
                NodeKind.TRANSFORMER,
                TransformerPayload("entry", liv, s.lo),
                f"entry({name},{s.liv})",
            )
            tin_in = tin.add_port("in", shape, outer_space, False)
            tin_out = tin.add_port("out", shape, inner_space, True)
            self.connect(self.defs[name], tin_in, space=outer_space)
            m = self.adg.add_node(NodeKind.MERGE, EMPTY, f"merge({name},{s.liv})")
            m_entry = m.add_port("entry", shape, inner_space, False)
            backs[name] = m.add_port("back", shape, inner_space, False)
            self.defs[name] = m.add_port("out", shape, inner_space, True)
            self.adg.add_edge(tin_out, m_entry, self._size(shape), first_space, self.cw)
            self._note_use(m_entry)

        self.space = inner_space
        self._build_block(s.body)

        for name in touched:
            shape = self._decl_shape(name)
            final = self.defs[name]
            tb = self.adg.add_node(
                NodeKind.TRANSFORMER,
                TransformerPayload("loop_back", liv, s.step),
                f"loopback({name},{s.liv})",
            )
            tb_in = tb.add_port("in", shape, inner_space, False)
            tb_out = tb.add_port("out", shape, inner_space, True)
            if name in defined:
                br = self.adg.add_node(NodeKind.BRANCH, EMPTY, f"branch({name},{s.liv})")
                br_in = br.add_port("in", shape, inner_space, False)
                br_back = br.add_port("back", shape, inner_space, True)
                br_exit = br.add_port("exit", shape, inner_space, True)
                self.connect(final, br_in, space=inner_space)
                if repeats:
                    self.adg.add_edge(br_back, tb_in, self._size(shape), send_space, self.cw)
                    self._note_use(tb_in)
                tx = self.adg.add_node(
                    NodeKind.TRANSFORMER,
                    TransformerPayload("exit", liv, last),
                    f"exit({name},{s.liv})",
                )
                tx_in = tx.add_port("in", shape, inner_space, False)
                tx_out = tx.add_port("out", shape, outer_space, True)
                self.adg.add_edge(br_exit, tx_in, self._size(shape), last_space, self.cw)
                self._note_use(tx_in)
                self.defs[name] = tx_out
            else:
                # Read-only: value circulates unchanged; no branch/exit.
                if repeats:
                    self.connect(final, tb_in, space=send_space)
                self.defs[name] = outer_defs[name]
            if repeats:
                self.adg.add_edge(tb_out, backs[name], self._size(shape), recv_space, self.cw)
                self._note_use(backs[name])

        self.space = outer_space

    def _build_if(self, s: A.If) -> None:
        outer = self.region
        self.region = f"{outer}/if{id(s) & 0xffff}.then"
        saved_cw = self.cw
        defs_before = dict(self.defs)
        self.cw = saved_cw * s.prob
        self._build_block(s.then_body)
        defs_then = dict(self.defs)

        self.defs = dict(defs_before)
        self.region = f"{outer}/if{id(s) & 0xffff}.else"
        self.cw = saved_cw * (1.0 - s.prob)
        self._build_block(s.else_body)
        defs_else = dict(self.defs)
        self.region = outer
        self.cw = saved_cw

        self.defs = defs_before
        changed = {
            n
            for n in set(defs_then) | set(defs_else)
            if defs_then.get(n) is not defs_before.get(n)
            or defs_else.get(n) is not defs_before.get(n)
        }
        for name in sorted(changed):
            shape = self._decl_shape(name)
            m = self.adg.add_node(NodeKind.MERGE, EMPTY, f"phi({name})")
            t_in = m.add_port("then", shape, self.space, False)
            e_in = m.add_port("else", shape, self.space, False)
            out = m.add_port("out", shape, self.space, True)
            self.connect(defs_then[name], t_in, cw=saved_cw * s.prob)
            self.connect(defs_else[name], e_in, cw=saved_cw * (1.0 - s.prob))
            self.defs[name] = out

    # -- expressions -----------------------------------------------------------------

    def _build_expr(self, e: A.Expr) -> Port | None:
        shape = self.info.shape_of
        if isinstance(e, (A.Const, A.ScalarRef)):
            return None
        if isinstance(e, A.Ref):
            if e.name not in self.defs:
                # LIV used as a scalar value: no array object, no port.
                return None
            base = self.defs[e.name]
            if not e.subscripts:
                return base
            payload = SectionPayload(e.name, _subscript_specs(e.subscripts))
            label = f"section({e.name})"
            return self._node(NodeKind.SECTION, payload, label, [("in", base)], shape(e))
        if isinstance(e, A.BinOp):
            l = self._build_expr(e.left)
            r = self._build_expr(e.right)
            operands = [p for p in (l, r) if p is not None]
            if not operands:
                return None
            inputs = [(f"in{i}", p) for i, p in enumerate(operands)]
            return self._node(NodeKind.ELEMENTWISE, EMPTY, e.op, inputs, shape(e))
        if isinstance(e, (A.UnaryOp, A.Intrinsic)):
            p = self._build_expr(e.operand)
            if p is None:
                return None
            label = "neg" if isinstance(e, A.UnaryOp) else e.name
            return self._node(NodeKind.ELEMENTWISE, EMPTY, label, [("in0", p)], p.shape)
        if isinstance(e, A.Transpose):
            p = self._build_expr(e.operand)
            assert p is not None
            return self._node(NodeKind.TRANSPOSE, EMPTY, "transpose", [("in", p)], shape(e))
        if isinstance(e, A.Spread):
            p = self._build_expr(e.operand)
            assert p is not None
            payload = SpreadPayload(e.dim, e.ncopies)
            label = f"spread(dim={e.dim})"
            return self._node(NodeKind.SPREAD, payload, label, [("in", p)], shape(e))
        if isinstance(e, A.Reduce):
            p = self._build_expr(e.operand)
            assert p is not None
            payload = ReducePayload(e.op, e.dim)
            label = f"{e.op}(dim={e.dim})"
            out = None if e.dim is None else shape(e)  # a full reduction is a scalar
            return self._node(NodeKind.REDUCE, payload, label, [("in", p)], out)
        if isinstance(e, A.Gather):
            table = self._build_expr(e.table)
            index = self._build_expr(e.index)
            assert table is not None and index is not None
            inputs = [("table", table), ("index", index)]
            return self._node(NodeKind.GATHER, EMPTY, "gather", inputs, shape(e))
        raise TypeError(f"unknown expression {e!r}")

    def _node(
        self,
        kind: NodeKind,
        payload: NodePayload,
        label: str,
        inputs: list[tuple[str, Port]],
        out: tuple[AffineForm, ...] | None,
    ) -> Port | None:
        """A node reading each ``(port name, definition)`` of ``inputs``,
        and its output port of shape ``out`` (none when ``out`` is None)."""
        node = self.adg.add_node(kind, payload, label)
        ins = [node.add_port(name, p.shape, self.space, False) for name, p in inputs]
        for (_, p), inp in zip(inputs, ins):
            self.connect(p, inp)
        return None if out is None else node.add_port("out", out, self.space, True)

    # -- scanning ------------------------------------------------------------------------

    def _scan_body(self, stmts: tuple[A.Stmt, ...]) -> tuple[set[str], set[str]]:
        declared = set(self.program.array_names())
        used: set[str] = set()
        defined: set[str] = set()
        for s in A.walk_stmts(stmts):
            if isinstance(s, A.Assign):
                defined.add(s.lhs.name)
                if s.lhs.subscripts:
                    used.add(s.lhs.name)  # section assign reads the old array
                for sub in A.walk_exprs(s.rhs):
                    if isinstance(sub, A.Ref) and sub.name in declared:
                        used.add(sub.name)
                    if isinstance(sub, A.Gather):
                        used.add(sub.table.name)
        return used, defined


def build_adg(program: A.Program, info: TypeInfo | None = None) -> ADG:
    """Typecheck (if needed) and build the ADG for ``program``."""
    return ADGBuilder(program, info).build()
