"""Parameterized scenario generation for batch planning and fuzzing.

The end-to-end fuzzer used to carry a private generator limited to 1-D
arrays and a single loop; the batched planning engine needs corpora that
exercise the whole pipeline — 2-D arrays, multi-statement loop bodies,
multi-phase programs, reductions, spreads and wavefronts.  This module
is the shared, deterministic source of such programs: every scenario is
a named family drawn with an explicit seed, so corpora are reproducible
across runs, machines and worker processes.

Scenarios are carried as *source text* (the Fortran-90-like surface
syntax), which keeps them trivially picklable for the process pool and
round-trippable through the parser/pretty-printer.

Quickstart::

    from repro.lang.generate import generate_corpus

    for sc in generate_corpus(100, seed=0):
        program = sc.parse()
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .ast import Program
from .parser import parse


@dataclass(frozen=True)
class Scenario:
    """One generated program: family, seed, and its source text."""

    name: str
    family: str
    seed: int
    source: str

    def parse(self) -> Program:
        return parse(self.source, name=self.name)


@dataclass(frozen=True)
class GeneratorConfig:
    """Size knobs for the generator.

    Defaults keep individual programs small enough that a 100-program
    corpus plans in seconds while still covering every pipeline feature;
    the differential harness walks iteration spaces point by point, so
    extents and trip counts multiply.
    """

    min_extent: int = 8
    max_extent: int = 24
    min_iters: int = 2
    max_iters: int = 6
    max_stmts: int = 3
    families: tuple[str, ...] = ()  # empty = all

    def pick_extent(self, rng: random.Random) -> int:
        return rng.randint(self.min_extent, self.max_extent)

    def pick_iters(self, rng: random.Random) -> int:
        return rng.randint(self.min_iters, self.max_iters)


# ---------------------------------------------------------------------------
# Families.  Each takes (rng, cfg) and returns source text.  All emitted
# programs must typecheck, run under the interpreter, and admit the full
# alignment + distribution pipeline; test_differential asserts exactly
# that for every family over many seeds.
# ---------------------------------------------------------------------------


def _shift1d(rng: random.Random, cfg: GeneratorConfig) -> str:
    """1-D shifted sections, multi-statement loop body (the classic fuzz)."""
    n = cfg.pick_extent(rng)
    iters = cfg.pick_iters(rng)
    width = rng.randint(3, max(4, n // 2))
    names = ["A", "B", "C"]
    size = n + iters + width
    lines = ["real " + ", ".join(f"{x}({size})" for x in names)]

    def section(name: str) -> str:
        mode = rng.randrange(3)
        if mode == 0:
            lo = rng.randint(1, max(1, n - width))
            return f"{name}({lo}:{lo + width - 1})"
        if mode == 1:
            off = rng.randint(0, 2)
            return f"{name}(k+{off}:k+{off + width - 1})"
        lo = rng.randint(1, 4)
        return f"{name}({lo}:{lo + width - 1})"

    lines.append(f"do k = 1, {iters}")
    for _ in range(rng.randint(1, cfg.max_stmts)):
        dst, a, b = rng.choice(names), rng.choice(names), rng.choice(names)
        op = rng.choice("+-*")
        lines.append(f"  {section(dst)} = {section(a)} {op} {section(b)}")
    lines.append("enddo")
    return "\n".join(lines)


def _twod(rng: random.Random, cfg: GeneratorConfig) -> str:
    """2-D sections with per-axis shifts; optional transpose statement."""
    n = max(6, cfg.pick_extent(rng) // 2)
    names = ["A", "B", "C"]
    lines = ["real " + ", ".join(f"{x}({n},{n})" for x in names)]
    w = rng.randint(3, n - 2)

    def section(name: str) -> str:
        lo1 = rng.randint(1, n - w)
        lo2 = rng.randint(1, n - w)
        return f"{name}({lo1}:{lo1 + w - 1},{lo2}:{lo2 + w - 1})"

    for _ in range(rng.randint(1, cfg.max_stmts)):
        dst, a, b = rng.choice(names), rng.choice(names), rng.choice(names)
        lines.append(f"{section(dst)} = {section(a)} + {section(b)}")
    if rng.random() < 0.5:
        dst, src = rng.sample(names, 2)
        lines.append(f"{dst} = {dst} + transpose({src})")
    return "\n".join(lines)


def _wavefront(rng: random.Random, cfg: GeneratorConfig) -> str:
    """Figure-1-style mobile-offset workload: diagonal bands of V."""
    n = max(6, cfg.pick_extent(rng) // 2)
    shift = rng.randint(0, 1)
    op = rng.choice(["+", "*"])
    extra = (
        f" + V(k+{shift + 1}:k+{shift + n})" if rng.random() < 0.5 else ""
    )
    return (
        f"real A({n},{n}), V({2 * n + shift + 1})\n"
        f"do k = 1, {n}\n"
        f"  A(k,1:{n}) = A(k,1:{n}) {op} V(k+{shift}:k+{shift + n - 1}){extra}\n"
        "enddo"
    )


def _strided(rng: random.Random, cfg: GeneratorConfig) -> str:
    """Constant-stride sections (Example 2) or mobile stride (Example 5)."""
    if rng.random() < 0.5:
        n = cfg.pick_extent(rng)
        s = rng.choice([2, 3])
        return (
            f"real A({s * n}), B({n})\n"
            f"B(1:{n}) = B(1:{n}) + A({s}:{s * n}:{s})"
        )
    iters = cfg.pick_iters(rng)
    m = rng.randint(4, 8)
    n = iters * m
    return (
        f"real A({n}), B({n}), V({m})\n"
        f"do k = 1, {iters}\n"
        f"  V = V + A(1:{m}*k:k)\n"
        f"  B(1:{m}*k:k) = V\n"
        "enddo"
    )


def _reduction(rng: random.Random, cfg: GeneratorConfig) -> str:
    """Axis reductions of a 2-D array into 1-D accumulators."""
    n = max(6, cfg.pick_extent(rng) // 2)
    m = max(6, cfg.pick_extent(rng) // 2)
    op = rng.choice(["sum", "maxval", "minval"])
    lines = [f"real M({n},{m}), s({n}), t({m})"]
    lines.append(f"s(1:{n}) = s(1:{n}) + {op}(M, dim=2)")
    if rng.random() < 0.5:
        lines.append(f"t(1:{m}) = {op}(M, dim=1)")
    return "\n".join(lines)


def _spread_rep(rng: random.Random, cfg: GeneratorConfig) -> str:
    """Figure-4-style replication source: spread of a vector in a loop."""
    n = max(6, cfg.pick_extent(rng) // 2)
    m = max(6, cfg.pick_extent(rng) // 2)
    iters = cfg.pick_iters(rng)
    fn = rng.choice(["cos", "sin", "sqrt"])
    return (
        f"real t({n}), B({n},{m})\n"
        f"do K = 1, {iters}\n"
        f"  t = {fn}(t)\n"
        f"  B = B + spread(t, dim=2, ncopies={m})\n"
        "enddo"
    )


def _multiphase(rng: random.Random, cfg: GeneratorConfig) -> str:
    """Two sequential loop phases with different access patterns."""
    n = cfg.pick_extent(rng) + 4
    iters = cfg.pick_iters(rng)
    w = rng.randint(3, n // 2)
    lines = [f"real U({n + iters}), W({n + iters}), Z({n + iters})"]
    # Phase 1: static three-point stencil.
    lines.append(f"do t = 1, {iters}")
    lines.append(f"  W(2:{n - 1}) = U(1:{n - 2}) + U(2:{n - 1}) + U(3:{n})")
    lines.append(f"  U(2:{n - 1}) = W(2:{n - 1})")
    lines.append("enddo")
    # Phase 2: LIV-shifted copies with a different loop variable.
    lines.append(f"do k = 1, {iters}")
    lines.append(f"  Z(k:k+{w - 1}) = U(k+1:k+{w}) + W(k:k+{w - 1})")
    lines.append("enddo")
    return "\n".join(lines)


FAMILIES: dict[str, Callable[[random.Random, GeneratorConfig], str]] = {
    "shift1d": _shift1d,
    "twod": _twod,
    "wavefront": _wavefront,
    "strided": _strided,
    "reduction": _reduction,
    "spread": _spread_rep,
    "multiphase": _multiphase,
}


def generate_scenario(
    seed: int,
    family: str | None = None,
    config: GeneratorConfig | None = None,
) -> Scenario:
    """One deterministic scenario.  ``family=None`` picks by seed."""
    cfg = config or GeneratorConfig()
    names = list(cfg.families) if cfg.families else sorted(FAMILIES)
    rng = random.Random(seed)
    fam = family or names[seed % len(names)]
    if fam not in FAMILIES:
        raise KeyError(f"unknown scenario family {fam!r}")
    source = FAMILIES[fam](rng, cfg)
    return Scenario(f"{fam}_{seed}", fam, seed, source)


def generate_corpus(
    count: int,
    seed: int = 0,
    config: GeneratorConfig | None = None,
) -> list[Scenario]:
    """``count`` scenarios cycling round-robin over the families.

    The i-th scenario of a corpus depends only on ``(seed, i)`` and the
    config, never on ``count``, so growing a corpus keeps its prefix.
    """
    cfg = config or GeneratorConfig()
    names = list(cfg.families) if cfg.families else sorted(FAMILIES)
    out = []
    for i in range(count):
        fam = names[i % len(names)]
        out.append(generate_scenario(seed * 100_003 + i, family=fam, config=cfg))
    return out


# ---------------------------------------------------------------------------
# Topology sampling.  The differential harness and the batch engine pair
# generated programs with generated machines, so the analytic-vs-simulator
# cross-check sweeps the cost landscape, not just the L1 grid.  Samples
# are spec strings (repro.topology.parse_topology), the same form the
# batch engine ships across its process pool.
# ---------------------------------------------------------------------------

TOPOLOGY_KINDS = ("grid", "torus", "ring", "hypercube", "hier")


def _factor_pairs(n: int) -> list[tuple[int, int]]:
    return [(p, n // p) for p in range(1, n + 1) if n % p == 0]


def sample_topology(
    seed: int, nprocs: int = 4, kind: str | None = None
) -> str:
    """One deterministic machine spec with ``nprocs`` processors.

    ``kind=None`` cycles over :data:`TOPOLOGY_KINDS` by seed.  The
    hypercube kind rounds ``nprocs`` down to a power of two (its only
    legal sizes); every other kind honors ``nprocs`` exactly.
    """
    if nprocs < 1:
        raise ValueError("sample_topology needs nprocs >= 1")
    rng = random.Random(seed * 99_991 + nprocs)
    k = kind or TOPOLOGY_KINDS[seed % len(TOPOLOGY_KINDS)]
    if k not in TOPOLOGY_KINDS:
        raise KeyError(f"unknown topology kind {k!r}")
    if k == "ring":
        return f"ring:{nprocs}"
    if k == "hypercube":
        pow2 = 1
        while pow2 * 2 <= nprocs:
            pow2 *= 2
        return f"hypercube:{pow2}"
    if k in ("grid", "torus"):
        a, b = rng.choice(_factor_pairs(nprocs))
        shape = str(nprocs) if 1 in (a, b) else f"{a}x{b}"
        return f"{k}:{shape}"
    # hier: nodes x cores per axis, a sampled inter-node cost
    a, b = rng.choice(_factor_pairs(nprocs))
    cost = rng.choice((2, 4, 8, 16))
    return f"hier:(grid:{a})/(grid:{b})@{cost}"


def topology_corpus(count: int, seed: int = 0, nprocs: int = 4) -> list[str]:
    """``count`` machine specs cycling round-robin over the kinds.

    Mirrors :func:`generate_corpus`: the i-th spec depends only on
    ``(seed, i, nprocs)``, so growing a corpus keeps its prefix.
    """
    return [
        sample_topology(
            seed * 100_003 + i,
            nprocs,
            kind=TOPOLOGY_KINDS[i % len(TOPOLOGY_KINDS)],
        )
        for i in range(count)
    ]
