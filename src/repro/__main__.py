"""Command-line driver: align a program and print the plan.

Usage::

    python -m repro FILE [--algorithm fixed|unrolling|...] [--m 3]
                         [--no-replication] [--static] [--dot OUT.dot]
                         [--measure identity|block|cyclic|block-cyclic]
                         [--procs N,N]
                         [--distribute P] [--topology SPEC]
                         [--replan-from BASE]
                         [--trace-passes]
                         [--trace-out OUT.json] [--metrics]
                         [--prom-out OUT.prom]
    python -m repro --batch <dir|count> [--jobs J]
                         [--batch-seed S] [--batch-json OUT.json]
                         [--distribute P] [--topology SPEC]
                         [--trace-out OUT.json] [--metrics]
                         [--prom-out OUT.prom]
    python -m repro --explain [--distribute P]

Reads a program in the Fortran-90-like surface syntax, runs the full
alignment pipeline, and prints the report; optionally renders the ADG,
measures the plan on the machine simulator, or — the paper's deferred
second phase — plans a distribution automatically for P processors
(``--distribute``).

``--topology`` selects the machine interconnect pricing every hop
(``grid:4x4``, ``torus:4x4``, ``ring:8``, ``hypercube:16``,
``hier:(grid:2x2)/(grid:4x4)@8``; default: the paper's open grid).  A
finite topology also implies the processor count, so ``--distribute``
may be omitted; different machines can and do pick different
distributions for the same program.

``--batch`` switches to the batched planning engine: the argument is
either a directory of program sources (planned file by file) or an
integer N (a generated N-program corpus from
:mod:`repro.lang.generate`); programs are planned concurrently over a
process pool (``--jobs J`` workers; ``--jobs 1`` plans them inline) and
the aggregate report — throughput, failures, cache hit rates, per-pass
timings — is printed, optionally dumped as JSON.

``--replan-from BASE`` demonstrates incremental re-planning: BASE is
planned from scratch, then FILE is treated as an edit of it and
re-planned through the delta engine (:mod:`repro.passes.delta`) —
unchanged alignment artifacts carry over, and the printed delta report
shows the rung the replan took, where the edited program's projections
first differ from the base's when a rung below ``carry_all`` was taken
(``fallback detail``), and which passes ran versus reused per pass (the
same dirty/clean column ``--explain`` shows).  The incremental plan is
identical to a from-scratch plan of FILE; only the work to get there
shrinks.

Every plan is produced by the staged pass pipeline
(:mod:`repro.passes`).  ``--explain`` prints the pass graph the chosen
flags would execute and exits; ``--trace-passes`` appends the per-pass
trace (wall time, fixpoint rounds, provided artifacts) to a normal
run's report.  Per-pass cache-counter deltas are on each pass's span
(``--trace-out``).

``--trace-out OUT.json`` records the run through :mod:`repro.obs` —
hierarchical spans over every pipeline pass, distribution search, and
simulator call — and writes a Chrome trace-event file loadable in
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``; an ASCII
flame summary is printed too.  With ``--batch``, every worker records
its tasks and the per-process traces are merged into one file.
``--metrics`` prints the typed metric registry, cache hit counters
included; ``--prom-out OUT.prom`` writes the same registry as
Prometheus text exposition.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import NoReturn

from ._io import atomic_write_json
from .adg import to_dot
from .align import ALGORITHMS
from .lang import TypeError_, parse
from .machine import SCHEMES, measure_plan


def _load(path: str):
    """The program in ``path`` (``-``: stdin), parsed.  A missing,
    unreadable or unparsable file is a one-line diagnostic and exit
    status 1 — the ``Type: message`` a ``--batch`` row reports — not a
    traceback."""
    try:
        if path == "-":
            source = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as f:
                source = f.read()
        return parse(source, name=path)
    except (OSError, SyntaxError, ValueError) as exc:
        _refuse(path, exc)


def _refuse(path: str, exc: Exception) -> NoReturn:
    """Exit status 1 with the one-line ``error: path: Type: message``
    diagnostic of a program the CLI cannot plan."""
    print(f"error: {path}: {type(exc).__name__}: {exc}", file=sys.stderr)
    raise SystemExit(1) from None


def _run_batch(args, align_kw: dict) -> int:
    from .batch import PlanRequest, plan_many
    from .lang.generate import generate_corpus

    if os.path.isdir(args.batch):
        names = sorted(
            f
            for f in os.listdir(args.batch)
            if os.path.isfile(os.path.join(args.batch, f))
        )
        if not names:
            print(f"--batch: no program files in {args.batch}", file=sys.stderr)
            return 1
        # errors="replace": an unreadable (non-UTF-8) file becomes a
        # parse failure diagnosed in the report, not a CLI traceback.
        from pathlib import Path

        corpus = [
            PlanRequest(
                name,
                Path(args.batch, name).read_text(
                    encoding="utf-8", errors="replace"
                ),
            )
            for name in names
        ]
    else:
        try:
            count = int(args.batch)
        except ValueError:
            print(
                f"--batch: {args.batch!r} is neither a directory nor a count",
                file=sys.stderr,
            )
            return 1
        if count < 1:
            print("--batch: corpus count must be >= 1", file=sys.stderr)
            return 1
        corpus = generate_corpus(count, seed=args.batch_seed)
    report = plan_many(
        corpus,
        nprocs=args.distribute,
        jobs=args.jobs,
        align_kw=align_kw,
        verify=True,
        topology=args.topology if args.distribute is not None else None,
        trace=args.trace_out is not None,
    )
    print(report.render())
    if args.batch_json:
        # Atomic (temp file + os.replace): a crash mid-write must never
        # leave a truncated JSON where CI expects a parseable report.
        atomic_write_json(args.batch_json, report.to_json())
        print(f"batch report written to {args.batch_json}")
    if args.trace_out:
        from .obs import write_chrome_trace

        merged = report.merged_trace()
        if merged is not None:
            write_chrome_trace(args.trace_out, merged)
            print(f"trace written to {args.trace_out}")
    if args.metrics:
        from .obs import registry

        print(registry().render())
    if args.prom_out:
        _write_prom(args.prom_out)
    unverified = any(r.verified is False for r in report.results)
    return 0 if not report.failures and not unverified else 1


def _write_prom(path: str) -> None:
    """Write the registry as Prometheus exposition (atomic: a crash
    must not leave a truncated scrape file where a reader expects one)."""
    from ._io import atomic_write_text
    from .obs import render_prometheus

    atomic_write_text(path, render_prometheus())
    print(f"prometheus exposition written to {path}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro",
        description="Mobile and replicated alignment analysis (SC'93)",
    )
    ap.add_argument(
        "file", nargs="?", help="program source, or '-' for stdin"
    )
    ap.add_argument(
        "--algorithm",
        default="fixed",
        choices=sorted(ALGORITHMS),
        help="mobile-offset algorithm (Section 4.2)",
    )
    ap.add_argument("--m", type=int, default=3, help="subranges for fixed partitioning")
    ap.add_argument(
        "--no-replication",
        action="store_true",
        help="apply only program-forced replication labels",
    )
    ap.add_argument(
        "--static", action="store_true", help="best static alignment baseline"
    )
    ap.add_argument("--dot", metavar="OUT", help="write the ADG as Graphviz dot")
    ap.add_argument(
        "--measure",
        choices=["identity", *SCHEMES],
        help="measure traffic on the machine simulator",
    )
    ap.add_argument(
        "--procs",
        default="4",
        help="comma-separated processor grid for --measure (default 4 per axis)",
    )
    ap.add_argument(
        "--distribute",
        type=int,
        metavar="P",
        help="automatically plan a distribution for P processors",
    )
    ap.add_argument(
        "--topology",
        metavar="SPEC",
        help="machine interconnect pricing hops: grid:RxC, torus:RxC, "
        "ring:P, hypercube:P, hier:(outer)/(inner)@cost "
        "(default: the paper's open grid)",
    )
    ap.add_argument(
        "--trace-passes",
        action="store_true",
        help="print the staged pipeline's per-pass trace (time, fixpoint "
        "rounds, provided artifacts) after the report",
    )
    ap.add_argument(
        "--trace-out",
        metavar="OUT",
        help="record a hierarchical span trace of the run and write it "
        "as Chrome trace-event JSON (open in Perfetto / chrome://tracing); "
        "with --batch, per-worker traces are merged into one file",
    )
    ap.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics registry (counters, gauges, histograms, "
        "cache hit counters) after the run",
    )
    ap.add_argument(
        "--prom-out",
        metavar="OUT",
        help="write the post-run metric registry as Prometheus text "
        "exposition",
    )
    ap.add_argument(
        "--replan-from",
        metavar="BASE",
        help="incremental mode: plan BASE first, then re-plan FILE as an "
        "edit of it — unchanged alignment artifacts carry over and the "
        "delta report (rung, first difference, per-pass reuse) is printed",
    )
    ap.add_argument(
        "--explain",
        action="store_true",
        help="print the pass graph the chosen flags would run, then exit",
    )
    ap.add_argument(
        "--batch",
        metavar="DIR|N",
        help="batch mode: plan every program in a directory, or a "
        "generated corpus of N programs",
    )
    ap.add_argument(
        "--jobs",
        type=int,
        help="worker processes for --batch (default: CPU count; 1 plans "
        "inline)",
    )
    ap.add_argument(
        "--batch-seed",
        type=int,
        default=0,
        help="seed for the generated corpus (default 0)",
    )
    ap.add_argument(
        "--batch-json",
        metavar="OUT",
        help="with --batch: write the aggregate report as JSON",
    )
    args = ap.parse_args(argv)
    if args.jobs is not None and args.jobs < 1:
        ap.error(f"--jobs must be >= 1, got {args.jobs}")
    try:
        procs = tuple(int(x) for x in args.procs.split(","))
    except ValueError:
        procs = ()
    if not procs or min(procs) < 1:
        ap.error(f"--procs needs comma-separated integers >= 1, got {args.procs!r}")
    topology = None
    if args.topology is not None:
        from .topology import parse_topology

        try:
            topology = parse_topology(args.topology)
        except ValueError as exc:
            ap.error(f"--topology: {exc}")
        if topology.shape and args.distribute is None and args.measure is None:
            # A finite machine implies the processor count.
            args.distribute = topology.nprocs
    if args.distribute is not None and args.distribute < 1:
        ap.error("--distribute needs at least 1 processor")
    if args.explain and args.batch is not None:
        ap.error("--explain cannot be combined with --batch")

    from .align.pipeline import (
        DistributionOptionsError,
        explain_plan,
        machine_record,
        planning_records,
        solve_prefix,
        solve_suffix,
    )

    align_kw = dict(
        algorithm=args.algorithm,
        replication=not args.no_replication,
        mobile=not args.static,
    )
    if "m" in ALGORITHMS[args.algorithm].keywords:
        align_kw["m"] = args.m
    try:
        # The flags become the two option records here, once; without
        # --distribute (given or implied) there is no machine to plan for.
        options, machine = planning_records(
            args.distribute,
            args.topology if args.distribute is not None else None,
            align_kw,
        )
    except DistributionOptionsError:
        ap.error(
            f"--topology {topology.spec()} is a "
            f"{topology.nprocs}-processor machine but --distribute "
            f"asked for {args.distribute}"
        )
    except (ValueError, TypeError) as exc:
        ap.error(str(exc))
    if args.explain:
        print(
            explain_plan(
                machine=machine is not None or args.topology is not None
            )
        )
        return 0
    if args.batch is None and args.file is None:
        ap.error("a program file is required unless --batch is given")
    if args.batch is not None:
        for flag, present in [
            ("a program file", args.file is not None),
            ("--measure", args.measure is not None),
            ("--dot", args.dot is not None),
            ("--trace-passes", args.trace_passes),
            ("--replan-from", args.replan_from is not None),
        ]:
            if present:
                ap.error(f"{flag} cannot be combined with --batch")
    else:
        for flag, present in [
            ("--jobs", args.jobs is not None),
            ("--batch-json", args.batch_json is not None),
        ]:
            if present:
                ap.error(f"{flag} requires --batch")
    if args.batch is not None:
        return _run_batch(args, align_kw)

    from .passes import trace_table

    def planned(program, path):
        """``program`` planned cold: the prefix, and the suffix on the
        same context when the flags name a machine.  A program the
        typechecker refuses is a one-line diagnostic, as a parse error is."""
        try:
            ctx = solve_prefix(program, options, profile=machine is not None)
        except TypeError_ as exc:
            _refuse(path, exc)
        return ctx if machine is None else solve_suffix(ctx, machine)

    def run_single():
        program = _load(args.file)
        if args.replan_from is not None:
            # Incremental mode: solve the base program fully, then
            # re-plan FILE as an edit of it, as far as the base went.
            base_ctx = planned(_load(args.replan_from), args.replan_from)
            try:
                ctx, dreport = solve_prefix(
                    program, options, base=base_ctx, profile=machine is not None
                )
            except TypeError_ as exc:
                _refuse(args.file, exc)
            print(dreport.render())
            print(explain_plan(machine=machine is not None, delta=dreport))
            print()
        else:
            ctx = planned(program, args.file)
        plan = ctx.get("plan")
        print(plan.report())

        if args.dot:
            with open(args.dot, "w") as f:
                f.write(to_dot(plan.adg))
            print(f"ADG written to {args.dot}")

        if topology is not None:
            print(f"machine model: {topology.describe()}")

        if args.measure:
            rank = plan.adg.template_rank
            grid = procs * rank if len(procs) == 1 else procs
            if args.measure != "identity":
                try:
                    if len(grid) != rank:
                        raise ValueError(
                            f"a rank-{len(grid)} processor grid for a "
                            f"rank-{rank} template"
                        )
                    machine_record(math.prod(grid), args.topology)
                except ValueError as exc:
                    _refuse(args.file, ValueError(f"--procs {args.procs}: {exc}"))
            traffic = measure_plan(
                plan,
                scheme=args.measure,
                processors=None if args.measure == "identity" else grid,
                topology=topology,
            )
            print(f"machine ({args.measure}): {traffic.summary()}")

        if args.distribute is not None:
            from .distrib import naive_costs
            from .machine import measure_traffic

            profile = ctx.get("profile")
            dplan = ctx.get("distribution")
            print(dplan.render())
            naive = naive_costs(profile, args.distribute, topology)
            for name, cost in sorted(naive.items()):
                print(
                    f"  naive {name:>9s}: hops={cost.hops} moved={cost.moved}"
                )
            traffic = measure_traffic(
                plan.adg,
                plan.alignments,
                dplan.to_distribution(),
                topology=topology,
            )
            print(f"machine (planned): {traffic.summary()}")
        return ctx

    if args.trace_out:
        # The root span wraps the whole run (read, parse, plan, measure,
        # report), so its child tree accounts for essentially all of the
        # measured wall time — what the Perfetto view hangs off of.
        from .obs import spans as obs_spans

        with obs_spans.recording(label=str(args.file)) as rec:
            with obs_spans.span("repro", file=str(args.file)):
                ctx = run_single()
        from .obs import flame, write_chrome_trace

        write_chrome_trace(args.trace_out, rec)
        print(f"\ntrace written to {args.trace_out} "
              f"({len(rec.span_names())} span names)")
        print(flame(rec))
    else:
        ctx = run_single()

    if args.metrics:
        from .obs import registry

        print(registry().render())

    if args.prom_out:
        _write_prom(args.prom_out)

    if args.trace_passes:
        print("\npass trace:")
        print(trace_table(ctx.trace, indent="  "))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
