#!/usr/bin/env python
"""Walkthrough: automatic distribution planning (the paper's phase 2).

The SC'93 paper aligns arrays to a template and defers the mapping of
template cells onto processors.  This example runs the full stack the
repository now provides:

1. align a program (the paper's contribution);
2. compile the aligned ADG into a communication profile;
3. search distributions (scheme per axis x grid shape) for P procs;
4. compare against the naive uniform baselines;
5. verify the modeled cost against the machine simulator;
6. plan the same program for several machines: the machine-independent
   prefix (steps 1-2) is solved once, and each machine runs only the
   distribution suffix on a fork of it.
"""

from repro import align_program, parse
from repro.align.pipeline import planning_records, solve_prefix, solve_suffix
from repro.distrib import build_profile, naive_costs, plan_distribution
from repro.machine import format_table, measure_traffic

# The wavefront workload: the mobile alignment of V makes the template
# traffic skewed, so the best processor grid is NOT the balanced one.
WAVEFRONT = """
real A(24,24), V(48)
do k = 1, 24
  A(k,1:24) = A(k,1:24) * V(k:k+23) + V(k+1:k+24)
enddo
"""

NPROCS = 8

# Three 8-processor machines for step 6.
MACHINES = ("grid:2x4", "torus:2x4", "ring:8")


def main() -> None:
    # -- steps 1-2: align, then profile ---------------------------------
    program = parse(WAVEFRONT, name="wavefront")
    plan = align_program(program, replication=False)
    profile = build_profile(plan.adg, plan.alignments)
    print(plan.report())
    print()
    print(profile.describe())

    # -- step 3: search --------------------------------------------------
    dplan = plan_distribution(profile, NPROCS)
    print()
    print(dplan.render())

    # -- step 4: baselines -----------------------------------------------
    naive = naive_costs(profile, NPROCS)
    rows = [("auto", dplan.directive(), dplan.cost.hops, dplan.cost.moved)]
    for name, cost in sorted(naive.items()):
        rows.append((name, "-", cost.hops, cost.moved))
    print()
    print(
        format_table(
            ["policy", "directive", "hops", "moved"],
            rows,
            title=f"Auto-planned vs naive uniform distributions (P={NPROCS})",
        )
    )

    # -- step 5: validate against the simulator --------------------------
    measured = measure_traffic(plan.adg, plan.alignments, dplan.to_distribution())
    print()
    print(f"simulator check: modeled hops={dplan.cost.hops}, "
          f"measured hops={measured.hop_cost} "
          f"({'exact match' if dplan.cost.hops == measured.hop_cost else 'MISMATCH'})")

    # -- step 6: one prefix, a fork per machine ---------------------------
    options, _ = planning_records(align_kw={"replication": False})
    prefix = solve_prefix(program, options)
    print()
    for spec in MACHINES:
        _, machine = planning_records(topology=spec)
        ctx = solve_suffix(prefix.fork(), machine)
        aligned, dist = ctx.get("plan"), ctx.get("distribution")
        measured = measure_traffic(
            aligned.adg,
            aligned.alignments,
            dist.to_distribution(),
            topology=machine.topology_object(),
        )
        print(f"{spec:10s} {dist.directive()}: modeled hops={dist.cost.hops}, "
              f"measured hops={measured.hop_cost}")
        if dist.cost.hops != measured.hop_cost:
            raise SystemExit(f"{spec}: modeled and measured hops differ")


if __name__ == "__main__":
    main()
