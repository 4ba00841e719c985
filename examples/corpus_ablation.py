#!/usr/bin/env python
"""Ablate the paper's two alignment features over a generated corpus.

Mobile offsets (Section 4) and replication labeling (Section 5) are
the paper's two additions to static alignment.  This example plans one
generated corpus under five variants — both features with the default
fixed partitioning (m = 3) or the exact unrolling, either feature off,
both off — with one ``plan_many`` call per variant, and reports each
variant's summed equation-1 cost and the hops of the distributions it
chose for 4 processors.  The five calls run on the same worker
processes: ``plan_many`` forks its pool at the first call and keeps it.
"""

from fractions import Fraction

from repro.batch import plan_many
from repro.lang.generate import generate_corpus
from repro.machine import format_table

VARIANTS = {
    "mobile + replication": {},
    "the same, exact unrolling": {"algorithm": "unrolling"},
    "static offsets": {"mobile": False},
    "no replication": {"replication": False},
    "neither": {"mobile": False, "replication": False},
}


def main() -> None:
    corpus = generate_corpus(14, seed=0)
    rows = []
    for label, align_kw in VARIANTS.items():
        report = plan_many(corpus, nprocs=4, jobs=2, align_kw=align_kw)
        if report.failures:
            raise SystemExit(f"{label}: {report.failures[0].error}")
        cost = sum(Fraction(r.total_cost) for r in report.results)
        hops = sum(r.dist_hops for r in report.results)
        rows.append((label, str(cost), hops, report.mode))
    print(
        format_table(
            ["variant", "eq.1 cost", "hops (P=4)", "mode"],
            rows,
            title=f"{len(corpus)} generated programs, one plan_many per variant",
        )
    )


if __name__ == "__main__":
    main()
