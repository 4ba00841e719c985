"""Distribution plans: the planner's output representation.

The paper's deferred second phase assigns each template axis an HPF-style
distribution onto one axis of a processor grid.  A
:class:`DistributionPlan` records that choice — per axis one of the
simulator's scheme records (:data:`repro.machine.distribution.SCHEMES`:
``Block``, ``Cyclic`` or ``BlockCyclic``, each with its processor count,
block size and base cell) — together with the modeled communication
cost; :meth:`DistributionPlan.to_distribution` hands those same records
to the simulator as a :class:`repro.machine.Distribution`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..machine.distribution import AxisDistribution, Distribution
from .costmodel import CostVector


@dataclass(frozen=True)
class DistributionPlan:
    """A complete template distribution chosen by the planner.

    ``axes`` holds one scheme record per template axis; each ``base``
    anchors its axis at the lowest template cell the axis actually
    touches, which keeps mobile-offset traffic inside the covered range.
    ``exact`` is always true (the planner's one search is optimal over
    the candidate space); it stays for the payload format, which carries
    it.  ``searched`` counts candidate distributions
    the planner evaluated.  ``topology`` is the interconnect spec the
    plan was priced on (``None``: the paper's default L1 grid machine).
    """

    axes: tuple[AxisDistribution, ...]
    cost: CostVector
    exact: bool = True
    searched: int = 0
    topology: Optional[str] = None

    @property
    def rank(self) -> int:
        return len(self.axes)

    @property
    def grid(self) -> tuple[int, ...]:
        return tuple(a.nprocs for a in self.axes)

    @property
    def num_processors(self) -> int:
        n = 1
        for p in self.grid:
            n *= p
        return n

    def to_distribution(self) -> Distribution:
        return Distribution(self.axes)

    def directive(self) -> str:
        """One-line HPF-style distribute directive."""
        axes = ", ".join(a.render() for a in self.axes)
        grid = ", ".join(str(p) for p in self.grid)
        return f"DISTRIBUTE T({axes}) ONTO P({grid})"

    def render(self) -> str:
        mode = "exact" if self.exact else "approximate"
        machine = f" on {self.topology}" if self.topology else ""
        lines = [
            f"distribution plan ({self.num_processors} processors{machine}, "
            f"{mode}, {self.searched} candidates searched)",
            f"  {self.directive()}",
        ]
        for t, a in enumerate(self.axes):
            lines.append(
                f"  axis {t}: {a.render():>12s} on {a.nprocs} proc(s), "
                f"base cell {a.base}"
            )
        lines.append(
            f"  modeled cost: hops={self.cost.hops} moved={self.cost.moved} "
            f"broadcast={self.cost.broadcast}"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<DistributionPlan {self.directive()} hops={self.cost.hops}>"
