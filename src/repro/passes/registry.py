"""The chain of passes.

:data:`PASSES` is the whole compilation pipeline, seven passes in the
paper's order: the alignment prefix (machine-independent), the profile
bridge, and the machine-dependent distribution suffix.  Each pass
requires what the one before it provides, so a
:class:`~repro.passes.core.Pipeline` asked for a goal ("plan",
"profile", "distribution") runs the chain up to the last pass that
provides it.
"""

from __future__ import annotations

from .align_passes import (
    AssemblePass,
    AxisStridePass,
    BuildADGPass,
    ReplicationFixpointPass,
    TypecheckPass,
)
from .distrib_passes import CommProfilePass, DistributePass

PASSES = (
    TypecheckPass(),
    BuildADGPass(),
    AxisStridePass(),
    ReplicationFixpointPass(),
    AssemblePass(),
    CommProfilePass(),
    DistributePass(),
)
