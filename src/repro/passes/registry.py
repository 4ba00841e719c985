"""The standard pass registry.

``default_passes()`` is the full compilation pipeline, a chain of seven
passes: the alignment prefix (machine-independent), the profile bridge,
and the machine-dependent distribution suffix.  Consumers that need a
subset ask the :class:`~repro.passes.core.Pipeline` for a goal
("plan", "profile", "distribution") and get exactly the passes that
goal transitively requires.
"""

from __future__ import annotations

import functools

from .align_passes import (
    AssemblePass,
    AxisStridePass,
    BuildADGPass,
    ReplicationFixpointPass,
    TypecheckPass,
)
from .core import Pass, Pipeline
from .distrib_passes import CommProfilePass, DistributePass


def alignment_passes() -> list[Pass]:
    """The paper's alignment phases (all machine-independent)."""
    return [
        TypecheckPass(),
        BuildADGPass(),
        AxisStridePass(),
        ReplicationFixpointPass(),
        AssemblePass(),
    ]


def default_passes() -> list[Pass]:
    """The complete registered pipeline, in dependency order."""
    return alignment_passes() + [
        CommProfilePass(),
        DistributePass(),
    ]


@functools.cache
def default_pipeline() -> Pipeline:
    """The one pipeline over :func:`default_passes` that the planning
    kernel (:mod:`repro.align.pipeline`) and :func:`~repro.passes.delta.replan`
    run every context through."""
    return Pipeline(default_passes())
