"""Runs a cycle's stages in order, timing each under an obs span."""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Sequence

from repro import obs
from repro.pipeline.stages import (Audit, Compilation, Decompose, Extract,
                                   GreedyScheduling, ModelBuild, Solve, Stage,
                                   StrlGeneration)

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.context import CycleContext


class CyclePipeline:
    """An ordered list of stages plus the loop that drives them.

    Each stage runs under ``obs.span(stage.name)`` (nested under the
    scheduler's ``"cycle"`` span) and its wall-clock time accumulates in
    ``ctx.stats.stage_timings[stage.name]``.  A stage that calls
    ``ctx.halt()`` stops the cycle; stages after it never run.
    """

    def __init__(self, stages: Sequence[Stage]) -> None:
        self.stages: tuple[Stage, ...] = tuple(stages)

    @property
    def stage_names(self) -> tuple[str, ...]:
        return tuple(stage.name for stage in self.stages)

    def run(self, ctx: "CycleContext") -> "CycleContext":
        for stage in self.stages:
            if ctx.halted:
                break
            t0 = time.monotonic()
            with obs.span(stage.name):
                stage.run(ctx)
            timings = ctx.stats.stage_timings
            timings[stage.name] = (timings.get(stage.name, 0.0)
                                   + time.monotonic() - t0)
        return ctx


def global_pipeline(audit: bool = False) -> CyclePipeline:
    """The full global-rescheduling cycle (paper Sec. 3 + sparse core).

    With ``audit=True`` (``TetriSchedConfig.audit_mode``) an extra final
    stage replays every solve through the :mod:`repro.verify` oracles and
    raises on the first cycle that fails the certificate or the
    space-time schedule audit.
    """
    stages: list[Stage] = [StrlGeneration(), Compilation(), ModelBuild(),
                           Decompose(), Solve(), Extract()]
    if audit:
        stages.append(Audit())
    return CyclePipeline(stages)


def greedy_pipeline() -> CyclePipeline:
    """The -NG ablation cycle: generate, then schedule one job at a time."""
    return CyclePipeline([StrlGeneration(), GreedyScheduling()])
