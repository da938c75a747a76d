"""Shared mutable state threaded through one scheduling cycle's stages."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotations only, avoids import cycle
    from repro.core.compiler import CompiledBatch, ResizeCandidate
    from repro.core.delta import CycleDelta
    from repro.core.scheduler import (CycleResult, CycleStats, JobRequest,
                                      TetriSched, TetriSchedConfig)
    from repro.shard.coordinator import ShardCycle
    from repro.solver.decompose import Decomposition
    from repro.solver.result import MILPResult
    from repro.strl.ast import StrlNode


@dataclass
class CycleContext:
    """Everything one cycle's stages read and write.

    Earlier stages populate the fields later stages consume and fold
    their solver work into ``stats``, the cycle's record; the driver
    fills ``stats.stage_timings``.  The context never outlives the cycle.
    """

    scheduler: "TetriSched"
    now: float
    result: "CycleResult"
    stats: "CycleStats"

    #: (job_id, STRL root) per schedulable pending job — plus, with
    #: ``elastic_mode``, one resize fragment per running elastic job.
    exprs: list[tuple[str, "StrlNode"]] = field(default_factory=list)
    requests: dict[str, "JobRequest"] = field(default_factory=dict)
    #: Running elastic jobs re-entered as width re-planning candidates
    #: (``elastic_mode``); their fragments sit at the tail of ``exprs``.
    resizable: list["ResizeCandidate"] = field(default_factory=list)
    compiled: "CompiledBatch | None" = None
    #: What the delta compiler recompiled vs replayed (``delta_mode != off``).
    delta: "CycleDelta | None" = None
    warm_start: np.ndarray | None = None
    decomposition: "Decomposition | None" = None
    solution: "MILPResult | None" = None
    #: Sharded-cycle working set (``shard_mode != off``), owned by the
    #: :mod:`repro.shard` stages: per-domain batches, solves, boundary
    #: jobs, and the reconciliation coupling model.
    shard: "ShardCycle | None" = None
    halted: bool = False

    @property
    def config(self) -> "TetriSchedConfig":
        return self.scheduler.config

    def halt(self) -> None:
        """Skip all remaining stages of this cycle."""
        self.halted = True
