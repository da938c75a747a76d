"""What one pass over a workload's inputs produced."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class PassRecord:
    """Timings, outcomes and correctness of one pass over the inputs."""

    #: Start and end, on this thread's CPU clock, of each cycle that started
    #: with >= 1 pending job.
    cycle_marks: list[tuple[float, float]] = field(default_factory=list)
    #: Of those cycles: how many launched nothing and returned objective 0.
    empty_plans: int = 0
    #: Cycles that started with >= 1 pending job, including any that raised.
    attempted: int = 0
    #: Cycles that raised, or belong to a run that failed a check.
    failed_cycles: int = 0
    #: Jobs that reached a final state (completed, culled, cancelled).
    jobs_finalized: int = 0
    #: Submit -> launch waits, in simulated or service-clock seconds.
    launch_waits: list[float] = field(default_factory=list)
    slo_met: int = 0
    slo_total: int = 0
    #: Best-effort submit -> completion latencies (clock seconds).
    be_latencies: list[float] = field(default_factory=list)
    #: ``CycleStats`` of every cycle with pending work (traced runs read
    #: the program's own counters from these).
    stats: list = field(default_factory=list)
    #: Descriptions of every failed correctness check or exception.
    errors: list[str] = field(default_factory=list)
    #: Discrete events the simulator processed (simulation workloads).
    sim_events: int = 0

    def quality(self) -> tuple:
        """The decision-quality outcome, for bit-equality checks."""
        return (tuple(self.launch_waits), self.slo_met, self.slo_total,
                tuple(self.be_latencies), self.empty_plans)
