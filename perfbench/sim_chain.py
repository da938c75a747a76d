"""Drive a chain of simulations and time each scheduling cycle from outside."""

from __future__ import annotations

import time

from perfbench.record import PassRecord


class TimedScheduler:
    """Delegates every call to a simulator scheduler; times ``cycle``.

    The simulator talks to this object exactly as it would to the wrapped
    :class:`~repro.sim.adapters.TetriSchedAdapter`: every call and every
    return value passes through unchanged, so decisions are those of the
    wrapped scheduler.  Each ``cycle`` call's start and end on ``clock``
    (this thread's CPU clock by default) are recorded with the number of
    jobs pending when it started.
    """

    def __init__(self, inner, clock=time.thread_time) -> None:
        self.inner = inner
        self.name = inner.name
        self.cycle_s = inner.cycle_s
        self.clock = clock
        #: ``((start, end), pending_before, decisions)`` per cycle call.
        self.cycles: list[tuple[tuple[float, float], int, object]] = []

    def submit(self, job, accepted: bool, now: float) -> None:
        self.inner.submit(job, accepted, now)

    def cycle(self, now: float):
        pending = self.inner.scheduler.pending_count
        t0 = self.clock()
        decisions = self.inner.cycle(now)
        self.cycles.append(((t0, self.clock()), pending, decisions))
        return decisions

    def job_finished(self, job_id: str, now: float) -> None:
        self.inner.job_finished(job_id, now)

    @property
    def active_jobs(self) -> int:
        return self.inner.active_jobs


def run_simulation(chain, jobs: list, sim_seed: int, audit: bool,
                   timed: bool = True):
    """Simulate one job list; returns ``(result, trace, scheduler)``.

    ``timed=False`` drives the adapter directly (no :class:`TimedScheduler`)
    — the reference the tests compare the timed path against.
    """
    from repro.cluster.cluster import Cluster
    from repro.reservation.rayon import RayonReservationSystem
    from repro.sim.adapters import TetriSchedAdapter
    from repro.sim.engine import Simulation
    from repro.sim.trace import ExecutionTrace

    cluster = Cluster.build(chain.racks, chain.nodes_per_rack)
    config = chain.scheduler_config(sim_seed, audit)
    adapter = TetriSchedAdapter(cluster, config)
    scheduler = TimedScheduler(adapter) if timed else adapter
    rayon = RayonReservationSystem(capacity=len(cluster),
                                   step_s=chain.cycle_s)
    trace = ExecutionTrace()
    sim = Simulation(cluster, scheduler, jobs, rayon=rayon,
                     max_time_s=100_000.0, trace=trace)
    return sim.run(), trace, scheduler


def run_pass(chain, workloads: list, seed: int, audit: bool = False,
             keep_stats: bool = False, start: int = 0) -> PassRecord:
    """Simulate each job list in order; ``start`` is the first one's index.

    The index picks the simulation's scheduler seed.  Correctness is
    checked after each simulation's timed section: the execution trace
    must show no node hosting two jobs at once, and every job must end
    completed or culled.
    """
    from repro.sim.trace import COMPLETION, CULL

    from perfbench.workloads import derive_seed

    rec = PassRecord()
    for i, jobs in enumerate(workloads, start):
        try:
            result, trace, timed = run_simulation(
                chain, jobs, derive_seed(seed, i), audit)
        except Exception as exc:  # a failed cycle is reported, not fatal
            rec.attempted += 1
            rec.failed_cycles += 1
            rec.errors.append(f"sim {i}: {type(exc).__name__}: {exc}")
            continue
        pending_cycles = [(mark, d) for mark, pending, d in timed.cycles
                          if pending > 0]
        rec.attempted += len(pending_cycles)
        for mark, d in pending_cycles:
            rec.cycle_marks.append(mark)
            launched = len(d.allocations) - len(d.resized)
            objective = d.stats.objective if d.stats is not None else 0.0
            if launched == 0 and objective == 0.0:
                rec.empty_plans += 1
            if keep_stats and d.stats is not None:
                rec.stats.append(d.stats)
        finalized = len(trace.of_kind(COMPLETION)) + len(trace.of_kind(CULL))
        problems = []
        try:
            trace.check_no_double_booking()
        except Exception as exc:
            problems.append(str(exc))
        if finalized != len(jobs):
            problems.append(f"{len(jobs) - finalized} of {len(jobs)} jobs "
                            f"never completed or culled")
        if problems:
            rec.failed_cycles += len(pending_cycles)
            rec.errors.extend(f"sim {i}: {p}" for p in problems)
        rec.jobs_finalized += finalized
        rec.sim_events += int(sum(
            v for k, v in result.profile.counters.items()
            if k.startswith("sim.events.")))
        for outcome in result.outcomes.values():
            if outcome.start_time is not None:
                rec.launch_waits.append(outcome.start_time
                                        - outcome.submit_time)
            if outcome.is_slo:
                rec.slo_total += 1
                rec.slo_met += int(outcome.met_deadline)
            elif outcome.latency is not None:
                rec.be_latencies.append(outcome.latency)
    return rec
