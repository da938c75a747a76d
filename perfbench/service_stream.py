"""Drive a long-lived scheduler service with an open-loop arrival stream.

The service runs in process on a :class:`~repro.service.clock.FakeClock`.
The generator advances the clock to each job's due time and submits it
through the JSON front door (``submit_spec``), so every job is timed from
when it was due and the generator is never late; then the clock moves to
the next cycle instant and ``run_one_cycle`` runs, timed from outside on
this thread's CPU clock.
"""

from __future__ import annotations

import time

from perfbench.record import PassRecord

#: Cycles past the last arrival allowed for the backlog to drain.
DRAIN_CYCLES = 400


def _advance_to(clock, t: float) -> None:
    if t > clock.now():
        clock.advance(t - clock.now())


def check_node_intervals(records) -> list[str]:
    """Node double-bookings among the service's job records.

    A job occupies its nodes from ``started_at`` until it ended: its
    ``expected_end`` under auto-completion, or the cancel time when it was
    cancelled while running.
    """
    per_node: dict[str, list[tuple[float, float, str]]] = {}
    for rec in records:
        if rec.started_at is None or not rec.nodes:
            continue
        end = rec.expected_end
        if rec.finished_at is not None and rec.state == "cancelled":
            end = min(end, rec.finished_at)
        for node in rec.nodes:
            per_node.setdefault(node, []).append(
                (rec.started_at, end, rec.job_id))
    problems = []
    for node, spans in per_node.items():
        spans.sort()
        for (s1, e1, j1), (s2, e2, j2) in zip(spans, spans[1:]):
            if s2 < e1 - 1e-9:
                problems.append(f"node {node} double-booked: {j1} "
                                f"[{s1},{e1}) overlaps {j2} [{s2},{e2})")
    return problems


def run_pass(stream, jobs: list, seed: int, audit: bool = False,
             keep_stats: bool = False, index: int = 0) -> PassRecord:
    """One service lifetime: submit the stream, cycle until it drains.

    ``jobs`` is lifetime ``index``'s arrival stream; the index picks the
    service's scheduler seed.
    """
    from perfbench.workloads import derive_seed

    from repro.cluster.cluster import Cluster
    from repro.service.clock import FakeClock
    from repro.service.service import SchedulerService

    rec = PassRecord()
    clock = FakeClock()
    service = SchedulerService(
        Cluster.build(stream.racks, stream.nodes_per_rack),
        stream.scheduler_config(derive_seed(seed, index), audit), clock=clock,
        auto_complete=True)
    cancels: dict[int, list[str]] = {}
    kinds: dict[str, str] = {}
    for job in jobs:
        kinds[job.spec["job_id"]] = job.kind
        if job.cancel_cycle is not None:
            cancels.setdefault(job.cancel_cycle, []).append(
                job.spec["job_id"])
    terminal = ("completed", "cancelled", "culled")

    nxt = 0
    cycle = 0
    try:
        while cycle < stream.arrival_cycles + DRAIN_CYCLES:
            cycle += 1
            now = cycle * stream.cycle_s
            while nxt < len(jobs) and jobs[nxt].due_s <= now:
                _advance_to(clock, jobs[nxt].due_s)
                service.submit_spec(jobs[nxt].spec)
                nxt += 1
            _advance_to(clock, now)
            for job_id in cancels.get(cycle - 1, ()):
                service.cancel(job_id)
            pending = service.scheduler.pending_count
            if pending:
                rec.attempted += 1
            t0 = time.thread_time()
            result = service.run_one_cycle()
            t1 = time.thread_time()
            if pending:
                rec.cycle_marks.append((t0, t1))
                stats = result.stats
                if not result.allocations and stats.objective == 0.0:
                    rec.empty_plans += 1
                if keep_stats:
                    rec.stats.append(stats)
            if nxt == len(jobs) and all(
                    r.state in terminal for r in service.jobs()):
                break
    except Exception as exc:  # the failing cycle is counted, not fatal
        rec.failed_cycles += 1
        rec.errors.append(f"cycle {cycle}: {type(exc).__name__}: {exc}")
        return rec

    records = service.jobs()
    final = service.drain()
    problems = check_node_intervals(records)
    if not final["clean"]:
        problems.append(f"drain not clean: {final['ledger_orphans']}")
    unfinished = [r.job_id for r in records if r.state not in terminal]
    if unfinished or nxt != len(jobs):
        problems.append(f"{len(unfinished) + len(jobs) - nxt} jobs never "
                        f"reached a final state")
    if problems:
        rec.failed_cycles += rec.attempted
        rec.errors.extend(problems)

    for r in records:
        if r.state in terminal:
            rec.jobs_finalized += 1
        if r.started_at is not None:
            rec.launch_waits.append(r.started_at - r.submitted_at)
        kind = kinds[r.job_id]
        if r.state == "cancelled":
            continue
        if kind == "best_effort":
            if r.expected_end is not None:
                rec.be_latencies.append(r.expected_end - r.submitted_at)
        else:
            rec.slo_total += 1
            rec.slo_met += int(r.expected_end is not None
                               and r.request.deadline is not None
                               and r.expected_end
                               <= r.request.deadline + 1e-9)
    return rec
