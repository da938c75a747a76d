#!/usr/bin/env python3
"""Quickstart: the paper's Sec. 5.1 example, end to end.

Three jobs arrive on a 3-machine cluster:

1. a short, urgent job — 2 machines for 10 s, deadline 10 s;
2. a long, small job — 1 machine for 20 s, deadline 40 s;
3. a short, large job — 3 machines for 10 s, deadline 20 s.

Only *global scheduling with plan-ahead* meets all three deadlines: job 1
must run now, job 3 at t=10, job 2 at t=20 (Fig. 4).  This script submits
the jobs to TetriSched and prints the schedule it actually produces.

Run:  python examples/quickstart.py
"""

from repro import (Cluster, JobRequest, PriorityClass, Scheduler,
                   SpaceOption, TetriSchedConfig)
from repro.valuefn import StepValue


def main() -> None:
    cluster = Cluster.build(racks=1, nodes_per_rack=3)
    sched = Scheduler.open(cluster, TetriSchedConfig(
        quantum_s=10, cycle_s=10, plan_ahead_s=30, backend="auto",
        rel_gap=1e-6))

    everything = cluster.node_names
    jobs = [
        ("short-urgent", 2, 10, 10),   # k, runtime, deadline
        ("long-small", 1, 20, 40),
        ("short-large", 3, 10, 20),
    ]
    for name, k, runtime, deadline in jobs:
        sched.submit(JobRequest(
            job_id=name,
            options=(SpaceOption(everything, k=k, duration_s=runtime),),
            value_fn=StepValue(1000.0, deadline),
            priority=PriorityClass.SLO_ACCEPTED,
            submit_time=0.0, deadline=float(deadline)))

    print("t=0s cycle:")
    now = 0.0
    finished: list[tuple[str, float]] = []
    running: dict[str, float] = {}
    while sched.pending_count or running:
        # Complete anything due before/at this cycle.
        for job_id, end in sorted(running.items(), key=lambda kv: kv[1]):
            if end <= now:
                sched.job_finished(job_id, end)
                finished.append((job_id, end))
                del running[job_id]
        result = sched.run_cycle(now)
        for alloc in result.allocations:
            print(f"  t={now:>4.0f}s  launch {alloc.job_id:<13s} on "
                  f"{sorted(alloc.nodes)} until t={alloc.expected_end:.0f}s")
            running[alloc.job_id] = alloc.expected_end
        now += sched.config.cycle_s
        if now > 100:
            break

    for job_id, end in sorted(running.items(), key=lambda kv: kv[1]):
        finished.append((job_id, end))
    print("\nCompletions:")
    deadline_of = {name: d for name, _, _, d in jobs}
    for job_id, end in sorted(finished, key=lambda kv: kv[1]):
        status = "MET" if end <= deadline_of[job_id] else "MISSED"
        print(f"  {job_id:<13s} finished t={end:>3.0f}s "
              f"(deadline {deadline_of[job_id]:>2d}s) -> {status}")


if __name__ == "__main__":
    main()
