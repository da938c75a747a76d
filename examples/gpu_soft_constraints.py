#!/usr/bin/env python3
"""Soft constraints + plan-ahead: when is waiting for a GPU worth it?

A GPU job (Fig. 1/3 of the paper) runs 10 s on GPU nodes and 40 s anywhere
else, with a 45 s deadline.  The GPU rack is busy for the next 10 s.  With
plan-ahead, TetriSched *defers* the job, grabs the GPUs at t=10 and finishes
at t=20.  Without plan-ahead (TetriSched-NP, i.e. alsched) the only start
time considered is "now", so the scheduler settles for the slow fallback and
finishes at t=40 — twice as late, and it burns non-GPU capacity for 4x
longer.

This demonstrates the paper's core claim: plan-ahead lets the scheduler
make informed deferral decisions instead of hoarding or settling.

Run:  python examples/gpu_soft_constraints.py
"""

from repro import (Cluster, JobRequest, PriorityClass, Scheduler,
                   SpaceOption, TetriSchedConfig)
from repro.valuefn import StepValue


def drive(plan_ahead_s: float) -> str:
    cluster = Cluster.build(racks=2, nodes_per_rack=2, gpu_racks=1)
    gpu_nodes = cluster.nodes_with_attr("gpu")
    sched = Scheduler.open(cluster, TetriSchedConfig(
        quantum_s=10, cycle_s=10, plan_ahead_s=plan_ahead_s,
        backend="auto", rel_gap=1e-6))

    # Something else holds the GPU rack until t=10.
    sched.state.start("gpu-holder", gpu_nodes, 0.0, 10.0)

    sched.submit(JobRequest(
        job_id="gpu-job",
        options=(SpaceOption(gpu_nodes, k=2, duration_s=10, label="gpu"),
                 SpaceOption(cluster.node_names, k=2, duration_s=40,
                             label="anywhere")),
        value_fn=StepValue(1000.0, 45.0),
        priority=PriorityClass.SLO_ACCEPTED, submit_time=0.0, deadline=45.0))

    log = []
    for now in (0.0, 10.0, 20.0, 30.0):
        if now == 10.0:
            sched.job_finished("gpu-holder", now)
        result = sched.run_cycle(now)
        for alloc in result.allocations:
            placement = ("GPU rack" if alloc.nodes <= gpu_nodes
                         else "non-GPU fallback")
            log.append(f"t={now:.0f}s: launched on {placement}, "
                       f"finishes t={alloc.expected_end:.0f}s "
                       f"({'MET' if alloc.expected_end <= 45 else 'MISSED'})")
        for culled in result.culled:
            log.append(f"t={now:.0f}s: {culled} culled "
                       "(deadline unreachable)")
        if not sched.pending_count:
            break
    if sched.pending_count:
        log.append("job never launched")
    return "\n    ".join(log) if log else "nothing happened"


def main() -> None:
    print("GPU job: 10s on GPUs / 40s anywhere, deadline 45s;"
          " GPU rack busy until t=10s\n")
    print(f"  With plan-ahead (96s window):\n    {drive(96.0)}\n")
    print(f"  Without plan-ahead (TetriSched-NP / alsched):\n    {drive(0.0)}")


if __name__ == "__main__":
    main()
