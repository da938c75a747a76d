"""Ablation: warm-starting the solver from the previous cycle (Sec. 3.2.2).

"As the plan-ahead window shifts forward in time with each cycle, we cache
solver results to serve as a feasible initial solution for the next cycle's
solver invocation.  We find this optimization to be quite effective."

Measured with the pure-Python branch-and-bound backend (scipy/HiGHS has no
warm-start hook): B&B nodes explored on the second cycle with and without a
seed.  The seeded run must never explore more nodes, and the schedules must
launch the same jobs.
"""

import numpy as np
from conftest import save_and_print

from repro.api import Scheduler
from repro.cluster import Cluster
from repro.core import JobRequest, PriorityClass, TetriSchedConfig
from repro.core.compiler import StrlCompiler
from repro.experiments import format_table
from repro.solver import (BranchBoundOptions, BranchBoundSolver,
                          SolveOptions)
from repro.strl import SpaceOption
from repro.valuefn import StepValue


def build_scheduler(warm):
    cluster = Cluster.build(racks=2, nodes_per_rack=4, gpu_racks=1)
    cfg = TetriSchedConfig(quantum_s=10, cycle_s=10, plan_ahead_s=60,
                           backend="pure", rel_gap=1e-6, warm_start=warm)
    sched = Scheduler.open(cluster, cfg).core
    for i in range(6):
        sched.submit(JobRequest(
            f"j{i}", options=(SpaceOption(cluster.node_names, k=4,
                                          duration_s=20),),
            value_fn=StepValue(1000.0, 400.0),
            priority=PriorityClass.SLO_ACCEPTED, submit_time=0.0,
            deadline=400.0))
    return sched


def second_cycle_nodes(warm: bool) -> tuple[int, int]:
    """(B&B nodes on cycle 2, jobs launched on cycle 2)."""
    sched = build_scheduler(warm)
    sched.run_cycle(0.0)
    # Recompile cycle 2 by hand so we can observe solver node counts.
    exprs = [(job_id, sched._generate(req, 10.0))
             for job_id, req in sched.queues.items()]
    compiled = StrlCompiler(sched.state, 10.0, 10.0).compile(exprs)
    seed = sched._build_warm_start(compiled, 10.0) if warm else None
    solver = BranchBoundSolver(BranchBoundOptions(rel_gap=1e-6))
    res = solver.solve(compiled.model,
                       options=SolveOptions(warm_start=seed))
    return res.nodes, res.objective


def test_warm_start_reduces_search(benchmark):
    def run():
        return second_cycle_nodes(True)

    warm_nodes, warm_obj = benchmark.pedantic(run, rounds=3, iterations=1)
    cold_nodes, cold_obj = second_cycle_nodes(False)

    text = ("Ablation: warm start from previous cycle (pure B&B backend)\n"
            + format_table(["configuration", "B&B nodes", "objective"],
                           [["warm-started", warm_nodes, warm_obj],
                            ["cold", cold_nodes, cold_obj]]))
    save_and_print("ablation_warmstart", text)

    assert warm_obj == cold_obj  # same schedule quality
    assert warm_nodes <= cold_nodes  # never a larger search
