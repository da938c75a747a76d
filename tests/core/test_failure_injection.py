"""Failure-injection tests: the system degrades gracefully, never corrupts.

Scenarios: a solver backend that finds nothing, a backend that crashes,
preemption bookkeeping inconsistencies, and trace-invariant violations.
"""

import math

import numpy as np
import pytest

from repro.api import Scheduler
from repro.cluster import Cluster
from repro.core import JobRequest, PriorityClass, TetriSchedConfig
from repro.errors import SimulationError, SolverError
from repro.sim import EventKind, EventQueue, ExecutionTrace
from repro.sim.trace import COMPLETION, LAUNCH
from repro.solver import BranchBoundOptions, BranchBoundSolver, Model
from repro.solver.result import MILPResult, SolveStatus
from repro.strl import SpaceOption
from repro.valuefn import StepValue


class _NoSolutionBackend:
    """A backend that always gives up (e.g., a zero time budget)."""

    def solve(self, model, options=None):
        return MILPResult(SolveStatus.NO_SOLUTION, None, math.nan)


class _CrashingBackend:
    def solve(self, model, options=None):
        raise SolverError("boom")


def make_sched(backend=None):
    cluster = Cluster.build(racks=1, nodes_per_rack=4)
    sched = Scheduler.open(cluster, TetriSchedConfig(
        quantum_s=10, cycle_s=10, plan_ahead_s=40)).core
    if backend is not None:
        sched._backend = backend
    request = JobRequest(
        "j", (SpaceOption(cluster.node_names, 2, 20.0),),
        StepValue(1000.0, 200.0), PriorityClass.SLO_ACCEPTED, 0.0,
        deadline=200.0)
    sched.submit(request)
    return sched


class TestSolverFailures:
    def test_no_solution_schedules_nothing_keeps_queue(self):
        sched = make_sched(_NoSolutionBackend())
        result = sched.run_cycle(0.0)
        assert result.allocations == []
        assert sched.pending_count == 1  # job not lost

    def test_crashing_backend_propagates_cleanly(self):
        sched = make_sched(_CrashingBackend())
        with pytest.raises(SolverError):
            sched.run_cycle(0.0)
        # State untouched: nothing launched, queue intact.
        assert sched.pending_count == 1
        assert not sched.state.running_jobs

    def test_zero_time_budget_pure_solver(self):
        m = Model()
        xs = [m.add_binary(f"x{i}") for i in range(10)]
        m.add_constraint(sum(xs), "<=", 5)
        m.set_objective(sum(xs), sense="maximize")
        res = BranchBoundSolver(BranchBoundOptions(
            time_limit=0.0, presolve=False)).solve(m)
        assert res.status in (SolveStatus.NO_SOLUTION, SolveStatus.FEASIBLE,
                              SolveStatus.OPTIMAL)
        # A NO_SOLUTION result never carries a point.
        if res.status == SolveStatus.NO_SOLUTION:
            assert res.x is None


class TestBookkeepingFailures:
    def test_trace_double_booking_detected(self):
        tr = ExecutionTrace()
        tr.record(0.0, LAUNCH, "a", nodes=("n1",))
        tr.record(5.0, LAUNCH, "b", nodes=("n1",))
        tr.record(10.0, COMPLETION, "a")
        tr.record(12.0, COMPLETION, "b")
        with pytest.raises(SimulationError):
            tr.check_no_double_booking()

    def test_trace_clean_run_passes(self):
        tr = ExecutionTrace()
        tr.record(0.0, LAUNCH, "a", nodes=("n1",))
        tr.record(10.0, COMPLETION, "a")
        tr.record(10.0, LAUNCH, "b", nodes=("n1",))
        tr.record(20.0, COMPLETION, "b")
        tr.check_no_double_booking()  # back-to-back is fine

    def test_event_queue_rejects_time_travel(self):
        q = EventQueue()
        with pytest.raises(SimulationError):
            q.push(-0.1, EventKind.JOB_ARRIVAL)


class TestLpExport:
    def test_lp_string_structure(self):
        m = Model("demo")
        x = m.add_integer("x", ub=5)
        b = m.add_binary("flag")
        m.add_constraint(x + 2 * b, "<=", 6, name="cap")
        m.set_objective(x + b, sense="maximize")
        text = m.to_lp_string()
        assert text.startswith("\\ Model: demo")
        assert "Maximize" in text
        assert "cap:" in text
        assert "Generals" in text and "Binaries" in text
        assert text.rstrip().endswith("End")

    def test_lp_string_sanitizes_names(self):
        m = Model()
        v = m.add_continuous("P[nCk#1,p0]")
        m.add_constraint(v, "<=", 1)
        text = m.to_lp_string()
        assert "P_nCk_1_p0_" in text
        assert "[" not in text.split("\n", 1)[1]
