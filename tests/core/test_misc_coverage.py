"""Targeted coverage for smaller corners of the scheduler stack."""

import pytest

from repro.api import Scheduler
from repro.cluster import Cluster
from repro.core import JobRequest, PriorityClass, TetriSchedConfig
from repro.core.compiler import PreemptionCandidate, StrlCompiler
from repro.cluster import ClusterState
from repro.solver import make_backend
from repro.strl import NCk, SpaceOption
from repro.valuefn import StepValue, best_effort_value

M3 = frozenset({"M1", "M2", "M3"})


class TestPreemptionCompiler:
    def test_preemption_variable_off_when_not_worth_it(self):
        state = ClusterState(M3)
        state.start("victim", M3, 0.0, 100.0)
        batch = [("cheap", NCk(M3, 1, 0, 1, 1.0))]  # value 1 < penalty 5
        compiled = StrlCompiler(state, 10).compile(
            batch, preemptible=[PreemptionCandidate("victim", M3, 5.0)])
        res = make_backend("auto").solve(compiled.model)
        assert compiled.preempted_jobs(res.x) == []
        assert res.objective == pytest.approx(0.0)

    def test_preemption_variable_on_when_value_dominates(self):
        state = ClusterState(M3)
        state.start("victim", M3, 0.0, 100.0)
        batch = [("slo", NCk(M3, 3, 0, 1, 1000.0))]
        compiled = StrlCompiler(state, 10).compile(
            batch, preemptible=[PreemptionCandidate("victim", M3, 5.0)])
        res = make_backend("auto").solve(compiled.model)
        assert compiled.preempted_jobs(res.x) == ["victim"]
        assert res.objective == pytest.approx(1000.0 - 5.0)

    def test_partial_victim_overlap(self):
        """A victim holding only part of a partition frees only that part."""
        state = ClusterState(M3)
        victim_nodes = frozenset({"M1"})
        state.start("victim", victim_nodes, 0.0, 100.0)
        batch = [("slo", NCk(M3, 3, 0, 1, 1000.0))]
        compiled = StrlCompiler(state, 10).compile(
            batch, preemptible=[PreemptionCandidate("victim", victim_nodes,
                                                    2.0)])
        res = make_backend("auto").solve(compiled.model)
        assert compiled.preempted_jobs(res.x) == ["victim"]
        assert res.objective == pytest.approx(998.0)


class TestGreedyWithPreemptionFlag:
    def test_greedy_mode_ignores_preemption_flag(self):
        """-NG doesn't implement preemption; the flag must be harmless."""
        cluster = Cluster.build(racks=1, nodes_per_rack=4)
        sched = Scheduler.open(cluster, TetriSchedConfig(
            quantum_s=10, cycle_s=10, plan_ahead_s=40,
            global_scheduling=False, enable_preemption=True)).core
        sched.submit(JobRequest(
            "be", (SpaceOption(cluster.node_names, 4, 100.0),),
            best_effort_value(0.0), PriorityClass.BEST_EFFORT, 0.0))
        sched.run_cycle(0.0)
        sched.submit(JobRequest(
            "slo", (SpaceOption(cluster.node_names, 4, 20.0),),
            StepValue(1000.0, 40.0), PriorityClass.SLO_ACCEPTED, 10.0,
            deadline=40.0))
        result = sched.run_cycle(10.0)
        assert result.preempted == []  # no kills in greedy mode


class TestConfigProperties:
    def test_plan_ahead_quanta_rounding(self):
        cfg = TetriSchedConfig(quantum_s=10, plan_ahead_s=96)
        assert cfg.plan_ahead_quanta == 10
        cfg = TetriSchedConfig(quantum_s=4, plan_ahead_s=96)
        assert cfg.plan_ahead_quanta == 24
        cfg = TetriSchedConfig(quantum_s=10, plan_ahead_s=0)
        assert cfg.plan_ahead_quanta == 0

    def test_empty_options_rejected(self):
        from repro.errors import SchedulerError
        with pytest.raises(SchedulerError):
            JobRequest("x", (), StepValue(1.0, 10.0),
                       PriorityClass.BEST_EFFORT, 0.0)


class TestCycleHistoryAccounting:
    def test_objective_and_counts_recorded(self):
        cluster = Cluster.build(racks=1, nodes_per_rack=4)
        sched = Scheduler.open(cluster, TetriSchedConfig(
            quantum_s=10, cycle_s=10, plan_ahead_s=40, rel_gap=1e-6)).core
        sched.submit(JobRequest(
            "a", (SpaceOption(cluster.node_names, 2, 20.0),),
            StepValue(1000.0, 300.0), PriorityClass.SLO_ACCEPTED, 0.0,
            deadline=300.0))
        result = sched.run_cycle(0.0)
        stats = result.stats
        assert stats.objective > 900.0  # ~1000 minus the earliness bias
        assert stats.launched == 1 and stats.pending == 0
        assert stats.solves == 1
