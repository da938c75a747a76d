"""Tests for the MILP-native preemption extension (paper future work).

The paper notes TetriSched lacks preemption and flags it as future work
(Sec. 7.2).  The extension adds a binary kill-decision per running
best-effort job to the cycle MILP: preempting returns the victim's nodes to
the supply at a value penalty.
"""

import pytest

from repro.api import Scheduler
from repro.cluster import Cluster
from repro.core import JobRequest, PriorityClass, TetriSchedConfig
from repro.sim import Job, Simulation, TetriSchedAdapter, UnconstrainedType
from repro.strl import SpaceOption
from repro.valuefn import StepValue, best_effort_value

UN = UnconstrainedType()


def make_sched(preemption=True, **overrides):
    cluster = Cluster.build(racks=1, nodes_per_rack=4)
    cfg = dict(quantum_s=10, cycle_s=10, plan_ahead_s=40, backend="auto",
               rel_gap=1e-6, enable_preemption=preemption)
    cfg.update(overrides)
    return cluster, Scheduler.open(cluster, TetriSchedConfig(**cfg)).core


def be_request(cluster, job_id, k=4, dur=100):
    return JobRequest(job_id, (SpaceOption(cluster.node_names, k, dur),),
                      best_effort_value(0.0), PriorityClass.BEST_EFFORT, 0.0)


def slo_request(cluster, job_id, k=4, dur=20, deadline=40.0, now=0.0):
    return JobRequest(job_id, (SpaceOption(cluster.node_names, k, dur),),
                      StepValue(1000.0, deadline),
                      PriorityClass.SLO_ACCEPTED, now, deadline=deadline)


class TestPreemptionDecision:
    def test_slo_job_preempts_long_best_effort(self):
        cluster, sched = make_sched(preemption=True)
        sched.submit(be_request(cluster, "be"))
        r0 = sched.run_cycle(0.0)
        assert [a.job_id for a in r0.allocations] == ["be"]
        # An urgent SLO job arrives; the BE job holds the cluster for 100s.
        sched.submit(slo_request(cluster, "slo", deadline=40.0, now=10.0))
        r1 = sched.run_cycle(10.0)
        assert r1.preempted == ["be"]
        assert [a.job_id for a in r1.allocations] == ["slo"]
        # The BE job is re-queued, not lost.
        assert "be" in sched.queues

    def test_no_preemption_when_disabled(self):
        cluster, sched = make_sched(preemption=False)
        sched.submit(be_request(cluster, "be"))
        sched.run_cycle(0.0)
        sched.submit(slo_request(cluster, "slo", deadline=40.0, now=10.0))
        r1 = sched.run_cycle(10.0)
        assert r1.preempted == []
        assert r1.allocations == []  # nothing fits before the deadline

    def test_no_pointless_preemption(self):
        """A deferrable SLO job must not trigger a kill: waiting is free,
        preempting costs the penalty."""
        cluster, sched = make_sched(preemption=True)
        sched.submit(be_request(cluster, "be", dur=20))  # releases at t=20
        sched.run_cycle(0.0)
        # Plenty of slack: can start at t=20 and still meet t=100.
        sched.submit(slo_request(cluster, "slo", deadline=100.0, now=10.0))
        r1 = sched.run_cycle(10.0)
        assert r1.preempted == []

    def test_slo_jobs_never_preempted(self):
        cluster, sched = make_sched(preemption=True)
        sched.submit(slo_request(cluster, "long-slo", dur=100,
                                 deadline=200.0))
        sched.run_cycle(0.0)
        sched.submit(slo_request(cluster, "urgent", deadline=40.0, now=10.0))
        r1 = sched.run_cycle(10.0)
        # Running SLO jobs are not preemption candidates.
        assert r1.preempted == []

    def test_penalty_discourages_low_value_kills(self):
        """With a penalty above the waiting cost, a best-effort job must
        not preempt another best-effort job."""
        cluster, sched = make_sched(preemption=True, preemption_penalty=5.0)
        sched.submit(be_request(cluster, "be1", dur=30))
        sched.run_cycle(0.0)
        sched.submit(be_request(cluster, "be2", dur=30))
        r1 = sched.run_cycle(10.0)
        assert r1.preempted == []


class TestPreemptionInSimulation:
    def test_preempted_job_reruns_and_finishes(self):
        cluster = Cluster.build(racks=1, nodes_per_rack=4)
        adapter = TetriSchedAdapter(cluster, TetriSchedConfig(
            quantum_s=10, cycle_s=10, plan_ahead_s=40,
            enable_preemption=True))
        jobs = [
            Job("be", UN, k=4, base_runtime_s=100, submit_time=0.0),
            Job("slo", UN, k=4, base_runtime_s=20, submit_time=10.0,
                deadline=50.0),
        ]
        res = Simulation(cluster, adapter, jobs).run()
        slo, be = res.outcomes["slo"], res.outcomes["be"]
        assert slo.met_deadline
        assert be.preemptions == 1
        assert be.completed
        assert res.metrics.preemptions == 1
