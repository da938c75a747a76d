"""Job cancellation at cycle safe points — the stale-state regression.

A cancellation landing while the solver runs used to be a hazard: the
solution could launch the job anyway, leaving an allocation-ledger entry
for a job the caller believes is gone.  These tests pin the fixed
behavior: a cancel at *any* point (before the cycle, mid-solve, while
running) never strands ledger state, and the audit oracle's ledger-orphan
check would catch a regression.
"""

import pytest

from repro.api import Scheduler
from repro.cluster import Cluster
from repro.core import JobRequest, PriorityClass, TetriSchedConfig
from repro.pipeline.driver import CyclePipeline
from repro.strl import SpaceOption
from repro.valuefn import StepValue
from repro.verify.audit import check_ledger_orphans


def build(**kw):
    cluster = Cluster.build(racks=2, nodes_per_rack=2, gpu_racks=1)
    defaults = dict(quantum_s=10.0, cycle_s=10.0, plan_ahead_s=40.0,
                    backend="pure", rel_gap=1e-6, audit_mode=True)
    defaults.update(kw)
    return cluster, Scheduler.open(cluster, TetriSchedConfig(**defaults)).core


def request(cluster, job_id, k=1, dur=20.0, deadline=500.0):
    return JobRequest(
        job_id=job_id,
        options=(SpaceOption(cluster.node_names, k=k, duration_s=dur),),
        value_fn=StepValue(1000.0, deadline),
        priority=PriorityClass.SLO_ACCEPTED, submit_time=0.0,
        deadline=deadline)


class _CancelDuringSolve:
    """Injected pipeline stage: a cancel request lands after Solve."""

    name = "cancel-inject"

    def __init__(self, job_id):
        self.job_id = job_id

    def run(self, ctx):
        ctx.scheduler.cancel(self.job_id)


class TestCancelQueued:
    def test_cancel_before_cycle(self):
        cluster, sched = build()
        sched.submit(request(cluster, "a"))
        sched.cancel("a")
        result = sched.run_cycle(0.0)
        assert result.cancelled == ["a"]
        assert sched.pending_count == 0
        assert not result.allocations

    def test_cancel_unknown_job_is_discarded(self):
        _, sched = build()
        sched.cancel("ghost")
        result = sched.run_cycle(0.0)
        assert result.cancelled == []


class TestCancelRunning:
    def test_cancel_running_job_frees_ledger_and_registry(self):
        cluster, sched = build()
        sched.submit(request(cluster, "a", k=2))
        r1 = sched.run_cycle(0.0)
        assert [a.job_id for a in r1.allocations] == ["a"]
        sched.cancel("a")
        r2 = sched.run_cycle(10.0)
        assert r2.cancelled == ["a"]
        assert not sched.state.is_running("a")
        assert "a" not in sched._launched
        assert not check_ledger_orphans(sched.state, sched._launched)


class TestCancelDuringSolve:
    def test_mid_cycle_cancel_never_launches(self):
        """The regression: cancel lands between Solve and the launch loop."""
        cluster, sched = build()
        sched.submit(request(cluster, "a"))
        sched.submit(request(cluster, "b"))
        # Rebuild the global pipeline with the injector after Solve.
        stages = []
        for stage in sched._global_pipeline.stages:
            stages.append(stage)
            if stage.name == "solve":
                stages.append(_CancelDuringSolve("a"))
        sched._global_pipeline = CyclePipeline(stages)

        result = sched.run_cycle(0.0)
        launched = [a.job_id for a in result.allocations]
        assert "a" not in launched and "b" in launched
        assert "a" in result.cancelled
        # No stale state anywhere: ledger, registry, queue all clean.
        assert not sched.state.is_running("a")
        assert "a" not in sched._launched
        assert "a" not in sched.queues
        assert not check_ledger_orphans(sched.state, sched._launched)
        # The freed capacity is genuinely free: a new job can take it.
        sched.submit(request(cluster, "c"))
        r2 = sched.run_cycle(10.0)
        assert "c" in [a.job_id for a in r2.allocations]

    def test_mid_cycle_cancel_with_delta_mode_verify(self):
        cluster, sched = build(delta_mode="verify")
        sched.submit(request(cluster, "a"))
        stages = []
        for stage in sched._global_pipeline.stages:
            stages.append(stage)
            if stage.name == "solve":
                stages.append(_CancelDuringSolve("a"))
        sched._global_pipeline = CyclePipeline(stages)
        result = sched.run_cycle(0.0)
        assert result.cancelled == ["a"]
        # Next cycle the job is gone from the batch (delta sees a removal).
        sched.submit(request(cluster, "b"))
        r2 = sched.run_cycle(10.0)
        assert "b" in [a.job_id for a in r2.allocations]


class TestCancelMidResize:
    def elastic_request(self, cluster, job_id, value=50.0):
        return JobRequest(
            job_id=job_id,
            options=tuple(
                SpaceOption(cluster.node_names, k=w, duration_s=d)
                for w, d in ((4, 20.0), (3, 30.0), (2, 40.0))),
            value_fn=StepValue(value, 1e9),
            priority=PriorityClass.SLO_ACCEPTED, submit_time=0.0,
            elastic=True)

    def test_cancel_running_elastic_mid_cycle_never_resizes(self):
        """A cancel landing after Solve, in a cycle where the running
        elastic job re-entered the batch as a resize candidate: the job
        must disappear cleanly — neither resized nor left in the ledger —
        even if the solver chose a new width for it."""
        cluster, sched = build(elastic_mode=True, reconfig_penalty=0.1)
        sched.submit(self.elastic_request(cluster, "e"))
        r1 = sched.run_cycle(0.0)
        assert [a.job_id for a in r1.allocations] == ["e"]
        # SLO pressure guarantees the next cycle offers (and wants) a
        # shrink of "e"; the cancel lands between Solve and Extract.
        sched.submit(request(cluster, "squeeze", k=2, dur=20.0,
                             deadline=35.0))
        stages = []
        for stage in sched._global_pipeline.stages:
            stages.append(stage)
            if stage.name == "solve":
                stages.append(_CancelDuringSolve("e"))
        sched._global_pipeline = CyclePipeline(stages)

        r2 = sched.run_cycle(10.0)
        assert "e" in r2.cancelled
        assert r2.resized == []
        assert not sched.state.is_running("e")
        assert "e" not in sched._launched
        assert not check_ledger_orphans(sched.state, sched._launched)
        # The freed capacity is genuinely free: the squeezer launched this
        # cycle and a later job can take the remaining nodes.
        assert "squeeze" in {a.job_id for a in r2.allocations}
        sched.submit(request(cluster, "after", k=2, dur=20.0,
                             deadline=1000.0))
        r3 = sched.run_cycle(20.0)
        assert "after" in {a.job_id for a in r3.allocations}


class TestLedgerOrphanOracle:
    def test_orphan_detected(self):
        cluster, sched = build()
        # Manufacture the hazard by touching one side only.
        sched.state.start("phantom", frozenset(list(cluster.node_names)[:1]),
                          0.0, 50.0)
        violations = check_ledger_orphans(sched.state, sched._launched)
        assert len(violations) == 1
        assert violations[0].kind == "audit.ledger-orphan"
        assert "phantom" in violations[0].message

    def test_audit_stage_raises_on_orphan(self):
        from repro.verify import AuditViolation

        cluster, sched = build()
        sched.state.start("phantom", frozenset(list(cluster.node_names)[:1]),
                          0.0, 50.0)
        sched.submit(request(cluster, "a"))
        with pytest.raises(AuditViolation):
            sched.run_cycle(0.0)
