"""Schedule auditor: clean cycles audit clean, tampered ones are caught."""

import dataclasses

import pytest

from repro.api import Scheduler
from repro.cluster import Cluster
from repro.core import JobRequest, PriorityClass, TetriSchedConfig
from repro.errors import ReproError
from repro.solver import BranchBoundSolver, SolveStatus
from repro.solver.result import MILPResult
from repro.strl import SpaceOption
from repro.valuefn import StepValue
from repro.verify import AuditViolation, audit_cycle
from repro.verify.instance import FuzzInstance, FuzzJob, build_instance


def spec(**kw):
    defaults = dict(
        racks=2, nodes_per_rack=2, quantum_s=10.0, plan_ahead_quanta=3,
        jobs=(FuzzJob("a", k=2, duration_q=1, value=9.0),
              FuzzJob("b", k=2, duration_q=2, value=6.0, rack=1,
                      fallback=True)))
    defaults.update(kw)
    return FuzzInstance(**defaults)


def solved_instance(instance=None):
    state, exprs, compiled = build_instance(instance or spec())
    assert compiled is not None
    res = BranchBoundSolver().solve(compiled.model)
    assert res.status == SolveStatus.OPTIMAL
    return state, exprs, compiled, res


class TestCleanAudit:
    def test_clean_solve_audits_clean(self):
        state, exprs, compiled, res = solved_instance()
        report = audit_cycle(state, compiled, res, exprs, quantum_s=10.0)
        assert report.ok
        assert report.placements > 0
        assert report.quanta_checked > 0
        assert report.objective_recomputed == pytest.approx(res.objective)
        report.raise_if_failed()

    def test_busy_cluster_audits_clean(self):
        # Pre-existing load shrinks the supply the auditor recomputes.
        state, exprs, compiled, res = solved_instance(
            spec(busy=((2, 2),)))
        report = audit_cycle(state, compiled, res, exprs, quantum_s=10.0)
        assert report.ok

    def test_no_solution_audits_vacuously(self):
        state, exprs, compiled, _ = solved_instance()
        import math
        empty = MILPResult(SolveStatus.INFEASIBLE, None, math.nan)
        report = audit_cycle(state, compiled, empty, exprs, quantum_s=10.0)
        assert report.ok
        assert report.placements == 0

    def test_solution_status_without_point_flagged(self):
        state, exprs, compiled, res = solved_instance()
        bad = dataclasses.replace(res, x=None)
        report = audit_cycle(state, compiled, bad, exprs, quantum_s=10.0)
        assert [v.kind for v in report.violations] == ["audit.missing-point"]


class TestTamperDetection:
    def _first_active_record(self, compiled, x):
        for rec in compiled.leaf_records:
            if x[rec.indicator.index] > 0.5:
                return rec
        pytest.fail("no active leaf in the solution")

    def test_bumped_partition_count_detected(self):
        # Give an inactive leaf phantom nodes: shape and capacity both
        # break, and the recomputed objective no longer matches.
        state, exprs, compiled, res = solved_instance()
        x = res.x.copy()
        for rec in compiled.leaf_records:
            if x[rec.indicator.index] <= 0.5:
                pid, var = next(iter(rec.partition_vars.items()))
                x[var.index] += len(
                    compiled.partitioning.partitions[pid].nodes) + 1
                break
        else:
            pytest.fail("no inactive leaf to tamper with")
        bad = dataclasses.replace(res, x=x)
        report = audit_cycle(state, compiled, bad, exprs, quantum_s=10.0)
        assert not report.ok
        kinds = {v.kind for v in report.violations}
        assert ("audit.nck-orphan" in kinds) or ("audit.lnck-orphan" in kinds)
        assert "audit.partition-overflow" in kinds

    def test_dropped_node_breaks_gang_shape(self):
        # Steal one node from an active nCk leaf: k-shape violation.
        state, exprs, compiled, res = solved_instance()
        x = res.x.copy()
        rec = self._first_active_record(compiled, x)
        for var in rec.partition_vars.values():
            if x[var.index] >= 1.0:
                x[var.index] -= 1.0
                break
        bad = dataclasses.replace(res, x=x)
        report = audit_cycle(state, compiled, bad, exprs, quantum_s=10.0)
        kinds = {v.kind for v in report.violations}
        assert kinds & {"audit.nck-shape", "audit.objective-phantom",
                        "audit.lnck-shape"}

    def test_objective_lie_detected(self):
        state, exprs, compiled, res = solved_instance()
        lied = dataclasses.replace(res, objective=res.objective + 5.0)
        report = audit_cycle(state, compiled, lied, exprs, quantum_s=10.0)
        assert any(v.kind == "audit.objective-phantom"
                   for v in report.violations)

    def test_raise_if_failed_carries_all_violations(self):
        state, exprs, compiled, res = solved_instance()
        lied = dataclasses.replace(res, objective=res.objective + 5.0)
        report = audit_cycle(state, compiled, lied, exprs, quantum_s=10.0)
        with pytest.raises(AuditViolation) as exc:
            report.raise_if_failed()
        assert exc.value.violations == report.violations
        assert isinstance(exc.value, ReproError)
        assert "audit.objective-phantom" in str(exc.value)


class TestAuditModePipeline:
    """audit_mode=True runs the oracles inside every global cycle."""

    def make_sched(self, **overrides):
        cluster = Cluster.build(racks=2, nodes_per_rack=2)
        cfg = TetriSchedConfig(quantum_s=10.0, cycle_s=10.0,
                               plan_ahead_s=40.0, backend="pure",
                               rel_gap=1e-6, audit_mode=True, **overrides)
        return cluster, Scheduler.open(cluster, cfg).core

    def submit(self, cluster, sched, job_id="j1", k=2):
        sched.submit(JobRequest(
            job_id=job_id,
            options=(SpaceOption(cluster.node_names, k=k, duration_s=20.0),),
            value_fn=StepValue(100.0, 100.0),
            priority=PriorityClass.SLO_ACCEPTED, submit_time=0.0,
            deadline=100.0))

    def test_cycle_runs_audit_stage(self):
        cluster, sched = self.make_sched()
        self.submit(cluster, sched)
        res = sched.run_cycle(0.0)
        assert len(res.allocations) == 1
        assert "audit" in res.stats.stage_timings

    def test_audit_off_by_default(self):
        cluster = Cluster.build(racks=2, nodes_per_rack=2)
        sched = Scheduler.open(cluster, TetriSchedConfig(
            quantum_s=10.0, cycle_s=10.0, plan_ahead_s=40.0, backend="pure")).core
        self.submit(cluster, sched)
        res = sched.run_cycle(0.0)
        assert "audit" not in res.stats.stage_timings

    def test_multi_cycle_with_running_jobs_audits_clean(self):
        # The second cycle audits against a non-empty ledger (j1 running),
        # exercising the independent busy-quanta recomputation.
        cluster, sched = self.make_sched()
        self.submit(cluster, sched, "j1", k=2)
        sched.run_cycle(0.0)
        self.submit(cluster, sched, "j2", k=2)
        res = sched.run_cycle(10.0)
        assert "audit" in res.stats.stage_timings
        assert len(res.allocations) == 1
