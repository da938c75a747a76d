"""End-to-end tests of the TetriSched scheduler core (no simulator)."""

import pytest

from repro.api import Scheduler
from repro.cluster import Cluster
from repro.core import JobRequest, PriorityClass, TetriSchedConfig
from repro.strl import SpaceOption
from repro.valuefn import StepValue, best_effort_value


def make_cluster():
    # 2 racks x 2 nodes; rack r0 GPU-enabled (Fig. 1 topology).
    return Cluster.build(racks=2, nodes_per_rack=2, gpu_racks=1)


def config(**kw):
    defaults = dict(quantum_s=10.0, cycle_s=10.0, plan_ahead_s=40.0,
                    backend="pure", rel_gap=1e-6, warm_start=True)
    defaults.update(kw)
    return TetriSchedConfig(**defaults)


def slo_request(cluster, job_id, k=2, dur=20, deadline=100, now=0.0,
                priority=PriorityClass.SLO_ACCEPTED):
    return JobRequest(
        job_id=job_id,
        options=(SpaceOption(cluster.node_names, k=k, duration_s=dur),),
        value_fn=StepValue(1000.0, deadline),
        priority=priority, submit_time=now, deadline=deadline)


def gpu_request(cluster, job_id, deadline=100.0):
    gpu = cluster.nodes_with_attr("gpu")
    return JobRequest(
        job_id=job_id,
        options=(SpaceOption(gpu, k=2, duration_s=20, label="gpu"),
                 SpaceOption(cluster.node_names, k=2, duration_s=30,
                             label="any")),
        value_fn=StepValue(1000.0, deadline),
        priority=PriorityClass.SLO_ACCEPTED, submit_time=0.0,
        deadline=deadline)


class TestBasicCycle:
    def test_empty_cycle(self):
        sched = Scheduler.open(make_cluster(), config()).core
        result = sched.run_cycle(0.0)
        assert result.allocations == [] and result.culled == []

    def test_single_job_launches_now(self):
        cluster = make_cluster()
        sched = Scheduler.open(cluster, config()).core
        sched.submit(slo_request(cluster, "j1"))
        result = sched.run_cycle(0.0)
        assert len(result.allocations) == 1
        alloc = result.allocations[0]
        assert alloc.job_id == "j1"
        assert len(alloc.nodes) == 2
        assert alloc.expected_end == pytest.approx(20.0)
        assert sched.pending_count == 0
        assert sched.state.is_running("j1")

    def test_finish_frees_nodes(self):
        cluster = make_cluster()
        sched = Scheduler.open(cluster, config()).core
        sched.submit(slo_request(cluster, "j1"))
        sched.run_cycle(0.0)
        freed = sched.on_job_finished("j1", 20.0)
        assert len(freed) == 2
        assert not sched.state.is_running("j1")

    def test_deferred_job_stays_pending(self):
        cluster = make_cluster()  # 4 nodes
        sched = Scheduler.open(cluster, config()).core
        sched.submit(slo_request(cluster, "big", k=4, dur=20, deadline=200))
        sched.submit(slo_request(cluster, "later", k=4, dur=20, deadline=200))
        result = sched.run_cycle(0.0)
        # Both want all 4 nodes; only one can start now.
        assert len(result.allocations) == 1
        assert sched.pending_count == 1

    def test_culled_job_reported(self):
        cluster = make_cluster()
        sched = Scheduler.open(cluster, config()).core
        # Deadline impossible: needs 20s but deadline at t=5.
        sched.submit(slo_request(cluster, "dead", dur=20, deadline=5))
        result = sched.run_cycle(0.0)
        assert result.culled == ["dead"]
        assert sched.pending_count == 0

    def test_cycle_stats_recorded(self):
        cluster = make_cluster()
        sched = Scheduler.open(cluster, config()).core
        sched.submit(slo_request(cluster, "j1"))
        result = sched.run_cycle(0.0)
        stats = result.stats
        assert stats.launched == 1
        assert stats.milp_variables > 0
        assert stats.cycle_latency_s >= stats.solver_latency_s >= 0
        assert sched.cycle_history == [stats]


class TestHeterogeneity:
    def test_gpu_job_gets_gpu_nodes(self):
        cluster = make_cluster()
        sched = Scheduler.open(cluster, config()).core
        sched.submit(gpu_request(cluster, "g1"))
        result = sched.run_cycle(0.0)
        [alloc] = result.allocations
        assert alloc.nodes == cluster.nodes_with_attr("gpu")
        assert alloc.expected_end == pytest.approx(20.0)  # fast duration

    def test_nh_mode_ignores_preferences(self):
        cluster = make_cluster()
        sched = Scheduler.open(cluster, config(heterogeneity_aware=False)).core
        sched.submit(gpu_request(cluster, "g1"))
        result = sched.run_cycle(0.0)
        [alloc] = result.allocations
        # Conservative (slow) estimate: 30s, and any 2 nodes can be used.
        assert alloc.expected_end == pytest.approx(30.0)

    def test_gpu_job_waits_for_gpu_with_planahead(self):
        """Plan-ahead defers the GPU job instead of degrading placement,
        when waiting still beats the slow fallback."""
        cluster = make_cluster()
        sched = Scheduler.open(cluster, config(plan_ahead_s=40)).core
        gpu = cluster.nodes_with_attr("gpu")
        sched.state.start("holder", gpu, 0.0, 10.0)  # GPUs free at t=10
        req = JobRequest(
            "g1",
            options=(SpaceOption(gpu, k=2, duration_s=10, label="gpu"),
                     SpaceOption(cluster.node_names, k=2, duration_s=40,
                                 label="any")),
            value_fn=StepValue(1000.0, 35.0),
            priority=PriorityClass.SLO_ACCEPTED, submit_time=0.0,
            deadline=35.0)
        sched.submit(req)
        result = sched.run_cycle(0.0)
        # Fallback cannot meet the deadline (40s > 35); GPU start at t=10
        # completes at 20 -> job is deferred, not launched or culled.
        assert result.allocations == [] and result.culled == []
        assert sched.pending_count == 1
        # Next cycle, GPUs are free: launch there.
        sched.state.finish("holder")
        result = sched.run_cycle(10.0)
        [alloc] = result.allocations
        assert alloc.nodes == gpu

    def test_np_mode_cannot_defer(self):
        """plan_ahead=0 (alsched): same scenario launches nothing and the
        SLO job is culled once its deadline can no longer be met."""
        cluster = make_cluster()
        sched = Scheduler.open(cluster, config(plan_ahead_s=0)).core
        gpu = cluster.nodes_with_attr("gpu")
        sched.state.start("holder", gpu, 0.0, 10.0)
        req = JobRequest(
            "g1",
            options=(SpaceOption(gpu, k=2, duration_s=10, label="gpu"),
                     SpaceOption(cluster.node_names, k=2, duration_s=40,
                                 label="any")),
            value_fn=StepValue(1000.0, 35.0),
            priority=PriorityClass.SLO_ACCEPTED, submit_time=0.0,
            deadline=35.0)
        sched.submit(req)
        result = sched.run_cycle(0.0)
        # Only start=0 exists; GPU option conflicts with the holder, and the
        # fallback misses the deadline -> nothing schedulable *now*.
        assert result.allocations == []


class TestGlobalVsGreedy:
    def setup_jobs(self, cluster):
        """Paper Sec. 5.1-style conflict: greedy order wastes capacity."""
        j1 = slo_request(cluster, "short-urgent", k=2, dur=10, deadline=10)
        j2 = slo_request(cluster, "long-small", k=1, dur=20, deadline=40)
        j3 = slo_request(cluster, "short-large", k=4, dur=10, deadline=20)
        return [j1, j2, j3]

    def test_global_meets_all_deadlines(self):
        cluster = make_cluster()
        sched = Scheduler.open(cluster, config(plan_ahead_s=40)).core
        for req in self.setup_jobs(cluster):
            sched.submit(req)
        result = sched.run_cycle(0.0)
        launched = {a.job_id for a in result.allocations}
        assert launched == {"short-urgent"}  # j3 deferred to t=10, j2 to t=20
        assert sched.pending_count == 2
        assert result.culled == []

    def test_greedy_mode_runs(self):
        cluster = make_cluster()
        sched = Scheduler.open(cluster, config(global_scheduling=False)).core
        for req in self.setup_jobs(cluster):
            sched.submit(req)
        result = sched.run_cycle(0.0)
        assert len(result.allocations) >= 1
        stats = result.stats
        assert stats.solves == 3  # one MILP per job

    def test_greedy_respects_priority_order(self):
        cluster = make_cluster()
        sched = Scheduler.open(cluster, config(global_scheduling=False)).core
        # BE job submitted first, SLO job second; SLO must win the nodes.
        be = JobRequest(
            "be", options=(SpaceOption(cluster.node_names, 4, 10.0),),
            value_fn=best_effort_value(0.0),
            priority=PriorityClass.BEST_EFFORT, submit_time=0.0)
        slo = slo_request(cluster, "slo", k=4, dur=10, deadline=15)
        sched.submit(be)
        sched.submit(slo)
        result = sched.run_cycle(0.0)
        launched = {a.job_id for a in result.allocations}
        assert "slo" in launched


class TestWarmStart:
    def test_second_cycle_with_warm_start_matches_cold(self):
        cluster = make_cluster()
        warm = Scheduler.open(cluster, config(warm_start=True)).core
        cold = Scheduler.open(cluster, config(warm_start=False)).core
        for sched in (warm, cold):
            sched.submit(slo_request(cluster, "a", k=4, dur=20, deadline=200))
            sched.submit(slo_request(cluster, "b", k=4, dur=20, deadline=200))
            r0 = sched.run_cycle(0.0)
            assert len(r0.allocations) == 1
            r1 = sched.run_cycle(10.0)
        assert warm.pending_count == cold.pending_count

    def test_warm_start_vector_is_feasible(self):
        cluster = make_cluster()
        sched = Scheduler.open(cluster, config(warm_start=True, plan_ahead_s=40)).core
        sched.submit(slo_request(cluster, "a", k=4, dur=20, deadline=200))
        sched.submit(slo_request(cluster, "b", k=4, dur=20, deadline=200))
        sched.run_cycle(0.0)
        # Build the next cycle's compilation by hand and ask for the seed.
        from repro.core.compiler import StrlCompiler
        exprs = []
        for job_id, req in sched.queues.items():
            expr = sched._generate(req, 10.0)
            exprs.append((job_id, expr))
        compiled = StrlCompiler(sched.state, 10.0, 10.0).compile(exprs)
        x = sched._build_warm_start(compiled, 10.0)
        assert x is not None
        assert compiled.model.check_feasible(x)
