"""Deeper coverage of greedy (-NG) mode: tentative reservations,
fragmentation protection, and heterogeneous jobs."""

import pytest

from repro.api import Scheduler
from repro.cluster import Cluster
from repro.core import JobRequest, PriorityClass, TetriSchedConfig
from repro.sim import Job, MpiType, Simulation, TetriSchedAdapter
from repro.strl import SpaceOption
from repro.valuefn import StepValue


def greedy_sched(cluster, **kw):
    cfg = dict(quantum_s=10, cycle_s=10, plan_ahead_s=40,
               global_scheduling=False, backend="auto", rel_gap=1e-6)
    cfg.update(kw)
    return Scheduler.open(cluster, TetriSchedConfig(**cfg)).core


def request(cluster, job_id, k, dur, deadline,
            priority=PriorityClass.SLO_ACCEPTED, nodes=None):
    return JobRequest(job_id,
                      (SpaceOption(nodes or cluster.node_names, k, dur),),
                      StepValue(1000.0, deadline), priority, 0.0,
                      deadline=deadline)


class TestTentativeReservations:
    def test_earlier_job_deferred_placement_blocks_later(self):
        """A high-priority job deferred to t=10 must keep those nodes from
        a lower-priority job spanning the same future interval."""
        cluster = Cluster.build(racks=1, nodes_per_rack=2)
        sched = greedy_sched(cluster)
        # Occupy the cluster until t=10.
        sched.state.start("running", cluster.node_names, 0.0, 10.0)
        # High priority: needs 2 nodes for 2 quanta, deadline forces t=10.
        sched.submit(request(cluster, "high", k=2, dur=20, deadline=40))
        # Low priority: long job that would collide if placed at t=10.
        sched.submit(request(cluster, "low", k=2, dur=20, deadline=200,
                             priority=PriorityClass.BEST_EFFORT))
        result = sched.run_cycle(0.0)
        # Nothing can launch now (cluster busy).
        assert result.allocations == []
        # Next cycle: the high-priority job gets the nodes.
        sched.state.finish("running")
        result = sched.run_cycle(10.0)
        launched = {a.job_id for a in result.allocations}
        assert "high" in launched

    def test_fragmented_capacity_not_over_promised(self):
        """Interval caps: a 2-quantum job must not be planned onto two
        nodes that are each free for only one (different) quantum."""
        cluster = Cluster.build(racks=1, nodes_per_rack=2)
        sched = greedy_sched(cluster)
        nodes = sorted(cluster.node_names)
        # Stagger occupancy: n0 busy [0,10), n1 busy [10,20).
        sched.state.start("a", frozenset({nodes[0]}), 0.0, 10.0)
        sched.submit(request(cluster, "filler", k=1, dur=10, deadline=200,
                             priority=PriorityClass.SLO_ACCEPTED))
        r0 = sched.run_cycle(0.0)
        # filler takes n1 now [0,10)... then a 2-quanta 1-node job: every
        # node has a hole, but n0 frees at 10 making [10,30) viable.
        assert len(r0.allocations) == 1
        # Both occupants release at t=10.
        sched.state.finish("a")
        sched.on_job_finished("filler", 10.0)
        sched.submit(request(cluster, "long", k=1, dur=20, deadline=300))
        r0b = sched.run_cycle(10.0)
        launched = {a.job_id for a in r0b.allocations}
        assert "long" in launched

    def test_greedy_stats_count_solves(self):
        cluster = Cluster.build(racks=1, nodes_per_rack=4)
        sched = greedy_sched(cluster)
        for i in range(3):
            sched.submit(request(cluster, f"j{i}", k=1, dur=10, deadline=500))
        result = sched.run_cycle(0.0)
        assert result.stats.solves == 3
        assert result.stats.milp_variables > 0


class TestPickRollback:
    def test_failed_pick_releases_earlier_reservations(self, monkeypatch):
        """Regression: a mid-job pick failure must roll back the job's
        earlier reservations instead of leaving phantom-occupied capacity
        that starves every later job in the cycle."""
        import repro.core.compiler as compiler_mod
        from repro.core.compiler import PlannedPlacement

        real_decode = compiler_mod.CompiledBatch.decode

        def leaky_decode(self, x):
            placements = real_decode(self, x)
            # After "doomed"'s real (assignable) placement, inject one that
            # cannot be assigned, as fragmentation can produce for
            # multi-leaf gangs.
            if any(pl.job_id == "doomed" for pl in placements):
                placements.append(PlannedPlacement(
                    job_id="doomed", start=0, duration=1,
                    node_counts={0: 99}, value=1.0))
            return placements

        monkeypatch.setattr(compiler_mod.CompiledBatch, "decode",
                            leaky_decode)

        cluster = Cluster.build(racks=1, nodes_per_rack=2)
        sched = greedy_sched(cluster)
        # Both jobs want the whole cluster now; deadline admits only start 0.
        sched.submit(request(cluster, "doomed", k=2, dur=10, deadline=10))
        sched.submit(request(cluster, "victim", k=2, dur=10, deadline=10,
                             priority=PriorityClass.SLO_NO_RESERVATION))
        result = sched.run_cycle(0.0)
        launched = {a.job_id for a in result.allocations}
        # "doomed" must not launch a partial gang; "victim" must still get
        # the nodes "doomed"'s rolled-back picks had tentatively held.
        assert "doomed" not in launched
        assert "victim" in launched


class TestGreedyHeterogeneous:
    def test_mpi_jobs_rack_local_in_greedy_mode(self):
        cluster = Cluster.build(racks=2, nodes_per_rack=4)
        adapter = TetriSchedAdapter(cluster, TetriSchedConfig(
            quantum_s=10, cycle_s=10, plan_ahead_s=40,
            global_scheduling=False))
        jobs = [Job(f"m{i}", MpiType(slowdown=2.0), k=3,
                    base_runtime_s=20, submit_time=0.0, deadline=300.0)
                for i in range(2)]
        res = Simulation(cluster, adapter, jobs).run()
        for o in res.outcomes.values():
            assert o.completed
            assert o.preferred_placement, "greedy should still pick racks"
            assert len(cluster.racks_of(o.nodes)) == 1

    def test_greedy_matches_global_on_uncontended(self):
        """With plenty of capacity, greedy and global agree exactly."""
        cluster = Cluster.build(racks=2, nodes_per_rack=4)
        outcomes = {}
        for mode in (True, False):
            adapter = TetriSchedAdapter(cluster, TetriSchedConfig(
                quantum_s=10, cycle_s=10, plan_ahead_s=40,
                global_scheduling=mode))
            jobs = [Job(f"j{i}", MpiType(), k=2, base_runtime_s=20,
                        submit_time=0.0, deadline=300.0) for i in range(3)]
            res = Simulation(cluster, adapter, jobs).run()
            outcomes[mode] = sorted(
                (o.job_id, o.start_time, o.finish_time)
                for o in res.outcomes.values())
        assert outcomes[True] == outcomes[False]
