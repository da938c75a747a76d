"""The repro.api facade: lifecycle, spec parsing, config layering."""

import warnings

import pytest

from repro.api import Scheduler, _parse_cluster_spec
from repro.cluster.cluster import Cluster
from repro.core.queues import PriorityClass
from repro.core.scheduler import (JobRequest, TetriSchedConfig,
                                  resolve_config)
from repro.errors import SchedulerError
from repro.strl.generator import SpaceOption
from repro.valuefn import StepValue


def small_request(cluster, job_id="j0", value=10.0):
    return JobRequest(
        job_id=job_id,
        options=(SpaceOption(cluster.node_names, k=2, duration_s=20,
                             label="any"),),
        value_fn=StepValue(value, 1e9),
        priority=PriorityClass.SLO_ACCEPTED, submit_time=0.0)


class TestClusterSpec:
    def test_racks_by_nodes(self):
        cluster = _parse_cluster_spec("4x8")
        assert len(cluster) == 32
        assert len(cluster.rack_names) == 4

    def test_gpu_suffix(self):
        cluster = _parse_cluster_spec("4x8:2")
        assert len(cluster.nodes_with_attr("gpu")) == 16

    @pytest.mark.parametrize("bad", ["", "8", "x8", "8x", "abc"])
    def test_bad_spec_raises(self, bad):
        with pytest.raises((SchedulerError, ValueError)):
            _parse_cluster_spec(bad)

    def test_open_accepts_spec_string(self):
        api = Scheduler.open("2x4")
        assert len(api.cluster) == 8


class TestLifecycle:
    def test_open_submit_run_stats(self):
        api = Scheduler.open(Cluster.build(racks=2, nodes_per_rack=4),
                             TetriSchedConfig(quantum_s=10, cycle_s=10,
                                              plan_ahead_s=40))
        assert api.stats() is None
        api.submit(small_request(api.cluster))
        res = api.run_cycle()
        assert len(res.allocations) == 1
        assert api.stats() is api.cycle_history[-1]
        assert api.stats().objective > 0

    def test_internal_clock_advances_by_cycle_s(self):
        api = Scheduler.open("2x4", TetriSchedConfig(quantum_s=10,
                                                     cycle_s=10,
                                                     plan_ahead_s=40))
        api.run_cycle()
        api.run_cycle()
        assert [st.now for st in api.cycle_history] == [0.0, 10.0]

    def test_explicit_now_reanchors_clock(self):
        api = Scheduler.open("2x4", TetriSchedConfig(quantum_s=10,
                                                     cycle_s=10,
                                                     plan_ahead_s=40))
        api.run_cycle(100.0)
        api.run_cycle()
        assert [st.now for st in api.cycle_history] == [100.0, 110.0]

    def test_job_finished_frees_nodes(self):
        api = Scheduler.open("2x4", TetriSchedConfig(quantum_s=10,
                                                     cycle_s=10,
                                                     plan_ahead_s=40))
        api.submit(small_request(api.cluster))
        res = api.run_cycle(0.0)
        freed = api.job_finished("j0")
        assert freed == res.allocations[0].nodes

    def test_close_is_idempotent_then_raises(self):
        api = Scheduler.open("2x4")
        api.close()
        api.close()
        assert api.closed
        with pytest.raises(SchedulerError):
            api.run_cycle()
        with pytest.raises(SchedulerError):
            api.submit(small_request(api.cluster))

    def test_context_manager_closes(self):
        with Scheduler.open("2x4") as api:
            assert not api.closed
        assert api.closed

    def test_repr(self):
        api = Scheduler.open("2x4")
        assert "open" in repr(api)
        api.close()
        assert "closed" in repr(api)


class TestDeprecation:
    def test_facade_construction_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Scheduler.open("2x2")


class TestConfigLayering:
    def test_partial_merges_over_base(self):
        patch = TetriSchedConfig.partial(shard_mode="racks", shard_count=2)
        merged = patch.merged_into(TetriSchedConfig(quantum_s=7))
        assert merged.shard_mode == "racks"
        assert merged.shard_count == 2
        assert merged.quantum_s == 7

    def test_partial_rejects_unknown_field(self):
        with pytest.raises(SchedulerError):
            TetriSchedConfig.partial(no_such_field=1)

    def test_partial_is_not_resolved(self):
        assert not TetriSchedConfig.partial(quantum_s=5).is_resolved()
        assert TetriSchedConfig().is_resolved()

    def test_open_resolves_partial_config(self):
        api = Scheduler.open(
            "2x4", TetriSchedConfig.partial(shard_mode="racks"))
        assert api.config.is_resolved()
        assert api.config.shard_mode == "racks"
        assert api.config.cycle_s == TetriSchedConfig().cycle_s

    def test_resolve_none_gives_defaults(self):
        cfg = resolve_config(None)
        assert cfg.is_resolved()
        assert cfg.shard_mode == "off"

    def test_validate_rejects_unresolved(self):
        with pytest.raises(SchedulerError, match="unresolved"):
            TetriSchedConfig.partial(quantum_s=5).validate()

    @pytest.mark.parametrize("kw,match", [
        (dict(quantum_s=0), "quantum_s"),
        (dict(cycle_s=-1), "cycle_s"),
        (dict(delta_mode="sometimes"), "delta_mode"),
        (dict(shard_mode="pods"), "shard_mode"),
        (dict(shard_count=-1), "shard_count"),
        (dict(shard_count=2), "shard_mode='off'"),
        (dict(shard_mode="racks", global_scheduling=False),
         "global_scheduling"),
        (dict(shard_mode="racks", heterogeneity_aware=False),
         "heterogeneity_aware"),
        (dict(shard_mode="racks", enable_preemption=True), "preemption"),
        (dict(rel_gap=-0.1), "rel_gap"),
        (dict(solver_workers=-1), "solver_workers"),
    ])
    def test_validate_rejects_incoherent(self, kw, match):
        with pytest.raises(SchedulerError, match=match):
            TetriSchedConfig(**kw).validate()

    def test_validate_returns_self(self):
        cfg = TetriSchedConfig(shard_mode="racks", shard_count=2)
        assert cfg.validate() is cfg
