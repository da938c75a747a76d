"""Cross-cycle delta compilation: bit-equality against full recompiles."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Scheduler
from repro.cluster import Cluster
from repro.cluster.state import ClusterState
from repro.core import JobRequest, PriorityClass, TetriSchedConfig
from repro.core.allocation import PlanAccumulator
from repro.core.delta import (CycleDelta, DeltaCompiler, DeltaDivergence,
                              assert_models_equal)
from repro.core.compiler import StrlCompiler
from repro.errors import SchedulerError
from repro.strl import SpaceOption
from repro.strl.ast import Max, NCk
from repro.valuefn import StepValue

RACK0 = frozenset(f"r0n{i}" for i in range(4))
RACK1 = frozenset(f"r1n{i}" for i in range(4))
ALL = RACK0 | RACK1


def state():
    return ClusterState(ALL)


def job_expr(k, value, rack=RACK0, start_max=2, duration=2):
    return Max(*[NCk(nodes, k=k, start=s, duration=duration, value=v)
                 for nodes, v in ((rack, value), (ALL, value * 0.5))
                 for s in range(start_max)])


class TestDeltaCompiler:
    def test_first_cycle_is_full_rebuild(self):
        dc = DeltaCompiler(state(), quantum_s=10.0)
        compiled, delta = dc.compile_cycle(
            [("a", job_expr(2, 10.0))], verify=True)
        assert delta.full_rebuild and delta.reason == "first cycle"
        assert delta.added == ("a",)
        assert delta.rows_patched == compiled.model.num_constraints
        assert delta.cols_patched == compiled.model.num_variables

    def test_unchanged_batch_reuses_every_fragment(self):
        dc = DeltaCompiler(state(), quantum_s=10.0)
        batch = [("a", job_expr(2, 10.0)), ("b", job_expr(1, 8.0, RACK1))]
        dc.compile_cycle(batch, verify=True)
        compiled, delta = dc.compile_cycle(batch, verify=True)
        assert delta.clean == ("a", "b")
        assert delta.jobs_dirty == 0 and not delta.full_rebuild
        # Only the availability-carrying supply rows are rewritten.
        frag_rows = sum(f.num_constraints for f in dc._fragments.values())
        assert delta.rows_patched == compiled.model.num_constraints - frag_rows
        assert delta.cols_patched == 0

    def test_arrival_and_departure(self):
        dc = DeltaCompiler(state(), quantum_s=10.0)
        dc.compile_cycle([("a", job_expr(2, 10.0)),
                          ("b", job_expr(1, 8.0))], verify=True)
        _, delta = dc.compile_cycle([("a", job_expr(2, 10.0)),
                                     ("c", job_expr(3, 6.0))], verify=True)
        assert delta.added == ("c",)
        assert delta.removed == ("b",)
        assert delta.clean == ("a",)

    def test_changed_expression_is_dirty(self):
        dc = DeltaCompiler(state(), quantum_s=10.0)
        dc.compile_cycle([("a", job_expr(2, 10.0))], verify=True)
        _, delta = dc.compile_cycle([("a", job_expr(2, 11.0))], verify=True)
        assert delta.dirty == ("a",)
        assert not delta.full_rebuild

    def test_partitioning_change_forces_full_rebuild(self):
        dc = DeltaCompiler(state(), quantum_s=10.0)
        dc.compile_cycle([("a", job_expr(2, 10.0))], verify=True)
        novel = Max(NCk(frozenset({"r0n0", "r0n1"}), k=1, start=0,
                        duration=1, value=3.0))
        _, delta = dc.compile_cycle([("a", job_expr(2, 10.0)),
                                     ("b", novel)], verify=True)
        assert delta.full_rebuild
        assert delta.reason == "partitioning changed"

    def test_availability_change_stays_clean_and_equal(self):
        cs = state()
        dc = DeltaCompiler(cs, quantum_s=10.0)
        batch = [("a", job_expr(2, 10.0))]
        dc.compile_cycle(batch, verify=True)
        cs.start("other", frozenset({"r0n0", "r0n1"}), 0.0, 35.0)
        compiled, delta = dc.compile_cycle(batch, now=10.0, verify=True)
        assert delta.clean == ("a",)
        # Supply reflects the new occupancy even though no fragment moved.
        supply = [c for c in compiled.model.constraints
                  if c.name.startswith("supply[")]
        assert any(c.rhs < len(RACK0) for c in supply)

    def test_drained_node_stays_clean_and_equal(self):
        cs = state()
        dc = DeltaCompiler(cs, quantum_s=10.0)
        batch = [("a", job_expr(2, 10.0))]
        dc.compile_cycle(batch, verify=True)
        cs.drain("r0n0")
        _, delta = dc.compile_cycle(batch, verify=True)
        assert delta.clean == ("a",)
        cs.restore("r0n0")
        dc.compile_cycle(batch, verify=True)

    def test_empty_and_duplicate_batches_rejected(self):
        dc = DeltaCompiler(state(), quantum_s=10.0)
        with pytest.raises(SchedulerError):
            dc.compile_cycle([])
        expr = job_expr(1, 5.0)
        with pytest.raises(SchedulerError):
            dc.compile_cycle([("a", expr), ("a", expr)])

    def test_accumulator_state_never_caches(self):
        cs = state()
        acc = PlanAccumulator(cs, now=0.0, quantum_s=10.0)
        dc = DeltaCompiler(acc, quantum_s=10.0)
        _, d1 = dc.compile_cycle([("a", job_expr(2, 10.0))])
        _, d2 = dc.compile_cycle([("a", job_expr(2, 10.0))])
        assert d1.full_rebuild and d2.full_rebuild
        assert d2.reason == "interval-capped availability"
        assert not dc._fragments

    def test_matches_full_compiler_exactly(self):
        cs = state()
        dc = DeltaCompiler(cs, quantum_s=10.0)
        batch = [("a", job_expr(2, 10.0)), ("b", job_expr(1, 8.0, RACK1))]
        dc.compile_cycle(batch)
        compiled, _ = dc.compile_cycle(batch)
        reference = StrlCompiler(cs, 10.0, 0.0).compile(batch)
        assert_models_equal(compiled.model, reference.model)

    def test_assert_models_equal_detects_divergence(self):
        cs = state()
        a = StrlCompiler(cs, 10.0, 0.0).compile([("a", job_expr(2, 10.0))])
        b = StrlCompiler(cs, 10.0, 0.0).compile([("a", job_expr(2, 11.0))])
        with pytest.raises(DeltaDivergence):
            assert_models_equal(a.model, b.model)


# A small palette of jobs over shared equivalence sets; sequences of
# (batch subset, node events) exercise add/remove/dirty/clean churn.
_PALETTE = {
    "a": job_expr(2, 10.0),
    "b": job_expr(1, 8.0, RACK1),
    "c": job_expr(3, 6.0),
    "d": job_expr(1, 12.0, RACK1, start_max=3),
    "e": job_expr(2, 9.0, duration=1),
}
_VARIANT = {jid: job_expr(1, 99.0, start_max=1) for jid in _PALETTE}


@st.composite
def delta_sequences(draw):
    steps = []
    for _ in range(draw(st.integers(2, 6))):
        ids = draw(st.lists(st.sampled_from(sorted(_PALETTE)),
                            min_size=1, max_size=5, unique=True))
        mutate = draw(st.lists(st.sampled_from(sorted(_PALETTE)),
                               max_size=2, unique=True))
        event = draw(st.sampled_from(
            ["none", "drain:r0n0", "restore:r0n0", "drain:r1n3"]))
        steps.append((ids, mutate, event))
    return steps


class TestDeltaEquivalenceProperty:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(steps=delta_sequences())
    def test_any_sequence_is_bit_equal_to_rebuild(self, steps):
        cs = state()
        dc = DeltaCompiler(cs, quantum_s=10.0)
        for ids, mutate, event in steps:
            if event != "none":
                action, node = event.split(":")
                (cs.drain if action == "drain" else cs.restore)(node)
            batch = [(jid, _VARIANT[jid] if jid in mutate else _PALETTE[jid])
                     for jid in ids]
            # verify=True runs the from-scratch recompile and raises
            # DeltaDivergence unless models are bit-identical.
            compiled, delta = dc.compile_cycle(batch, verify=True)
            assert set(delta.added) | set(delta.dirty) | set(delta.clean) \
                == set(ids)
            assert delta.jobs_dirty + delta.jobs_clean == len(ids)


def _sched(delta_mode, **kw):
    cluster = Cluster.build(racks=2, nodes_per_rack=2, gpu_racks=1)
    cfg = TetriSchedConfig(quantum_s=10.0, cycle_s=10.0, plan_ahead_s=40.0,
                           backend="pure", rel_gap=1e-6,
                           delta_mode=delta_mode, **kw)
    return cluster, Scheduler.open(cluster, cfg).core


class TestSchedulerIntegration:
    def test_invalid_mode_rejected(self):
        cluster = Cluster.build(racks=1, nodes_per_rack=2)
        with pytest.raises(SchedulerError):
            Scheduler.open(cluster, TetriSchedConfig(delta_mode="sometimes")).core

    def test_greedy_mode_has_no_delta_compiler(self):
        _, sched = _sched("on", global_scheduling=False)
        assert sched._delta is None

    @pytest.mark.parametrize("mode", ["on", "verify"])
    def test_cycle_stats_carry_delta_counters(self, mode):
        cluster, sched = _sched(mode)
        for jid in ("a", "b"):
            sched.submit(JobRequest(
                job_id=jid,
                options=(SpaceOption(cluster.node_names, k=1,
                                     duration_s=20),),
                value_fn=StepValue(1000.0, 500.0),
                priority=PriorityClass.SLO_ACCEPTED, submit_time=0.0,
                deadline=500.0))
        r1 = sched.run_cycle(0.0)
        assert r1.stats.delta_full_rebuild
        assert r1.stats.jobs_dirty == 2 and r1.stats.jobs_clean == 0
        assert r1.stats.rows_patched > 0 and r1.stats.cols_patched > 0
