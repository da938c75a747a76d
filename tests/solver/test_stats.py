"""The declared solver-stats record: every field reaches every consumer.

Each test walks ``dataclasses.fields(SolverStats)`` and checks that two
synthetic values of the field combine by its declared merge rule (sum,
max or any) on the way through decomposed-solve recombination, the
cycle's ``CycleStats`` and the simulator's ``RunProfile``.
"""

import dataclasses

import numpy as np
import pytest

from repro.api import Scheduler
from repro.cluster import Cluster
from repro.core.queues import PriorityClass
from repro.core.scheduler import CycleStats, JobRequest, TetriSchedConfig
from repro.sim import Job, Simulation, TetriSchedAdapter, UnconstrainedType
from repro.sim.interface import CycleDecisions
from repro.solver.decompose import decompose, solve_decomposed
from repro.solver.model import Model
from repro.solver.result import MILPResult, SolveStatus
from repro.solver.stats import SolverStats
from repro.strl.generator import SpaceOption
from repro.valuefn import StepValue

FIELDS = dataclasses.fields(SolverStats)


def _pair(f):
    """Two synthetic values of field ``f`` whose sum and max differ."""
    kind = type(f.default)
    if kind is bool:
        return False, True
    if kind is float:
        return 0.25, 0.5
    return 3, 5


def _merged(f):
    a, b = _pair(f)
    return {"sum": a + b, "max": max(a, b), "any": a or b}[f.metadata["merge"]]


def _stamp(res: MILPResult, i: int) -> MILPResult:
    """Overwrite every result-carried counter with synthetic value ``i``."""
    for f in FIELDS:
        if f.metadata["source"] == "stats":
            res.stats[f.name] = _pair(f)[i]
        elif f.metadata["source"] == "nodes":
            res.nodes = _pair(f)[i]
    return res


class _StampingBackend:
    """Wraps a backend (or stands in for one) and stamps call ``i``."""

    def __init__(self, inner=None):
        self.inner = inner
        self.calls = 0

    def solve(self, model, options=None):
        if self.inner is not None:
            res = self.inner.solve(model, options=options)
        else:
            res = MILPResult(SolveStatus.OPTIMAL,
                             np.zeros(model.num_variables), 0.0,
                             bound=0.0, gap=0.0)
        self.calls += 1
        return _stamp(res, self.calls - 1)


def _two_blocks() -> Model:
    m = Model("pair")
    a = m.add_integer("a", ub=4)
    b = m.add_integer("b", ub=4)
    m.add_constraint(2 * a, "<=", 7, name="capA")
    m.add_constraint(3 * b, "<=", 9, name="capB")
    m.set_objective(a + b, sense="maximize")
    return m


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f.name)
def test_decomposed_recombination_follows_merge_rule(f):
    decomp = decompose(_two_blocks())
    assert decomp.num_components == 2
    backend = _StampingBackend()
    res = solve_decomposed(decomp, backend)
    assert backend.calls == 2
    source = f.metadata["source"]
    if source == "stats":
        assert res.stats[f.name] == _merged(f)
    elif source == "nodes":
        assert res.nodes == _merged(f)
    else:
        # Per-solve counts and stage-set fields are never read back from
        # result stats: a decomposed solve is one logical solve.
        record = SolverStats()
        record.absorb(res)
        assert getattr(record, f.name) == (1 if source == "count"
                                           else f.default)


def _greedy_cycle_stats() -> CycleStats:
    """One -NG cycle over two jobs: exactly two stamped backend solves."""
    cluster = Cluster.build(racks=1, nodes_per_rack=4)
    api = Scheduler.open(cluster, TetriSchedConfig(
        quantum_s=10.0, cycle_s=10.0, plan_ahead_s=20.0, backend="pure",
        global_scheduling=False))
    backend = _StampingBackend(api.core._backend)
    api.core._backend = backend
    for i in range(2):
        api.submit(JobRequest(
            job_id=f"j{i}",
            options=(SpaceOption(cluster.node_names, k=2, duration_s=10.0),),
            value_fn=StepValue(10.0 + i, deadline=1e9),
            priority=PriorityClass.SLO_ACCEPTED, submit_time=0.0))
    stats = api.run_cycle(0.0).stats
    assert backend.calls == 2
    return stats


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f.name)
def test_cycle_record_follows_merge_rule(f):
    source = f.metadata["source"]
    if source is None:
        # Stage-set fields: folding two records follows the rule.
        record = CycleStats(now=0.0)
        for value in _pair(f):
            record.merge(SolverStats(**{f.name: value}))
        assert getattr(record, f.name) == _merged(f)
    elif source == "count":
        assert getattr(_greedy_cycle_stats(), f.name) == 2
    else:
        assert getattr(_greedy_cycle_stats(), f.name) == _merged(f)


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f.name)
def test_run_profile_follows_merge_rule(f):
    cluster = Cluster.build(racks=1, nodes_per_rack=2)
    sim = Simulation(cluster, TetriSchedAdapter(cluster, TetriSchedConfig(
        quantum_s=10.0, cycle_s=10.0, backend="pure")),
        [Job("j", UnconstrainedType(), 1, 10.0, 0.0)])
    for value in _pair(f):
        sim._profile_cycle(CycleDecisions(
            stats=CycleStats(now=0.0, **{f.name: value})))
    expected = _merged(f)
    if f.metadata["merge"] == "any":
        expected = float(sum(_pair(f)))  # cycles that set the flag
    assert sim.profile.counter(f.metadata["profile"]) == expected


def test_high_water_marks_and_flags_do_not_sum():
    rules = {f.name: f.metadata["merge"] for f in FIELDS
             if f.metadata["merge"] != "sum"}
    assert rules == {"lp_fill_ratio": "max", "repair_gap": "max",
                     "warm_start_attempted": "any", "warm_start_hit": "any"}


def test_profile_keys_and_labels_are_unique():
    keys = [f.metadata["profile"] for f in FIELDS]
    labels = [f.metadata["label"] for f in FIELDS]
    assert len(set(keys)) == len(keys)
    assert len(set(labels)) == len(labels)


def test_repair_and_fallback_counters_reach_repro_profile(tmp_path, capsys):
    from repro.cli import main

    rc = main(["profile", "--workload", "GS HET", "--cluster", "1x4",
               "--jobs", "4", "--plan-ahead", "40", "--backend", "pure",
               "--out", str(tmp_path / "p.jsonl")])
    assert rc == 0
    text = capsys.readouterr().out
    labels = {f.name: f.metadata["label"] for f in FIELDS}
    for name in ("lp_cold_fallbacks", "colgen_rounds",
                 "colgen_columns_priced", "repair_gap",
                 "repair_escalations"):
        assert labels[name] in text, name
