"""Unit tests of the benchmark harness itself.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import layers, samples, service_stream, sim_chain, spans
from perfbench import speed
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def small(name: str):
    """A workload shrunk to test size (same code paths, fewer inputs)."""
    w = WORKLOADS[name]
    if w.kind == "sim":
        return dataclasses.replace(w, sims=2, pool=2, racks=2,
                                   nodes_per_rack=8, num_jobs=16)
    return dataclasses.replace(w, lifetimes=1, racks=4, nodes_per_rack=8,
                               arrival_cycles=12, rate_per_cycle=1.5,
                               burst_every=6, burst_size=4)


def run_small(w, seed: int, **kw):
    if w.kind == "sim":
        return sim_chain.run_pass(w, w.generate(seed), seed, **kw)
    return service_stream.run_pass(w, w.generate(seed)[0], seed, **kw)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


# -- spans ------------------------------------------------------------------
def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def leaf(d):
        clock.t += d

    traced_leaf = tracer.wrap("leaf", leaf)

    def middle():
        clock.t += 1.0
        traced_leaf(2.0)
        clock.t += 0.5
        traced_leaf(3.0)

    traced_middle = tracer.wrap("middle", middle)

    def top():
        traced_middle()
        clock.t += 4.0

    tracer.wrap("top", top, cycle=True)()
    assert tracer.names == ["top", "middle", "leaf", "leaf"]
    assert tracer.parents == [-1, 0, 1, 1]
    assert tracer.cycles == [0, 0, 0, 0]
    assert tracer.self_times() == pytest.approx([4.0, 1.5, 2.0, 3.0])
    # Self times of a tree add up to the root's duration.
    assert sum(tracer.self_times()) == pytest.approx(
        tracer.ends[0] - tracer.starts[0])


def test_self_time_counts_overlapping_children_once():
    starts = [0.0, 1.0, 2.0, 8.0]
    ends = [10.0, 4.0, 5.0, 12.0]      # last child runs past its parent
    parents = [-1, 0, 0, 0]
    # Children cover [1, 5) and [8, 10) of the parent: 6 s of 10.
    assert spans.self_times(starts, ends, parents)[0] == pytest.approx(4.0)


def test_cycle_ids_and_opaque_spans():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: None)
    opaque = tracer.wrap("audit", lambda: inner(), opaque=True)
    cycle = tracer.wrap("cycle", lambda: (inner(), opaque()), cycle=True)
    inner()
    cycle()
    cycle()
    # Calls inside the opaque audit span are not recorded.
    assert tracer.names == ["inner", "cycle", "inner", "audit",
                            "cycle", "inner", "audit"]
    assert tracer.cycles == [-1, 0, 0, 0, 1, 1, 1]


def test_patch_and_unpatch_restore_the_original():
    class Thing:
        def work(self):
            return 7

    original = Thing.__dict__["work"]
    tracer = spans.Tracer()
    tracer.patch(Thing, "work", "thing.work")
    assert Thing().work() == 7
    assert tracer.names == ["thing.work"]
    tracer.unpatch()
    assert Thing.__dict__["work"] is original


# -- host speed probes -----------------------------------------------------
def test_scaled_time_rescales_each_stretch_by_its_probes():
    r = speed.REFERENCE_S
    # Three probes lasting 1, 1 and 2 reference durations: [0, 1), [3, 4)
    # and [10, 12), in reference units.
    ticks = iter(r * t for t in (0, 1, 3, 4, 10, 12))
    host = speed.HostSpeed(clock=lambda: next(ticks))
    for _ in range(3):
        host.probe()
    assert host.durations == pytest.approx([r, r, 2 * r])
    # [1, 3) at full speed, [4, 10) at 1/1.5, [12, 20) at 1/2; probes
    # themselves count for nothing.
    assert host.scaled(0, 20 * r) == pytest.approx(r * (2 + 4 + 4))
    assert host.scaled(2 * r, 11 * r) == pytest.approx(r * (1 + 4))
    assert host.scaled(-r, 0.5 * r) == pytest.approx(r)
    assert host.probe_time(2 * r, 11 * r) == pytest.approx(3 * r)


def test_sampling_probes_on_a_timer_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGPROF)
    host = speed.HostSpeed()
    with host.sampling(period=0.005):
        t0 = time.thread_time()
        while time.thread_time() - t0 < 0.05:
            pass
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert len(host.durations) >= 4
    assert host.starts == sorted(host.starts)


# -- percentiles and the sample-count rule ----------------------------------
def test_percentile_matches_numpy_linear():
    rng = np.random.default_rng(3)
    xs = list(rng.exponential(size=57))
    for q in (0, 10, 50, 90, 99, 100):
        assert samples.percentile(xs, q) == pytest.approx(
            float(np.percentile(xs, q)))
    with pytest.raises(ValueError):
        samples.percentile([], 50)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert samples.supports(1, 50)
    assert not samples.supports(99, 90)
    assert samples.supports(100, 90)
    assert not samples.supports(999, 99)
    assert samples.supports(1000, 99)
    assert samples.highest_supported(0) is None
    assert samples.highest_supported(10) == 50.0
    assert samples.highest_supported(150) == 90.0
    assert samples.highest_supported(10_000) == 99.9
    summary = samples.summarize(range(20))
    assert summary["n"] == 20
    assert summary["supported"] == {"p50": True, "p90": False}


# -- workloads --------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    w = small(name)
    assert w.generate(5) == w.generate(5)
    assert w.generate(5) != w.generate(6)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_quality_is_bit_identical_across_runs_of_one_seed(name):
    w = small(name)
    first, second = run_small(w, 4), run_small(w, 4)
    assert not first.errors and first.failed_cycles == 0
    assert first.attempted > 0
    assert first.quality() == second.quality()


def test_timing_adapter_does_not_change_decisions():
    w = small("rc256-grmix")
    jobs = w.generate(9)[0]

    def events(timed):
        _, trace, _ = sim_chain.run_simulation(w, jobs, 9, audit=False,
                                               timed=timed)
        return [(e.time, e.kind, e.job_id, e.nodes, e.detail)
                for e in trace.events]

    assert events(True) == events(False)


def test_service_interval_check_finds_double_booking():
    @dataclasses.dataclass
    class Rec:
        job_id: str
        started_at: float
        expected_end: float
        nodes: tuple
        state: str = "completed"
        finished_at: float | None = None

    ok = [Rec("a", 0, 10, ("n1",)), Rec("b", 10, 20, ("n1",))]
    assert service_stream.check_node_intervals(ok) == []
    bad = ok + [Rec("c", 15, 30, ("n1", "n2"))]
    assert len(service_stream.check_node_intervals(bad)) == 1


# -- the metric names the code emits are those BENCHMARK.json declares ------
def test_declared_metrics_match_emitted_metrics():
    from perfbench import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

    w = small("service-stream")
    tracer = spans.Tracer()
    layers.instrument(tracer)
    try:
        rec = run_small(w, 1, audit=True, keep_stats=True)
    finally:
        tracer.unpatch()
    assert not rec.errors
    emitted = layers.layer_metrics(tracer, rec, 1e-7, 1.0)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: u for k, (_, u) in emitted.items()} == declared
    assert emitted["service.submit_us"][0] > 0
    assert emitted["shard.domains"][0] > 0
