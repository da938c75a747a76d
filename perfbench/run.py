"""The scheduler benchmark: run one workload, check it, print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload rc256-grmix --seed 1 \
        --seconds 34 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off (timings
on the thread's CPU clock, rescaled to a reference host speed by probes
run on a profiling timer: see ``perfbench/speed.py``); ``--trace
1`` runs one pass with every layer entry point wrapped and the audit
oracles on, and reports the per-layer metrics.  A human-readable table
goes to standard output first; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record of the run (configuration, environment, every metric with its
sample count) is written under ``perfbench/out/``.  The exit code is 0
only when every correctness check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: Setup is timed this many times per run (once in process, the rest in
#: fresh interpreters), in CPU time at reference speed, and reported as
#: the median.
SETUP_SAMPLES = 3

#: One thread per process for the BLAS under numpy: all load comes from
#: the one benchmark process, whatever the machine's defaults are.
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: End-to-end metrics: name -> unit (the order they are printed in).
END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "cycle_p50_ms": "ms",
    "cycle_p90_ms": "ms",
    "launch_wait_p50_s": "s",
    "launch_wait_p90_s": "s",
    "slo_attainment_pct": "%",
    "be_latency_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-sample", action="store_true",
                    help="time one setup, print the seconds, exit")
    return ap.parse_args(argv)


def prepare_environment() -> None:
    """Pin process-wide settings before numpy is imported."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {SRC}/repro; "
                         f"run from the root of a full checkout")
    for var in THREAD_PINS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))


def setup(workload_name: str, seed: int):
    """Imports, one scheduler/service build, and input generation.

    Returns ``(workload, inputs, engine, seconds)``, the seconds being
    CPU time at reference speed (``perfbench/speed.py``).
    """
    from perfbench.speed import HostSpeed

    speed = HostSpeed()
    with speed.sampling():
        t0 = speed.clock()
        workload, inputs, engine = build(workload_name, seed)
        t1 = speed.clock()
    return workload, inputs, engine, speed.scaled(t0, t1)


def build(workload_name: str, seed: int):
    """The set-up work: returns ``(workload, inputs, engine)``."""
    from perfbench import layers, sim_chain, service_stream  # noqa: F401
    from perfbench.workloads import WORKLOADS

    if workload_name not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload_name!r}; "
                         f"expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[workload_name]
    from repro.cluster.cluster import Cluster

    cluster = Cluster.build(workload.racks, workload.nodes_per_rack)
    config = workload.scheduler_config(seed, audit=False)
    if workload.kind == "sim":
        from repro.sim.adapters import TetriSchedAdapter
        core = TetriSchedAdapter(cluster, config).scheduler
    else:
        from repro.service.service import SchedulerService
        service = SchedulerService(cluster, config)
        core = service.scheduler
        service.drain()
    if core.config.backend != workload.backend:
        raise SystemExit(f"error: backend resolved to "
                         f"{core.config.backend!r}, pinned "
                         f"{workload.backend!r}")
    engine = describe_engine(core._backend)
    return workload, workload.generate(seed), engine


def describe_engine(backend) -> str:
    """The resolved MILP engine, e.g. ``RepairSolver(BranchBoundSolver)``."""
    name = type(backend).__name__
    inner = getattr(backend, "exact", None)
    if inner is not None:
        name += f"({describe_engine(inner)})"
    options = getattr(backend, "options", None)
    if options is not None and hasattr(options, "lp_engine"):
        name += f"[lp_engine={options.lp_engine}]"
    return name


def setup_samples(args, first: float) -> list[float]:
    """Setup times: this process's, plus fresh-interpreter repeats."""
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-sample"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, cwd=ROOT, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def measure(workload, inputs, seed: int, seconds: float):
    """Untraced run: one whole pass first, then more until time is up.

    The first pass always completes; its outcomes are the run's quality
    metrics (the same in every run of the seed, since decisions are
    deterministic).  Timing samples come from every simulation or service
    lifetime run; later passes go on through the rest of the generated
    simulations or service lifetimes, one at a time.  Another starts only
    if one as long as the last would end by the wall-clock deadline, so a
    slow host shortens the run rather than stretching it.  Host speed
    probes run throughout.  Returns ``(first_pass, all_passes, speed,
    (cpu_start, cpu_end))``.
    """
    from perfbench import service_stream, sim_chain
    from perfbench.record import PassRecord
    from perfbench.speed import HostSpeed
    from perfbench.workloads import MIN_PENDING_CYCLES

    speed = HostSpeed()
    deadline = time.perf_counter() + seconds
    passes: list[PassRecord] = []
    #: Wall seconds of the last simulation or service lifetime.
    last_s = 0.0

    def run(runner, *args, count: int = 1, **kw) -> None:
        nonlocal last_s
        t0 = time.perf_counter()
        passes.append(runner.run_pass(*args, **kw))
        last_s = (time.perf_counter() - t0) / count

    def more() -> bool:
        return (time.perf_counter() + last_s <= deadline
                or sum(p.attempted for p in passes) < MIN_PENDING_CYCLES)

    with speed.sampling():
        cpu0 = speed.clock()
        if workload.kind == "sim":
            run(sim_chain, workload, inputs[:workload.sims], seed,
                count=workload.sims)
            # Later passes go round the chain one simulation at a time.
            i = workload.sims
            while more():
                idx = i % len(inputs)
                run(sim_chain, workload, inputs[idx:idx + 1], seed,
                    start=idx)
                i += 1
        else:
            run(service_stream, workload, inputs[0], seed)
            i = 1
            while more():
                idx = i % len(inputs)
                run(service_stream, workload, inputs[idx], seed, index=idx)
                i += 1
        cpu1 = speed.clock()
    return passes[0], passes, speed, (cpu0, cpu1)


def end_to_end(first, passes, speed, run: tuple[float, float],
               setup_s: list[float], peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics and the extra figures printed beside them.

    Timings are at reference speed; the same figures on the raw CPU clock
    go into the extras.
    """
    from perfbench.samples import percentile, summarize

    marks = [m for p in passes for m in p.cycle_marks]
    cycle = summarize([1e3 * speed.scaled(a, b) for a, b in marks])
    raw = [1e3 * (b - a - speed.probe_time(a, b)) for a, b in marks]
    jobs = sum(p.jobs_finalized for p in passes)
    probes = speed.durations
    raw_run_s = run[1] - run[0] - speed.probe_time(*run)
    waits = summarize(first.launch_waits)
    attempted = sum(p.attempted for p in passes)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "jobs_per_s": jobs / speed.scaled(*run),
        "cycle_p50_ms": cycle["p50"],
        "cycle_p90_ms": cycle["p90"],
        "launch_wait_p50_s": waits["p50"],
        "launch_wait_p90_s": waits["p90"],
        "slo_attainment_pct": 100.0 * first.slo_met / max(1, first.slo_total),
        "be_latency_s": (statistics.fmean(first.be_latencies)
                         if first.be_latencies else float("nan")),
        "peak_rss_mb": peak_rss_mb,
    }
    counts = {
        "setup_s": len(setup_s),
        "jobs_per_s": jobs,
        "cycle_p50_ms": cycle["n"], "cycle_p90_ms": cycle["n"],
        "launch_wait_p50_s": waits["n"], "launch_wait_p90_s": waits["n"],
        "slo_attainment_pct": first.slo_total,
        "be_latency_s": len(first.be_latencies),
        "peak_rss_mb": 1,
    }
    extra = {
        "samples": counts,
        "supported": {"cycle_p90_ms": cycle["supported"]["p90"],
                      "launch_wait_p90_s": waits["supported"]["p90"]},
        "empty_plan_pct": 100.0 * sum(p.empty_plans for p in passes)
        / max(1, attempted),
        "failed_pct": 100.0 * sum(p.failed_cycles for p in passes)
        / max(1, attempted),
        "passes": len(passes),
        "run_cpu_s": run[1] - run[0],
        "raw_cpu": {"jobs_per_s": jobs / raw_run_s,
                    "cycle_p50_ms": percentile(raw, 50.0),
                    "cycle_p90_ms": percentile(raw, 90.0),
                    "cycle_max_ms": max(raw)},
        "probes": {"n": len(probes),
                   "p10_ms": 1e3 * percentile(probes, 10.0),
                   "p50_ms": 1e3 * percentile(probes, 50.0),
                   "p90_ms": 1e3 * percentile(probes, 90.0)},
    }
    return metrics, extra


def peak_rss() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(engine: str, factors) -> dict:
    import platform

    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "engine": engine,
        "factor_classes": dict(factors.counts),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "REPRO_BACKEND": os.environ.get("REPRO_BACKEND"),
        "thread_pins": {v: os.environ.get(v) for v in THREAD_PINS},
    }


def table(rows: list[tuple[str, float, str, object]]) -> str:
    lines = [f"{'metric':<30} {'value':>14}  {'unit':<6} samples"]
    for name, value, unit, n in rows:
        lines.append(f"{name:<30} {value:>14.6g}  {unit:<6} {n}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_environment()
    # The solver engines may write to the C-level stdout; send it to
    # stderr for the life of the process so that the result stays the
    # last line of standard output.
    result_fd = os.dup(1)
    sys.stdout.flush()
    os.dup2(2, 1)

    def emit(text: str) -> None:
        os.write(result_fd, (text + "\n").encode())

    workload, inputs, engine, first_setup = setup(args.workload, args.seed)
    if args.setup_sample:
        emit(repr(first_setup))
        return 0

    from repro import obs

    from perfbench import layers, samples, spans
    from perfbench.workloads import describe

    obs.set_enabled(False)
    factors = layers.FactorChoices()
    factors.install()
    record: dict = {"workload": describe(workload), "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        from perfbench import service_stream, sim_chain

        per_span = spans.per_span_cost()
        tracer = spans.Tracer()
        layers.instrument(tracer)
        t0 = time.perf_counter()
        runner = sim_chain if workload.kind == "sim" else service_stream
        inputs = (inputs[:workload.sims] if workload.kind == "sim"
                  else inputs[0])
        first = runner.run_pass(workload, inputs, args.seed, audit=True,
                                keep_stats=True)
        wall = time.perf_counter() - t0
        tracer.unpatch()
        passes = [first]
        metrics = layers.layer_metrics(tracer, first, per_span, wall)
        units = {k: u for k, (_, u) in metrics.items()}
        values = {k: v for k, (v, _) in metrics.items()}
        spans_path = tracer.dump(
            OUT / f"{args.workload}-seed{args.seed}-spans.npz")
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        record["per_span_cost_s"] = per_span
        record["run_wall_s"] = wall
        rows = [(k, values[k], units[k], "") for k in values]
    else:
        setup_s = setup_samples(args, first_setup)
        t0 = time.perf_counter()
        first, passes, speed, run = measure(workload, inputs, args.seed,
                                            args.seconds)
        record["run_wall_s"] = time.perf_counter() - t0
        values, extra = end_to_end(first, passes, speed, run, setup_s,
                                   peak_rss())
        units = dict(END_TO_END)
        record.update(extra)
        record["setup_samples_s"] = setup_s
        rows = [(k, values[k], units[k], extra["samples"][k])
                for k in END_TO_END]
        rows.append(("empty_plan_pct", extra["empty_plan_pct"], "%",
                     sum(p.attempted for p in passes)))
        rows.append(("failed_pct", extra["failed_pct"], "%",
                     sum(p.attempted for p in passes)))
        for k, v in extra["raw_cpu"].items():
            rows.append((f"raw_cpu.{k}", v, END_TO_END.get(k, "ms"), ""))
        rows.append(("probe_p50_ms", extra["probes"]["p50_ms"], "ms",
                     extra["probes"]["n"]))
    factors.uninstall()

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed_cycles for p in passes)
    errors = [e for p in passes for e in p.errors]
    errors += [f"metric {k} is not a finite number"
               for k, v in values.items() if not math.isfinite(v)]
    correct = failed == 0 and not errors and attempted > 0
    if not args.trace:
        # p90 of cycle time needs ten samples beyond it.
        correct = correct and samples.supports(
            sum(len(p.cycle_marks) for p in passes), 90.0)
    env = environment(engine, factors)
    record.update({
        "environment": env,
        "correct": correct, "attempted": attempted, "failed": failed,
        "errors": errors[:20],
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in values},
    })
    OUT.mkdir(parents=True, exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2, default=str))

    emit(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    emit("  ".join(f"{k} {env[k]}" for k in (
        "engine", "factor_classes", "nproc", "numpy", "scipy")))
    emit(table(rows))
    for e in errors[:5]:
        emit(f"error: {e}")
    emit(json.dumps({"correct": correct, "attempted": attempted,
                     "failed": failed,
                     "metrics": {k: {"value": values[k], "unit": units[k]}
                                 for k in values}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
