"""Per-layer tracing: which entry points are wrapped, and what they yield.

The traced run wraps the public entry point of each layer from outside
(module functions at the module that calls them, class methods on the
class), records a span per call (:mod:`perfbench.spans`), and reads the
counts the program already returns in ``CycleStats``.  Nothing inside
the program changes.  Pricing has no entry point outside the simplex
engine, so it is reported as the program's count only; presolve is timed
where branch and bound looks it up, the ``repro.solver.presolve`` module
attributes.
"""

from __future__ import annotations

import math
from collections import Counter

#: Pipeline stages whose self time is reported as ``stage.<name>_s``.
STAGES = ("generate", "compile", "model_build", "decompose", "solve",
          "extract", "shard_assign", "reconcile")


def entry_points():
    """``(owner, attribute, span name, options)`` of every traced call."""
    from importlib import import_module

    from repro.core.compiler import StrlCompiler
    from repro.core.delta import DeltaCompiler
    from repro.service.service import SchedulerService
    from repro.sim.engine import Simulation
    from repro.solver.branch_bound import BranchBoundSolver
    from repro.solver.model import Model
    from repro.solver.repair import RepairSolver
    from repro.solver.revised_simplex import RevisedSimplexEngine
    from repro.solver.scipy_backend import ScipyMILPSolver
    from repro.solver.sparse_lu import (DenseBasisFactor,
                                        InverseBasisFactor,
                                        SparseBasisFactor)

    from perfbench.sim_chain import TimedScheduler

    # Package namespaces re-export same-named functions, so the modules
    # that are binding sites are looked up by their full names.
    core_scheduler = import_module("repro.core.scheduler")
    stages = import_module("repro.pipeline.stages")
    shard_stages = import_module("repro.shard.stages")
    presolve = import_module("repro.solver.presolve")
    repair = import_module("repro.solver.repair")
    points = []
    for cls in (SparseBasisFactor, DenseBasisFactor, InverseBasisFactor):
        for meth in ("factorize", "ftran", "btran", "update"):
            points.append((cls, meth, f"factor.{cls.kind}.{meth}", {}))
    points += [
        (RevisedSimplexEngine, "solve", "lp.solve", {}),
        (BranchBoundSolver, "solve", "bnb.solve", {}),
        # Branch and bound imports the presolvers at call time, so the
        # module attributes are the binding sites.
        (presolve, "presolve_sparse", "presolve.run", {}),
        (presolve, "presolve", "presolve.run", {}),
        (RepairSolver, "solve", "repair.solve", {}),
        (repair, "colgen_root", "colgen.root", {}),
        (ScipyMILPSolver, "solve", "highs.solve", {}),
        (stages, "decompose", "decompose.split", {}),
        (shard_stages, "decompose", "decompose.split", {}),
        (Model, "to_sparse_arrays", "model.export", {}),
        (Model, "to_standard_arrays", "model.dense_export", {}),
        (core_scheduler, "generate_job_strl", "strl.generate", {}),
        (core_scheduler, "generate_elastic_strl", "strl.generate", {}),
        (StrlCompiler, "compile", "compiler.compile", {}),
        (StrlCompiler, "compile_fragment", "compiler.fragment", {}),
        (DeltaCompiler, "compile_cycle", "delta.compile_cycle", {}),
        (core_scheduler.TetriSched, "run_cycle", "scheduler.run_cycle",
         {"cycle": True}),
        (TimedScheduler, "cycle", "cycle", {"cycle": True}),
        (SchedulerService, "run_one_cycle", "cycle", {"cycle": True}),
        (SchedulerService, "submit_spec", "service.submit", {}),
        (Simulation, "run", "sim.run", {}),
    ]
    stage_classes = (
        stages.StrlGeneration, stages.Compilation, stages.ModelBuild,
        stages.Decompose, stages.Solve, stages.Extract,
        shard_stages.DomainAssign, shard_stages.DomainCompile,
        shard_stages.DomainModelBuild, shard_stages.DomainSolve,
        shard_stages.DomainExtract, shard_stages.DomainReconcile)
    for cls in stage_classes:
        points.append((cls, "run", f"stage.{cls.name.value}", {}))
    # The audit oracles re-solve with the same LP engines; their inner
    # calls belong to the audit, so the audit span is opaque.
    for cls in (stages.Audit, shard_stages.ShardAudit):
        points.append((cls, "run", "audit", {"opaque": True}))
    return points


def instrument(tracer) -> None:
    """Wrap every entry point of :func:`entry_points` with ``tracer``."""
    for owner, attr, name, options in entry_points():
        tracer.patch(owner, attr, name, **options)


class FactorChoices:
    """Counts which basis-factor class ``make_factor`` picks.

    A counter, not a span: it runs in untraced runs too, so every run
    records the factor class its LP engines used.
    """

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self._original = None

    def install(self) -> None:
        from repro.solver import revised_simplex

        original = revised_simplex.make_factor
        counts = self.counts

        def counted(*args, **kwargs):
            factor = original(*args, **kwargs)
            counts[type(factor).__name__] += 1
            return factor

        self._original = original
        revised_simplex.make_factor = counted

    def uninstall(self) -> None:
        if self._original is not None:
            from repro.solver import revised_simplex

            revised_simplex.make_factor = self._original
            self._original = None


def _sum(stats, field: str) -> float:
    return float(sum(getattr(s, field) for s in stats))


def _mean(stats, field: str) -> float:
    return _sum(stats, field) / len(stats) if stats else 0.0


def _max(stats, field: str) -> float:
    return float(max((getattr(s, field) for s in stats), default=0.0))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, record, per_span_s: float,
                  run_wall_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced pass, as ``name -> (value, unit)``.

    ``*_s`` timings are self times summed over the pass: each span's
    duration minus the part its child spans cover.  Counts come from the
    program's ``CycleStats`` where it keeps them, else from span counts.
    """
    selfs = tracer.self_times()
    self_s: Counter = Counter()
    calls: Counter = Counter()
    incl_s: Counter = Counter()
    for name, s, e, t in zip(tracer.names, tracer.starts, tracer.ends, selfs):
        self_s[name] += t
        incl_s[name] += e - s
        calls[name] += 1

    def by_prefix(table, prefix, suffix=""):
        return sum(v for k, v in table.items()
                   if k.startswith(prefix) and k.endswith(suffix))

    st = record.stats
    out: dict[str, tuple[float, str]] = {}

    # factor
    factorizations = calls["factor.sparse.factorize"] + calls[
        "factor.dense.factorize"] + calls["factor.inverse.factorize"]
    out["factor.factorize_s"] = (by_prefix(self_s, "factor.", ".factorize"),
                                 "s")
    out["factor.factorizations"] = (_sum(st, "lp_factorizations"), "count")
    out["factor.ftran_s"] = (by_prefix(self_s, "factor.", ".ftran"), "s")
    out["factor.ftran_calls"] = (by_prefix(calls, "factor.", ".ftran"),
                                 "count")
    out["factor.btran_s"] = (by_prefix(self_s, "factor.", ".btran"), "s")
    out["factor.btran_calls"] = (by_prefix(calls, "factor.", ".btran"),
                                 "count")
    out["factor.update_s"] = (by_prefix(self_s, "factor.", ".update"), "s")
    out["factor.ft_updates"] = (_sum(st, "lp_ft_updates"), "count")
    out["factor.fill_ratio_max"] = (_max(st, "lp_fill_ratio"), "ratio")
    out["factor.sparse_share"] = (
        _ratio(calls["factor.sparse.factorize"], factorizations), "ratio")
    # lp
    out["lp.solve_s"] = (self_s["lp.solve"], "s")
    out["lp.solves"] = (calls["lp.solve"], "count")
    out["lp.iterations"] = (_sum(st, "lp_iterations"), "count")
    out["lp.dual_pivots"] = (_sum(st, "lp_dual_pivots"), "count")
    out["lp.warm_hit_ratio"] = (_ratio(_sum(st, "lp_warm_hits"),
                                       _sum(st, "lp_warm_restarts")), "ratio")
    out["lp.pricing_candidates"] = (_sum(st, "lp_pricing_candidates"),
                                    "count")
    # branch and bound, presolve
    out["bnb.solve_s"] = (self_s["bnb.solve"], "s")
    out["bnb.nodes"] = (_sum(st, "solver_nodes"), "count")
    out["bnb.solves"] = (calls["bnb.solve"], "count")
    out["presolve.run_s"] = (self_s["presolve.run"], "s")
    out["presolve.calls"] = (calls["presolve.run"], "count")
    # repair, colgen
    out["repair.solve_s"] = (self_s["repair.solve"], "s")
    out["repair.escalations"] = (_sum(st, "repair_escalations"), "count")
    out["repair.gap_max"] = (_max(st, "repair_gap"), "ratio")
    out["colgen.root_s"] = (self_s["colgen.root"], "s")
    out["colgen.rounds"] = (_sum(st, "colgen_rounds"), "count")
    out["colgen.columns_priced"] = (_sum(st, "colgen_columns_priced"),
                                    "count")
    # strl, compiler, delta, model
    out["strl.generate_s"] = (self_s["strl.generate"], "s")
    out["compiler.compile_s"] = (self_s["compiler.compile"]
                                 + self_s["compiler.fragment"], "s")
    out["compiler.fragments"] = (calls["compiler.fragment"], "count")
    out["delta.compile_cycle_s"] = (self_s["delta.compile_cycle"], "s")
    clean = _sum(st, "jobs_clean")
    out["delta.reuse_ratio"] = (_ratio(clean, clean + _sum(st, "jobs_dirty")),
                                "ratio")
    out["delta.rows_patched"] = (_sum(st, "rows_patched"), "count")
    out["model.export_s"] = (self_s["model.export"], "s")
    out["model.dense_export_s"] = (self_s["model.dense_export"], "s")
    out["model.nnz"] = (_mean(st, "milp_nonzeros"), "count")
    # service
    submits = calls["service.submit"]
    out["service.submit_us"] = (
        1e6 * _ratio(incl_s["service.submit"], submits), "us")
    # The service's cycle span is run_one_cycle; its only child span is
    # the inner run_cycle, so its self time is the service's overhead.
    run_one = [t for n, t in zip(tracer.names, selfs) if n == "cycle"]
    out["service.cycle_overhead_ms"] = (
        1e3 * _ratio(sum(run_one), len(run_one)) if submits else 0.0, "ms")
    # shard, decompose
    out["shard.domains"] = (_mean(st, "shard_domains"), "count")
    out["shard.boundary_jobs"] = (_sum(st, "shard_boundary_jobs"), "count")
    out["shard.trimmed_jobs"] = (_sum(st, "shard_trimmed_jobs"), "count")
    out["shard.greedy_fallbacks"] = (_sum(st, "shard_greedy_fallbacks"),
                                     "count")
    out["decompose.split_s"] = (self_s["decompose.split"], "s")
    out["decompose.components"] = (_mean(st, "components"), "count")
    # highs
    out["highs.solve_s"] = (self_s["highs.solve"], "s")
    out["highs.solves"] = (calls["highs.solve"], "count")
    # sim
    out["sim.self_s"] = (self_s["sim.run"], "s")
    out["sim.events"] = (float(record.sim_events), "count")
    # pipeline stages, audit, tracing itself
    for stage in STAGES:
        out[f"stage.{stage}_s"] = (self_s[f"stage.{stage}"], "s")
    audit_s = incl_s["audit"]
    out["audit.s"] = (audit_s, "s")
    cycle_s = incl_s["cycle"]
    in_stages = sum(v for k, v in incl_s.items() if k.startswith("stage.")) \
        + audit_s
    out["trace.cycle_residual_pct"] = (
        100.0 * _ratio(cycle_s - in_stages, cycle_s), "%")
    traced_calls = len(tracer) - calls["audit"]
    out["trace.overhead_pct"] = (
        100.0 * _ratio(traced_calls * per_span_s,
                       max(run_wall_s - audit_s, 1e-9)), "%")
    out["trace.spans"] = (float(len(tracer)), "count")
    for name, (value, _) in out.items():
        if not math.isfinite(value):
            raise ValueError(f"per-layer metric {name} is not finite")
    return out
