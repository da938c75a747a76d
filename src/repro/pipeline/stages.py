"""The pipeline stages of one TetriSched scheduling cycle.

Each stage moves one step of the former monolithic ``_cycle_global`` into
a named, separately-timed unit (Sec. 3 of the paper: generate, aggregate
and compile, solve, extract).  ``ModelBuild`` and ``Decompose`` are new
steps introduced by the sparse-core refactor: the first forces the CSR
export (so its cost is visible instead of hiding inside the solver), the
second splits the aggregate MILP into independent blocks that
:func:`repro.solver.decompose.solve_decomposed` handles as separate,
much smaller branch-and-bound problems.
"""

from __future__ import annotations

import enum
import time
from typing import TYPE_CHECKING, Protocol

from repro import obs
from repro.core.allocation import PlanAccumulator
from repro.core.compiler import StrlCompiler
from repro.solver.decompose import decompose, solve_decomposed
from repro.solver.options import SolveOptions

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.context import CycleContext


class StageName(str, enum.Enum):
    """Stable names of the pipeline stages.

    These are the documented keys of ``CycleStats.stage_timings`` (and of
    the per-stage :mod:`repro.obs` spans nested under ``"cycle"``).  The
    enum mixes in :class:`str`, so a member hashes and compares equal to
    its plain string value — bench/report code should index timing dicts
    with ``StageName.SOLVE`` rather than string-matching ``"solve"``, and
    archived JSON (where keys are plain strings) still round-trips.
    """

    GENERATE = "generate"
    COMPILE = "compile"
    MODEL_BUILD = "model_build"
    DECOMPOSE = "decompose"
    SOLVE = "solve"
    EXTRACT = "extract"
    AUDIT = "audit"
    GREEDY = "greedy"
    #: Sharded-cycle stages (:mod:`repro.shard.stages`): domain
    #: partitioning + job assignment, and the cross-domain gang
    #: reconciliation pass over the boundary jobs.
    SHARD_ASSIGN = "shard_assign"
    RECONCILE = "reconcile"

    def __str__(self) -> str:  # uniform across py3.10..3.12 str-enum quirks
        return self.value

    __format__ = str.__format__


class Stage(Protocol):
    """One step of a scheduling cycle."""

    name: str

    def run(self, ctx: "CycleContext") -> None:  # pragma: no cover
        ...


class StrlGeneration:
    """Generate one STRL expression per pending job; cull valueless jobs."""

    name = StageName.GENERATE

    def run(self, ctx: "CycleContext") -> None:
        sched = ctx.scheduler
        for job_id, req in list(sched.queues.items()):
            expr = sched._generate(req, ctx.now)
            if expr is None:
                sched.queues.remove(job_id)
                ctx.result.culled.append(job_id)
                continue
            ctx.exprs.append((job_id, expr))
            ctx.requests[job_id] = req
        # Running elastic jobs re-enter the batch with grow/shrink/keep
        # options (elastic_mode): even with an empty queue these fragments
        # keep the cycle alive so a gang can widen as the cluster drains.
        for job_id, expr, cand in sched._resize_fragments(ctx.now):
            ctx.exprs.append((job_id, expr))
            ctx.requests[job_id] = sched._launched[job_id]
            ctx.resizable.append(cand)
        if not ctx.exprs:
            ctx.halt()


class Compilation:
    """Aggregate STRL under the top-level SUM and compile to a MILP.

    With ``delta_mode`` on, compilation goes through the scheduler's
    persistent :class:`~repro.core.delta.DeltaCompiler`: cached fragments
    of unchanged jobs are replayed and only dirty jobs re-run Algorithm 1;
    the per-cycle :class:`~repro.core.delta.CycleDelta` lands on the
    context for the stats record.  ``delta_mode=verify`` additionally
    recompiles from scratch and asserts bit-equality.
    """

    name = StageName.COMPILE

    def run(self, ctx: "CycleContext") -> None:
        sched = ctx.scheduler
        preemptible = (sched._preemption_candidates()
                       if ctx.config.enable_preemption else [])
        if sched._delta is not None:
            ctx.compiled, ctx.delta = sched._delta.compile_cycle(
                ctx.exprs, preemptible=preemptible, now=ctx.now,
                verify=ctx.config.delta_mode == "verify",
                resizable=ctx.resizable)
        else:
            compiler = StrlCompiler(sched.state, ctx.config.quantum_s,
                                    ctx.now)
            ctx.compiled = compiler.compile(ctx.exprs,
                                            preemptible=preemptible,
                                            resizable=ctx.resizable)
        ctx.stats.milp_variables = ctx.compiled.stats["variables"]
        ctx.stats.milp_constraints = ctx.compiled.stats["constraints"]


class ModelBuild:
    """Force the model's sparse export and build the warm start.

    The CSR triplets are cached on the model, so the solver stage reuses
    them for free; materializing here makes export cost a visible line in
    the per-stage timings rather than noise inside ``solve``.
    """

    name = StageName.MODEL_BUILD

    def run(self, ctx: "CycleContext") -> None:
        sched = ctx.scheduler
        assert ctx.compiled is not None
        sp = ctx.compiled.model.to_sparse_arrays()
        ctx.stats.milp_nonzeros = sp.nnz
        obs.emit("scheduler.model_build",
                 variables=ctx.compiled.model.num_variables,
                 constraints=len(ctx.compiled.model.constraints),
                 nnz=sp.nnz)
        if ctx.config.warm_start:
            ctx.stats.warm_start_attempted = True
            with obs.span("warm_start"):
                ctx.warm_start = sched._build_warm_start(ctx.compiled, ctx.now)
            # Hit/miss accounting flows through CycleStats (the simulator
            # folds it into the run profile), not the obs registry, so the
            # two layers never double-count.
            ctx.stats.warm_start_hit = ctx.warm_start is not None


class Decompose:
    """Split the aggregate MILP into independent connected components."""

    name = StageName.DECOMPOSE

    def run(self, ctx: "CycleContext") -> None:
        assert ctx.compiled is not None
        if not ctx.config.decomposition:
            ctx.stats.components = 1
            return
        ctx.decomposition = decompose(ctx.compiled.model)
        ctx.stats.components = max(1, ctx.decomposition.num_components)
        obs.emit("scheduler.decompose",
                 components=ctx.decomposition.num_components,
                 sizes=ctx.decomposition.component_sizes(),
                 free=int(ctx.decomposition.free_indices.size))


class Solve:
    """Solve the cycle MILP — per component when decomposed.

    A decomposed solve is still *one* logical solver invocation in the
    cycle record (Fig. 12's solver-work tables compare global vs
    greedy solve counts; decomposition must not inflate them).  The
    per-call :class:`~repro.solver.options.SolveOptions` carries the
    cycle warm start plus the scheduler's worker-pool and component-cache
    configuration (``solver_workers`` / ``component_cache``).
    """

    name = StageName.SOLVE

    def run(self, ctx: "CycleContext") -> None:
        sched = ctx.scheduler
        stats = ctx.stats
        assert ctx.compiled is not None
        decomp = ctx.decomposition
        t0 = time.monotonic()
        if decomp is not None and (decomp.num_components > 1
                                   or decomp.free_indices.size):
            # Column groups are expressed in the monolithic model's column
            # space; component sub-models renumber columns, so decomposed
            # repair solves run per-component LP + dive without colgen.
            res = solve_decomposed(
                decomp, sched._backend,
                options=SolveOptions(
                    warm_start=ctx.warm_start,
                    workers=ctx.config.solver_workers,
                    component_cache=sched._component_cache))
        else:
            groups = None
            if ctx.config.solve_mode != "exact":
                groups = tuple(ctx.compiled.lazy_column_groups())
            res = sched._backend.solve(
                ctx.compiled.model,
                options=SolveOptions(warm_start=ctx.warm_start,
                                     column_groups=groups))
        stats.solver_latency_s += time.monotonic() - t0
        stats.absorb(res)
        if not res.status.has_solution:
            # All-zero (schedule nothing) is always feasible, so this should
            # only happen under a very tight solver budget.
            sched._prev_plan = []
            ctx.halt()
            return
        stats.objective = res.objective
        ctx.solution = res


class Extract:
    """Decode the solution, apply preemptions, launch start-now placements."""

    name = StageName.EXTRACT

    def run(self, ctx: "CycleContext") -> None:
        sched = ctx.scheduler
        compiled, res = ctx.compiled, ctx.solution
        assert compiled is not None and res is not None and res.x is not None

        # Apply preemption decisions before materializing placements: the
        # freed nodes are part of the supply the solution relied on.
        for victim_id in compiled.preempted_jobs(res.x):
            sched.state.finish(victim_id)
            req = sched._launched.pop(victim_id)
            sched.queues.push(victim_id, req.priority, req)
            ctx.result.preempted.append(victim_id)

        # Apply width re-plans the same way: an actual resize releases the
        # old allocation here (its quanta are supply the solution spent);
        # choosing the current width is the supply-neutral keep option — a
        # no-op whose placement must not be re-booked on the ledger.
        keeps: set[str] = set()
        for job_id, width in sorted(compiled.resize_decisions(res.x).items()):
            cand = compiled.resize_candidates[job_id]
            if width == cand.width:
                keeps.add(job_id)
                continue
            sched.state.finish(job_id)
            ctx.result.resized.append(job_id)
            if width > cand.width:
                ctx.stats.elastic_grown += 1
            else:
                ctx.stats.elastic_shrunk += 1

        with obs.span("decode"):
            placements = [pl for pl in compiled.decode(res.x)
                          if pl.job_id not in keeps]
            sched._prev_plan = [(rec.job_id, rec.leaf)
                                for rec in compiled.leaf_records
                                if rec.chosen_counts(res.x)
                                and rec.job_id not in compiled.resize_candidates]
            sched._prev_now = ctx.now

        with obs.span("materialize"):
            acc = PlanAccumulator(sched.state, ctx.now, ctx.config.quantum_s)
            ctx.result.allocations = sched._materialize(
                placements, compiled, acc, ctx.requests, ctx.now)


class Audit:
    """Independently recheck the cycle's decisions (``audit_mode``).

    Runs the :mod:`repro.verify` oracles between Extract and the launch
    loop — the cluster state already reflects this cycle's preemptions but
    the new allocations have not started, which is exactly the ledger the
    solution's supply constraints were written against.  Raises
    :class:`~repro.verify.audit.AuditViolation` on the first cycle whose
    solve result fails either the MILP certificate replay or the
    space-time schedule audit.  The greedy (NG) pipeline is not audited:
    it never builds an aggregate model for the oracles to replay.
    """

    name = StageName.AUDIT

    def run(self, ctx: "CycleContext") -> None:
        from repro.verify import (AuditViolation, audit_cycle, certify_gap,
                                  check_certificate)
        from repro.verify.audit import check_ledger_orphans

        # Ledger-registry consistency first: a cancellation that finished a
        # running job on the cluster ledger must have dropped it from the
        # launch registry in the same drain — an orphan here means a
        # lifecycle transition (cancel racing the solve) touched one side.
        orphans = check_ledger_orphans(ctx.scheduler.state,
                                       ctx.scheduler._launched)
        if orphans:
            raise AuditViolation(orphans)

        compiled, res = ctx.compiled, ctx.solution
        if compiled is None or res is None:
            return
        cert = check_certificate(compiled.model, res)
        # Repair-path results claim an LP-relaxation bound; re-derive it
        # with an independent LP engine and certify the reported gap.
        # Exact solves pass vacuously (no "repair_bound_source" tag).
        gap_cert = certify_gap(compiled.model, res)
        report = audit_cycle(
            ctx.scheduler.state, compiled, res, ctx.exprs,
            quantum_s=ctx.config.quantum_s, now=ctx.now,
            allocations=ctx.result.allocations)
        obs.emit("scheduler.audit",
                 certificate_ok=cert.ok, gap_certified=gap_cert.ok,
                 audit_ok=report.ok,
                 placements=report.placements,
                 quanta_checked=report.quanta_checked,
                 objective_claimed=report.objective_claimed,
                 objective_recomputed=report.objective_recomputed)
        if not cert.ok:
            cert.raise_if_failed()
        gap_cert.raise_if_failed()
        report.raise_if_failed()


class GreedyScheduling:
    """TetriSched-NG: per-job MILPs in priority order (no aggregation)."""

    name = StageName.GREEDY

    def run(self, ctx: "CycleContext") -> None:
        ctx.stats.components = 0
        ctx.result.allocations = ctx.scheduler._cycle_greedy(
            ctx.exprs, ctx.requests, ctx.now, ctx.stats)
