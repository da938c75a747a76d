"""The TetriSched scheduler core (Sec. 3).

On each scheduling cycle TetriSched:

1. generates a STRL expression per pending job, replicating placement
   options over the plan-ahead window and culling valueless options;
2. aggregates them under the top-level SUM (global scheduling) and compiles
   to a MILP (Algorithm 1), with supply drawn from its space-time view of
   cluster availability;
3. solves the MILP (optionally warm-started from the previous cycle's
   solution shifted forward in time, Sec. 3.2.2) — after splitting it into
   independent connected components that solve as separate, smaller
   branch-and-bound problems (:mod:`repro.solver.decompose`);
4. extracts and launches only the placements scheduled to start *now*;
   everything else is reconsidered from scratch next cycle — this is the
   adaptive re-planning that makes TetriSched robust to mis-estimates and
   new arrivals (Sec. 2.3.3).

The cycle itself is an explicit staged pipeline (:mod:`repro.pipeline`):
``StrlGeneration -> Compilation -> ModelBuild -> Decompose -> Solve ->
Extract``; :meth:`TetriSched.run_cycle` is a thin driver around it that
owns queue/state bookkeeping and the per-cycle stats record.

The ablation configurations of Table 2 are expressed as config flags:

* ``global_scheduling=False`` -> TetriSched-NG: jobs are solved one at a
  time in priority-queue order, each seeing the tentative plan of its
  predecessors;
* ``heterogeneity_aware=False`` -> TetriSched-NH: placement preferences are
  collapsed to a whole-cluster equivalence set with the conservative
  (slowed-down) runtime estimate;
* ``plan_ahead_s=0`` -> TetriSched-NP (alsched): jobs may only start now.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.cluster.cluster import Cluster
from repro.cluster.state import ClusterState
from repro.core.allocation import Allocation, PlanAccumulator
from repro.core.compiler import CompiledBatch, StrlCompiler
from repro.core.queues import PriorityClass, PriorityQueues
from repro.errors import SchedulerError
from repro.pipeline.context import CycleContext
from repro.pipeline.driver import global_pipeline, greedy_pipeline
from repro.solver.backend import make_backend
from repro.solver.options import UNSET, SolveOptions, is_set
from repro.solver.parallel import ComponentCache
from repro.solver.stats import SolverStats
from repro.strl.ast import Max, NCk, StrlNode
from repro.strl.generator import (DEFAULT_EARLINESS_BIAS, SpaceOption,
                                  generate_elastic_strl, generate_job_strl,
                                  quantize_duration)
from repro.valuefn import ValueFunction

#: Valid values of the mode-style config fields (``config.validate()``).
SOLVE_MODES = ("exact", "repair", "auto")
SHARD_MODES = ("off", "racks", "auto")


@dataclass(frozen=True)
class JobRequest:
    """A pending job as seen by the scheduler.

    ``options`` carry *estimated* durations (possibly mis-estimated); the
    simulator computes true runtimes separately.  ``deadline`` is used for
    option culling; ``priority`` orders the greedy policy's queues.
    """

    job_id: str
    options: tuple[SpaceOption, ...]
    value_fn: ValueFunction
    priority: PriorityClass
    submit_time: float
    deadline: float | None = None
    #: Malleable gang: ``options`` form a width ladder (one option per
    #: admissible gang width over one equivalence set, narrower widths
    #: carrying longer durations).  With ``config.elastic_mode`` the job
    #: compiles to an :class:`~repro.strl.ast.ElasticNCk` per start and,
    #: once running, re-enters every cycle with grow/shrink/keep options
    #: (per-cycle width re-planning).  Without it the ladder is still
    #: schedulable — the solver picks one width at admission and the job
    #: stays rigid.
    elastic: bool = False

    def __post_init__(self) -> None:
        if not self.options:
            raise SchedulerError(f"job {self.job_id!r} has no placement options")


@dataclass
class TetriSchedConfig:
    """Tunable parameters (defaults follow the paper where it states them)."""

    #: Time quantum used to discretize the plan-ahead window.
    quantum_s: float = 4.0
    #: Scheduling cycle period ("TetriSched cycle period is set to 4s").
    cycle_s: float = 4.0
    #: Plan-ahead window in seconds (Fig. 11 sweeps 0..144).
    plan_ahead_s: float = 96.0
    #: Global (MILP over all pending jobs) vs greedy one-at-a-time (-NG).
    global_scheduling: bool = True
    #: Soft-constraint awareness (-NH when False).
    heterogeneity_aware: bool = True
    #: Deadline/zero-value culling of options and jobs.
    cull: bool = True
    #: Solver backend name (see repro.solver.backend.make_backend).  The
    #: default honors the ``REPRO_BACKEND`` environment variable so test
    #: matrices (CI) can pin ``pure`` vs ``scipy`` without code changes.
    backend: str = field(
        default_factory=lambda: os.environ.get("REPRO_BACKEND", "auto"))
    #: Relative optimality gap ("within 10% of the optimal" in the paper).
    rel_gap: float = 0.01
    #: Wall-clock budget per solve, seconds (None = unlimited).
    solver_time_limit: float | None = None
    #: Solve strategy: ``"exact"`` (branch and bound), ``"repair"`` (LP
    #: relaxation + rounding repair with lazy start-time columns and an
    #: audited gap), or ``"auto"`` (repair, escalating to exact when the
    #: audited gap exceeds :attr:`repair_gap_threshold`).
    solve_mode: str = "exact"
    #: Audited-gap ceiling before ``"auto"`` escalates to exact search.
    repair_gap_threshold: float = 0.05
    #: Worker processes for solving decomposed MILP components concurrently
    #: (0/1 = sequential in-process).  See :mod:`repro.solver.parallel`.
    solver_workers: int = 0
    #: Memoize per-component solver results across cycles keyed by a
    #: canonical model fingerprint; exact hits replay the cached result,
    #: structural near-misses donate a warm-start seed (Sec. 3.2.2).
    component_cache: bool = False
    #: Seed each solve with the previous cycle's shifted solution.
    warm_start: bool = True
    #: Split the cycle MILP into independent connected components and solve
    #: each as its own (much smaller) branch-and-bound problem.  Schedule-
    #: preserving: the recombined optimum equals the monolithic one.
    decomposition: bool = True
    #: EXTENSION (paper future work, Sec. 7.2): let the MILP preempt
    #: running best-effort jobs when the freed nodes buy more SLO value
    #: than the preemption penalty costs.
    enable_preemption: bool = False
    #: Objective penalty per preemption (in value units; keep above the
    #: best-effort base value so kills only happen for SLO-value gains).
    preemption_penalty: float = 5.0
    #: EXTENSION: per-cycle width re-planning for malleable gangs
    #: (``JobRequest.elastic``).  Pending elastic jobs compile to
    #: :class:`~repro.strl.ast.ElasticNCk` width ladders; *running* elastic
    #: jobs re-enter every global cycle with supply-neutral keep,
    #: quanta-releasing shrink, and penalty-charged grow options, letting
    #: the MILP trade a running gang's width against everything else it
    #: could do with those nodes.  Requires ``global_scheduling``; under
    #: sharding only the pending-side ladders apply (resizes need the
    #: monolithic batch).
    elastic_mode: bool = False
    #: Objective penalty per grow reconfiguration (analogous to
    #: ``preemption_penalty``): widening a running gang forces a restart /
    #: data reshuffle, so grow options pay this much value up front.
    #: Shrinks are free — they only release quanta back to the ledger.
    reconfig_penalty: float = 1.0
    #: DRESS-style congestion guard: when pending min-width demand exceeds
    #: ``threshold * free_nodes``, elastic jobs are capped to a fair-share
    #: max width at admission and running gangs are denied grow options
    #: until the backlog drains.  ``1.0`` engages the guard exactly at
    #: oversubscription; larger values tolerate deeper backlogs.  The
    #: default tolerates transient spikes (plan-ahead can often absorb
    #: them without narrowing anyone) yet still trips whenever free
    #: capacity is nearly exhausted, which is when capping width — and
    #: offering shrinks — actually pays.
    elastic_congestion_threshold: float = 4.0
    #: Deadline slack granted to compensate for duration ceil-rounding, in
    #: quanta.  Quantization rounds estimated runtimes *up* by as much as one
    #: quantum; without this grace, borderline-feasible SLO jobs would be
    #: culled even though their true runtime fits ("optimistically allows
    #: scheduled jobs to complete if their deadline has not passed",
    #: Sec. 7.1).  Attainment metrics always use the true deadline.
    deadline_grace_quanta: float = 1.0
    #: Cross-cycle delta compilation (``off`` | ``on`` | ``verify``).  With
    #: ``on``, the global pipeline keeps each job's compiled STRL fragment
    #: across cycles and re-runs Algorithm 1 only for jobs whose expression
    #: changed, patching the shared sparse model instead of reconstructing
    #: it.  ``verify`` additionally runs the full recompile alongside every
    #: cycle and raises :class:`~repro.core.delta.DeltaDivergence` unless
    #: the two models are bit-identical.  Ignored by the greedy (-NG) path,
    #: whose per-job models see tentative-reservation-capped availability
    #: and are never cacheable.
    delta_mode: str = "off"
    #: Run the :mod:`repro.verify` oracles on every global cycle: replay
    #: the solve through the MILP certificate checker and the space-time
    #: schedule auditor, raising
    #: :class:`~repro.verify.audit.AuditViolation` on the first cycle
    #: whose emitted schedule breaks an invariant.  Costs one extra
    #: ``O(nonzeros)`` pass per cycle; intended for tests, benchmarks,
    #: and fig-scale regression tripwires rather than production runs.
    audit_mode: bool = False
    #: Sharded multi-domain scheduling (``off`` | ``racks`` | ``auto``).
    #: With ``racks``, the cluster is partitioned into rack-aligned
    #: scheduling domains (:mod:`repro.shard`): each cycle assigns jobs to
    #: domains (affinity-aware, load-balanced, seeded tie-break), compiles
    #: and solves one MILP per domain concurrently on the worker pool, and
    #: reconciles cross-domain gangs through a small coupling model over
    #: the boundary jobs.  ``auto`` enables sharding once the cluster is
    #: large enough for one monolithic model to stop scaling (>= 64
    #: nodes).  Requires ``global_scheduling`` and (for now) no
    #: preemption — ``validate()`` rejects the incoherent combinations.
    shard_mode: str = "off"
    #: Number of scheduling domains (``shard_mode != off``).  ``0`` picks
    #: a default of about four racks per domain; ``1`` degenerates to a
    #: single whole-cluster domain whose cycle is bit-equal to the
    #: monolithic pipeline.
    shard_count: int = 0
    #: The single RNG seed for everything stochastic under this config:
    #: domain-assignment tie-breaks, the worker-pool dispatch order of the
    #: sharded solve, and the workload generators driven by the
    #: experiment runner and benches.  One seed, bit-reproducible runs.
    seed: int = 0

    @property
    def plan_ahead_quanta(self) -> int:
        return int(round(self.plan_ahead_s / self.quantum_s))

    # -- SolveOptions-style UNSET layering ---------------------------------
    @classmethod
    def partial(cls, **overrides) -> "TetriSchedConfig":
        """A layer: only the named fields are set, the rest are ``UNSET``.

        Mirrors :class:`~repro.solver.options.SolveOptions` layering — a
        partial config documents exactly what it overrides and inherits
        everything else from the layer below via :meth:`merged_into`::

            >>> patch = TetriSchedConfig.partial(shard_mode="racks")
            >>> patch.merged_into(TetriSchedConfig(quantum_s=2)).shard_mode
            'racks'
        """
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(overrides) - names
        if unknown:
            raise SchedulerError(
                f"unknown config field(s) {sorted(unknown)}; "
                f"expected a subset of {sorted(names)}")
        blank = {name: UNSET for name in names}
        blank.update(overrides)
        return cls(**blank)

    def merged_into(self, base: "TetriSchedConfig") -> "TetriSchedConfig":
        """This layer's set fields over ``base`` (UNSET fields inherit)."""
        merged = {}
        for f in dataclasses.fields(self):
            mine = getattr(self, f.name)
            merged[f.name] = mine if is_set(mine) else getattr(base, f.name)
        return TetriSchedConfig(**merged)

    def is_resolved(self) -> bool:
        """Whether every field carries a concrete value (no UNSET left)."""
        return all(is_set(getattr(self, f.name))
                   for f in dataclasses.fields(self))

    def validate(self) -> "TetriSchedConfig":
        """Reject incoherent configurations up front, not mid-cycle.

        Raises :class:`~repro.errors.SchedulerError` naming every field
        involved.  Returns ``self`` so callers can chain.  Requires a
        resolved config (merge partial layers first — see
        :func:`resolve_config`).
        """
        def fail(msg: str) -> None:
            raise SchedulerError(f"invalid TetriSchedConfig: {msg}")

        if not self.is_resolved():
            fail("unresolved (UNSET) fields remain; merge layers via "
                 "merged_into()/resolve_config() before use")
        if self.quantum_s <= 0:
            fail(f"quantum_s must be positive, got {self.quantum_s!r}")
        if self.cycle_s <= 0:
            fail(f"cycle_s must be positive, got {self.cycle_s!r}")
        if self.plan_ahead_s < 0:
            fail(f"plan_ahead_s must be >= 0, got {self.plan_ahead_s!r}")
        if self.delta_mode not in ("off", "on", "verify"):
            fail(f"delta_mode must be 'off', 'on' or 'verify', "
                 f"got {self.delta_mode!r}")
        if self.solve_mode not in SOLVE_MODES:
            fail(f"solve_mode must be one of {SOLVE_MODES}, "
                 f"got {self.solve_mode!r}")
        if self.shard_mode not in SHARD_MODES:
            fail(f"shard_mode must be one of {SHARD_MODES}, "
                 f"got {self.shard_mode!r}")
        if self.shard_count < 0:
            fail(f"shard_count must be >= 0, got {self.shard_count!r}")
        if self.shard_mode == "off" and self.shard_count > 0:
            fail("shard_count is set but shard_mode='off' — either enable "
                 "sharding (shard_mode='racks'|'auto') or drop shard_count")
        if self.shard_mode != "off" and not self.global_scheduling:
            fail("shard_mode requires global_scheduling=True: the greedy "
                 "(-NG) path schedules one job at a time and has no domain "
                 "MILPs to shard")
        if self.shard_mode != "off" and not self.heterogeneity_aware:
            fail("shard_mode requires heterogeneity_aware=True: the -NH "
                 "ablation flattens every option to one whole-cluster "
                 "equivalence set, which no single domain can host")
        if self.shard_mode != "off" and self.enable_preemption:
            fail("shard_mode with enable_preemption is not supported: "
                 "preemption candidates span domains and would break "
                 "domain independence")
        if self.elastic_mode and not self.global_scheduling:
            fail("elastic_mode requires global_scheduling=True: width "
                 "re-planning trades a running gang's nodes against the "
                 "whole batch, which the greedy (-NG) one-job-at-a-time "
                 "path cannot express")
        if self.reconfig_penalty < 0:
            fail(f"reconfig_penalty must be >= 0, "
                 f"got {self.reconfig_penalty!r}")
        if self.elastic_congestion_threshold <= 0:
            fail(f"elastic_congestion_threshold must be positive, "
                 f"got {self.elastic_congestion_threshold!r}")
        if self.rel_gap < 0:
            fail(f"rel_gap must be >= 0, got {self.rel_gap!r}")
        # repair_gap_threshold < 0 is legal: it forces auto mode to
        # escalate to exact search every cycle (the bench uses -1.0).
        if self.solver_workers < 0:
            fail(f"solver_workers must be >= 0, got {self.solver_workers!r}")
        return self


def default_config() -> TetriSchedConfig:
    """The base layer every resolved config sits on (documented defaults).

    Constructed fresh per call: the ``backend`` default reads the
    ``REPRO_BACKEND`` environment variable at construction time, so test
    matrices that re-point it between schedulers keep working.
    """
    return TetriSchedConfig()


def resolve_config(config: TetriSchedConfig | None) -> TetriSchedConfig:
    """Merge a (possibly partial) config over the defaults and validate.

    ``None`` resolves to :func:`default_config`.  A fully-concrete config
    is validated and returned unchanged (identity-preserving, so callers
    that keep a reference see the same object the scheduler uses).
    """
    if config is None:
        return default_config()
    if not config.is_resolved():
        config = config.merged_into(default_config())
    return config.validate()


@dataclass(kw_only=True)
class CycleStats(SolverStats):
    """Per-cycle observability record (drives Fig. 12).

    The solver counters are the inherited :class:`SolverStats` fields,
    which the cycle's pipeline stages fold results into directly; the
    fields below describe the rest of the cycle.
    """

    now: float
    pending: int = 0
    launched: int = 0
    culled: int = 0
    cycle_latency_s: float = 0.0
    #: Jobs cancelled by :meth:`TetriSched.cancel` and drained this cycle.
    cancelled: int = 0
    #: Delta-compilation accounting (``delta_mode != off``; zero otherwise).
    #: ``jobs_dirty`` counts fragments recompiled this cycle (new arrivals
    #: plus changed expressions), ``jobs_clean`` counts cached fragments
    #: replayed verbatim; ``rows_patched`` / ``cols_patched`` are the model
    #: rows/columns actually rewritten (recompiled fragments plus the
    #: per-cycle supply rows and preemption columns).
    jobs_dirty: int = 0
    jobs_clean: int = 0
    rows_patched: int = 0
    cols_patched: int = 0
    delta_full_rebuild: bool = False
    #: Sharded-cycle accounting (``shard_mode != off``; zeros otherwise).
    #: ``shard_domains`` counts domains that compiled a MILP this cycle,
    #: ``shard_boundary_jobs`` the cross-domain gangs reconciled by the
    #: coupling model, ``shard_trimmed_jobs`` the jobs whose placement
    #: options were restricted when pinned to a domain, and
    #: ``shard_quality_bound`` the declared bound on objective loss vs the
    #: monolithic optimum (the summed best-case value of the trimmed and
    #: boundary jobs; zero when no gang crosses a domain — exact parity).
    shard_domains: int = 0
    shard_boundary_jobs: int = 0
    shard_trimmed_jobs: int = 0
    shard_quality_bound: float = 0.0
    #: Domains whose MILP timed out and fell back to greedy this cycle.
    shard_greedy_fallbacks: int = 0
    #: Elastic re-planning accounting (``elastic_mode``; zeros otherwise).
    #: ``elastic_offered`` counts running elastic jobs that re-entered the
    #: batch with resize options this cycle; ``elastic_resized`` those the
    #: solver actually re-sized (``grown``/``shrunk`` split it); the
    #: congestion fields record whether the DRESS-style guard engaged and
    #: the fair-share width cap it imposed (0 = uncapped).
    elastic_offered: int = 0
    elastic_resized: int = 0
    elastic_grown: int = 0
    elastic_shrunk: int = 0
    elastic_congested: bool = False
    elastic_width_cap: int = 0
    #: Per-domain records (``{"domain", "jobs", "objective", "solve_s"}``),
    #: JSON-serializable for the service's cycle-stats API.
    domain_stats: list = field(default_factory=list)
    #: Wall-clock seconds per pipeline stage.  Keys are the
    #: :class:`repro.pipeline.stages.StageName` values (plain strings after
    #: JSON round-trips; the str-mixin enum indexes both).
    stage_timings: dict[str, float] = field(default_factory=dict)


@dataclass
class CycleResult:
    """What a scheduling cycle decided."""

    allocations: list[Allocation] = field(default_factory=list)
    culled: list[str] = field(default_factory=list)
    #: Running jobs killed by the preemption extension this cycle.
    preempted: list[str] = field(default_factory=list)
    #: Jobs whose :meth:`TetriSched.cancel` request was honored this cycle.
    cancelled: list[str] = field(default_factory=list)
    #: Running elastic jobs whose gang width changed this cycle
    #: (``elastic_mode``).  Each resized job also appears in
    #: ``allocations`` with its *new* node set — callers must treat that
    #: allocation as a reconfiguration of the running job, not a fresh
    #: launch.  Jobs that kept their width are listed nowhere (no-op).
    resized: list[str] = field(default_factory=list)
    stats: CycleStats | None = None


class TetriSched:
    """The scheduler: queue management + per-cycle global rescheduling.

    Construct through the :mod:`repro.api` facade:

    >>> from repro.api import Scheduler
    >>> from repro.cluster import Cluster
    >>> cluster = Cluster.build(racks=1, nodes_per_rack=4)
    >>> api = Scheduler.open(cluster, TetriSchedConfig(quantum_s=10,
    ...                                                plan_ahead_s=30))
    >>> sched = api.core   # the underlying TetriSched
    """

    def __init__(self, cluster: Cluster,
                 config: TetriSchedConfig | None = None) -> None:
        self.cluster = cluster
        self.config = resolve_config(config)
        self.state = ClusterState(cluster.node_names)
        self.queues: PriorityQueues = PriorityQueues()
        self.cycle_history: list[CycleStats] = []
        self._backend = make_backend(
            self.config.backend,
            SolveOptions(rel_gap=self.config.rel_gap,
                         time_limit=self.config.solver_time_limit,
                         solve_mode=self.config.solve_mode,
                         repair_gap_threshold=self.config.repair_gap_threshold))
        self._component_cache = (ComponentCache()
                                 if self.config.component_cache else None)
        self._global_pipeline = global_pipeline(audit=self.config.audit_mode)
        self._greedy_pipeline = greedy_pipeline()
        # Previous cycle's accepted plan: (job_id, leaf) pairs, and its time.
        self._prev_plan: list[tuple[str, NCk]] = []
        self._prev_now: float = 0.0
        # Requests of currently running jobs (for preemption re-queuing).
        self._launched: dict[str, JobRequest] = {}
        # Elastic re-planning: this cycle's congestion verdict
        # (congested?, fair-share width cap) — recomputed by run_cycle so
        # every _generate/_resize call in one cycle sees the same view.
        self._congestion: tuple[bool, int | None] = (False, None)
        # Cross-cycle fragment cache (delta_mode on/verify, global only).
        self._delta = None
        if (self.config.delta_mode != "off"
                and self.config.global_scheduling):
            from repro.core.delta import DeltaCompiler
            self._delta = DeltaCompiler(self.state, self.config.quantum_s)
        # Cancellation requests not yet drained.  ``cancel`` may be called
        # from another thread mid-cycle (the async service does); requests
        # are honored only at safe points — cycle start, the launch loop
        # (a cancelled job is never ``state.start``-ed), and cycle end — so
        # a cancel can never strand an allocation-ledger entry.
        self._cancelled: set[str] = set()
        # Sharded multi-domain scheduling (shard_mode racks/auto).  The
        # coordinator persists across cycles: sticky job->domain
        # assignments and per-domain delta fragment stores live on it.
        self._coordinator = None
        self._sharded_pipeline = None
        if self.config.shard_mode != "off":
            from repro.shard import (DomainCoordinator, sharded_pipeline,
                                     sharding_active)
            if sharding_active(self.config, cluster):
                self._coordinator = DomainCoordinator(
                    cluster, self.state, self.config)
                self._sharded_pipeline = sharded_pipeline(
                    audit=self.config.audit_mode)
                # Delta compilation composes with sharding through the
                # coordinator's per-domain fragment stores; the monolithic
                # store would full-rebuild on every interleaved signature.
                self._delta = None

    # -- queue management ----------------------------------------------------
    def submit(self, request: JobRequest) -> None:
        """Add a job to the pending queue (from YARN proxy / reservation)."""
        self.queues.push(request.job_id, request.priority, request)

    def on_job_finished(self, job_id: str, now: float) -> frozenset[str]:
        """Signal job completion; frees its nodes (Sec. 3.3 interface (c))."""
        self._launched.pop(job_id, None)
        return self.state.finish(job_id)

    def cancel(self, job_id: str) -> None:
        """Request cancellation of a queued or running job.

        Safe to call from another thread while a cycle is in flight (set
        addition is atomic under the GIL); the request is honored at the
        next safe point.  Unknown ids are silently discarded at drain time
        (the job may have finished in the meantime).
        """
        self._cancelled.add(job_id)

    def _drain_cancellations(self) -> list[str]:
        """Apply pending cancellations; returns the job ids drained.

        Queued jobs leave the queue; running jobs are finished on the
        cluster ledger and dropped from the launch registry — the paired
        removal is what keeps the allocation ledger orphan-free (the audit
        oracle checks the invariant every audited cycle).
        """
        if not self._cancelled:
            return []
        drained: list[str] = []
        for job_id in sorted(self._cancelled):
            if job_id in self.queues:
                self.queues.remove(job_id)
                drained.append(job_id)
            elif self.state.is_running(job_id):
                self.state.finish(job_id)
                self._launched.pop(job_id, None)
                drained.append(job_id)
            elif job_id in self._launched:
                # Cancel landed mid-resize: Extract finished the old
                # allocation and the launch loop skipped the re-entry, so
                # only the registry half remains.  Drop it to keep the
                # ledger-registry pairing orphan-free.
                self._launched.pop(job_id)
                drained.append(job_id)
            # else: already finished/culled — nothing to undo.
        self._cancelled.clear()
        return drained

    @property
    def pending_count(self) -> int:
        return len(self.queues)

    # -- per-cycle scheduling --------------------------------------------------
    def run_cycle(self, now: float) -> CycleResult:
        """Run one scheduling cycle at absolute time ``now``.

        Returns the launch decisions; callers (the simulator / YARN proxy)
        are responsible for actually starting the jobs and reporting
        completion via :meth:`on_job_finished`.
        """
        t_cycle = time.monotonic()
        result = CycleResult()
        result.cancelled.extend(self._drain_cancellations())
        self._congestion = self._elastic_congestion()
        stats = CycleStats(now=now)
        ctx = CycleContext(scheduler=self, now=now, result=result,
                           stats=stats)
        if self._sharded_pipeline is not None:
            pipeline = self._sharded_pipeline
        elif self.config.global_scheduling:
            pipeline = self._global_pipeline
        else:
            pipeline = self._greedy_pipeline

        with obs.span("cycle"):
            pipeline.run(ctx)
            kept: list[Allocation] = []
            resized = set(result.resized)
            for alloc in result.allocations:
                if alloc.job_id in self._cancelled:
                    # Cancelled while the solver ran: never start it, never
                    # touch the ledger.  A queued job stays queued and the
                    # drain below removes it; a resized job's old allocation
                    # was already finished by Extract, so the drain drops
                    # its launch-registry half instead of re-entering it.
                    continue
                if alloc.job_id in resized:
                    # Width re-plan: the old allocation was finished in
                    # Extract; re-enter the running job at its new width.
                    # The request stays in the launch registry untouched.
                    self.state.start(alloc.job_id, alloc.nodes,
                                     alloc.start_time, alloc.expected_end)
                    kept.append(alloc)
                    continue
                req = self.queues.remove(alloc.job_id)
                self._launched[alloc.job_id] = req
                self.state.start(alloc.job_id, alloc.nodes,
                                 alloc.start_time, alloc.expected_end)
                kept.append(alloc)
            result.allocations = kept
            result.resized = [job_id for job_id in result.resized
                              if self.state.is_running(job_id)]
        result.cancelled.extend(self._drain_cancellations())

        stats.pending = self.pending_count
        stats.launched = len(result.allocations)
        stats.culled = len(result.culled)
        stats.cycle_latency_s = time.monotonic() - t_cycle
        stats.cancelled = len(result.cancelled)
        stats.elastic_offered = len(ctx.resizable)
        stats.elastic_resized = len(result.resized)
        stats.elastic_congested = self._congestion[0]
        stats.elastic_width_cap = self._congestion[1] or 0
        delta = ctx.delta
        if delta is not None:
            stats.jobs_dirty = delta.jobs_dirty
            stats.jobs_clean = delta.jobs_clean
            stats.rows_patched = delta.rows_patched
            stats.cols_patched = delta.cols_patched
            stats.delta_full_rebuild = bool(delta.full_rebuild)
        if ctx.shard is not None:
            sh = ctx.shard
            stats.shard_domains = len(sh.active_domains())
            stats.shard_boundary_jobs = len(sh.boundary)
            stats.shard_trimmed_jobs = len(sh.trimmed)
            stats.shard_quality_bound = sh.quality_bound
            stats.shard_greedy_fallbacks = len(sh.fallback_domains)
            stats.domain_stats = sh.domain_records()
        self.cycle_history.append(stats)
        result.stats = stats
        return result

    # -- STRL generation --------------------------------------------------------
    def _generate(self, req: JobRequest, now: float) -> StrlNode | None:
        options = req.options
        if not self.config.heterogeneity_aware:
            options = self._flatten_options(options)
        if req.elastic and self.config.elastic_mode:
            return generate_elastic_strl(
                list(options), req.value_fn, now=now,
                quantum_s=self.config.quantum_s,
                plan_ahead_quanta=self.config.plan_ahead_quanta,
                deadline=req.deadline, cull=self.config.cull,
                width_cap=self._congestion[1])
        return generate_job_strl(
            list(options), req.value_fn, now=now,
            quantum_s=self.config.quantum_s,
            plan_ahead_quanta=self.config.plan_ahead_quanta,
            deadline=req.deadline, cull=self.config.cull)

    def _flatten_options(self, options: tuple[SpaceOption, ...]) -> tuple[SpaceOption, ...]:
        """-NH: one whole-cluster option with the conservative runtime.

        The paper's TetriSched-NH "creates STRL expressions that draw k
        containers from only one possible equivalence set: the whole
        cluster" and "uses the specified slowdown to conservatively estimate
        job's runtime on a (likely) sub-optimal allocation" (Sec. 6.3).
        """
        k = options[0].k
        worst = max(opt.duration_s for opt in options)
        return (SpaceOption(self.cluster.node_names, k=k, duration_s=worst,
                            label="nh-flattened"),)

    # -- global scheduling ---------------------------------------------------------
    def _preemption_candidates(self):
        """Running best-effort jobs the preemption extension may kill."""
        from repro.core.compiler import PreemptionCandidate
        candidates = []
        for job_id, req in self._launched.items():
            if req.priority != PriorityClass.BEST_EFFORT:
                continue
            if req.elastic and self.config.elastic_mode:
                # A running elastic job re-enters the batch as a resize
                # candidate; offering it as a preemption victim too would
                # let one solution free its nodes twice.
                continue
            if not self.state.is_running(job_id):
                continue
            alloc = self.state.allocation_of(job_id)
            candidates.append(PreemptionCandidate(
                job_id=job_id, nodes=alloc.nodes,
                penalty=self.config.preemption_penalty))
        return candidates

    # -- elastic width re-planning ---------------------------------------------------
    @property
    def _resize_enabled(self) -> bool:
        """Whether running elastic jobs re-enter this scheduler's cycles.

        Resizes need the monolithic global batch: the greedy path is
        rejected by ``validate()`` and sharded cycles solve per-domain
        MILPs that cannot see a cross-domain gang's full width ladder —
        there only the pending-side :class:`~repro.strl.ast.ElasticNCk`
        shapes apply (trimmed per domain like any other option).
        """
        return (self.config.elastic_mode
                and self.config.global_scheduling
                and self._coordinator is None)

    def _elastic_congestion(self) -> tuple[bool, int | None]:
        """DRESS-style congestion verdict for this cycle.

        The ledger is congested when the pending jobs' *minimum* node
        demand (each elastic job counted at its narrowest width) exceeds
        ``elastic_congestion_threshold`` times the currently free supply.
        Under congestion every pending elastic job is capped to a
        fair-share max width and running gangs are denied grow options,
        so malleable jobs shrink toward their minimum footprint instead
        of racing the backlog for nodes.
        """
        if not self.config.elastic_mode:
            return (False, None)
        free = len(self.state.free_nodes())
        elastic_pending = 0
        demand = 0
        for _job_id, req in self.queues.items():
            widths = [opt.k for opt in req.options if opt.feasible]
            if not widths:
                continue
            demand += min(widths)
            if req.elastic:
                elastic_pending += 1
        if demand <= self.config.elastic_congestion_threshold * free:
            return (False, None)
        cap = max(1, free // max(1, elastic_pending))
        return (True, cap)

    def _resize_fragments(self, now: float):
        """(job_id, expr, candidate) per running elastic job, for re-entry.

        Each running elastic job contributes one STRL fragment whose root
        indicator doubles as the release decision: activating it frees
        the job's current quanta on the supply rows
        (:func:`~repro.core.compiler.assemble_batch`) and the chosen leaf
        re-consumes the new width.  A supply-neutral *keep* option at the
        current width makes staying put weakly dominate inaction, so the
        fragment competes fairly without ever forcing a resize.
        """
        from repro.core.compiler import ResizeCandidate
        if not self._resize_enabled:
            return []
        congested = self._congestion[0]
        fragments = []
        for job_id in sorted(self._launched):
            req = self._launched[job_id]
            if not req.elastic or not self.state.is_running(job_id):
                continue
            alloc = self.state.allocation_of(job_id)
            expr = self._resize_expr(req, alloc, now, congested)
            if expr is None:
                continue
            fragments.append((job_id, expr,
                              ResizeCandidate(job_id=job_id,
                                              nodes=alloc.nodes)))
        return fragments

    def _resize_expr(self, req: JobRequest, alloc, now: float,
                     congested: bool) -> StrlNode | None:
        """Grow/shrink/keep options for one running elastic job.

        Remaining work rescales with width: if the job would need
        ``full(w)`` seconds at width ``w`` from scratch and has a fraction
        ``frac`` of its work left, width ``w`` finishes it in
        ``frac * full(w)`` seconds.  Shrink options draw from the job's
        *current* nodes (no migration, duration grows); grow options draw
        from the full equivalence set and pay ``reconfig_penalty``; the
        keep option re-books exactly the current footprint (supply-neutral
        by construction).  All options start now — a deferred resize is
        just next cycle's re-plan.
        """
        q = self.config.quantum_s
        family = sorted((opt for opt in req.options if opt.feasible),
                        key=lambda o: o.k)
        full = {opt.k: opt.duration_s for opt in family}
        nodes_by_width = {opt.k: opt.nodes for opt in family}
        cur = len(alloc.nodes)
        if cur not in full:
            return None  # footprint no longer matches the ladder
        remaining_s = alloc.expected_end - now
        if remaining_s <= q * 1e-6:
            return None  # completing this quantum; let it finish
        frac = min(1.0, remaining_s / full[cur])
        leaves: list[NCk] = []
        for width in sorted(full):
            if congested and width > cur:
                continue  # grow denied while the backlog outstrips supply
            if not congested and width < cur:
                # Squeezing a gang costs real work (narrow widths run at
                # reduced efficiency), so shrink options exist only while
                # pending demand outstrips free supply.  Otherwise the
                # solver would trade true gang slowdown for the cosmetic
                # earliness of jobs that fit in free capacity anyway.
                continue
            dur_q = quantize_duration(frac * full[width], q)
            completion = now + dur_q * q
            value = req.value_fn(completion)
            if width > cur:
                value -= self.config.reconfig_penalty
            if value > 0.0:
                value *= max(0.1, 1.0 - DEFAULT_EARLINESS_BIAS * dur_q)
            if value <= 0.0:
                if width > cur:
                    continue  # growth must pay for itself
                # Keep/shrink stay offered even when the job's own value
                # has decayed to nothing: a running gang must always be
                # squeezable, or a zero-value wide gang (excluded from
                # preemption candidates) would block SLO bursts forever.
                value = 1e-6 * (1 + width)
            eq_set = alloc.nodes if width <= cur else nodes_by_width[width]
            if width > len(eq_set):
                continue
            leaves.append(NCk(nodes=eq_set, k=width, start=0,
                              duration=dur_q, value=value))
        if not leaves:
            return None
        if len(leaves) == 1:
            return leaves[0]
        return Max(*leaves)

    # -- greedy (-NG) scheduling -------------------------------------------------------
    def _cycle_greedy(self, exprs, requests, now,
                      stats: SolverStats) -> list[Allocation]:
        """One-at-a-time scheduling in priority order (TetriSched-NG).

        Uses the full MILP formulation per job; each job's supply reflects
        the tentative (possibly deferred) placements of jobs decided earlier
        in this cycle.
        """
        acc = PlanAccumulator(self.state, now, self.config.quantum_s)
        order = {job_id: i for i, job_id in enumerate(self.queues.job_ids())}
        exprs_sorted = sorted(exprs, key=lambda kv: order[kv[0]])
        allocs: list[Allocation] = []
        for job_id, expr in exprs_sorted:
            with obs.span("compile"):
                compiler = StrlCompiler(acc, self.config.quantum_s, now)
                compiled = compiler.compile([(job_id, expr)])
            stats.milp_variables += compiled.stats["variables"]
            stats.milp_constraints += compiled.stats["constraints"]
            t0 = time.monotonic()
            with obs.span("solve"):
                res = self._backend.solve(compiled.model)
            stats.solver_latency_s += time.monotonic() - t0
            stats.absorb(res)
            if not res.status.has_solution or res.x is None:
                continue
            stats.objective += res.objective
            with obs.span("decode"):
                placements = compiled.decode(res.x)
            # Reserve *all* chosen placements (incl. deferred) in the
            # accumulator so later jobs see them; launch only start == 0.
            # Picks are transactional per job: if any placement turns out
            # unassignable, every reservation already made for this job is
            # rolled back so later jobs don't see phantom-occupied capacity.
            job_allocs: list[tuple[frozenset[str], int]] = []
            picked: list[tuple[frozenset[str], int, int]] = []
            pick_failed = False
            with obs.span("materialize"):
                for pl in placements:
                    try:
                        nodes = acc.pick(compiled.partitioning,
                                         pl.node_counts, pl.start,
                                         pl.duration)
                    except SchedulerError:
                        # Fragmentation made this tentative placement
                        # unassignable (possible for multi-leaf Min gangs
                        # that the per-leaf interval caps cannot fully
                        # protect).  Skip; the job is re-planned next cycle.
                        pick_failed = True
                        break
                    picked.append((nodes, pl.start, pl.duration))
                    if pl.start == 0:
                        job_allocs.append((nodes, pl.duration))
                if pick_failed:
                    for nodes, start, duration in picked:
                        acc.unreserve(nodes, start, duration)
                    obs.count("scheduler.greedy.pick_rollbacks")
                    continue  # never launch a partial gang
                for nodes, dur in job_allocs:
                    allocs = self._merge_launch(
                        allocs, job_id, nodes,
                        now, now + dur * self.config.quantum_s)
        self._prev_plan = []
        return allocs

    # -- shared helpers -----------------------------------------------------------------
    def _materialize(self, placements, compiled: CompiledBatch,
                     acc: PlanAccumulator, requests, now) -> list[Allocation]:
        """Turn decoded placements into launch decisions for start == 0."""
        allocs: list[Allocation] = []
        # Reserve deferred placements first so they are never cannibalized
        # by now-starting picks of overlapping partitions? No: reservation
        # order does not matter for feasibility (supply constraints hold for
        # every quantum), but deterministic order aids reproducibility.
        for pl in sorted(placements, key=lambda p: (p.start, p.job_id)):
            nodes = acc.pick(compiled.partitioning, pl.node_counts,
                             pl.start, pl.duration)
            if pl.start == 0:
                allocs = self._merge_launch(
                    allocs, pl.job_id, nodes, now,
                    now + pl.duration * self.config.quantum_s)
        return allocs

    @staticmethod
    def _merge_launch(allocs: list[Allocation], job_id: str,
                      nodes: frozenset[str], start: float,
                      expected_end: float) -> list[Allocation]:
        """Merge multi-leaf (e.g. Min gang) placements of one job."""
        for i, a in enumerate(allocs):
            if a.job_id == job_id:
                allocs[i] = Allocation(job_id, a.nodes | nodes, a.start_time,
                                       max(a.expected_end, expected_end))
                return allocs
        allocs.append(Allocation(job_id, nodes, start, expected_end))
        return allocs

    # -- warm start --------------------------------------------------------------------------
    def _build_warm_start(self, compiled: CompiledBatch,
                          now: float) -> np.ndarray | None:
        """Previous cycle's plan, shifted forward, as a feasible MILP point.

        Implements the paper's "we cache solver results to serve as a
        feasible initial solution for the next cycle's solver invocation"
        (Sec. 3.2.2).  Jobs that launched, finished, or no longer fit are
        dropped; if nothing survives, returns ``None``.
        """
        if not self._prev_plan:
            return None
        elapsed_q = int(round((now - self._prev_now) / self.config.quantum_s))
        if elapsed_q < 0:
            return None

        # Remaining capacity ledger per (partition, quantum).
        remaining: dict[tuple[int, int], int] = {}
        for part in compiled.partitioning.partitions:
            profile = self.state.availability_profile(
                part.nodes, compiled.horizon, now, self.config.quantum_s)
            for t in range(compiled.horizon):
                remaining[(part.pid, t)] = profile[t]

        # Index compiled leaves by (job, eq-set, start, duration).
        by_key = {}
        for rec in compiled.leaf_records:
            key = (rec.job_id, rec.leaf.nodes, rec.leaf.start,
                   rec.leaf.duration)
            by_key.setdefault(key, rec)

        x = np.zeros(compiled.model.num_variables)
        used_any = False
        for job_id, leaf in self._prev_plan:
            new_start = leaf.start - elapsed_q
            if new_start < 0 or job_id not in compiled.job_indicators:
                continue
            rec = by_key.get((job_id, leaf.nodes, new_start, leaf.duration))
            if rec is None:
                continue
            # Greedily refill the leaf's demand from its partitions.
            plan: list[tuple[int, int]] = []
            needed = leaf.k
            span = range(new_start, new_start + leaf.duration)
            for pid, pvar in sorted(rec.partition_vars.items()):
                if needed == 0:
                    break
                avail = min(remaining[(pid, t)] for t in span)
                take = min(needed, avail, int(pvar.ub or 0))
                if take > 0:
                    plan.append((pid, take))
                    needed -= take
            if needed > 0:
                continue  # no longer fits; drop from warm start
            for pid, take in plan:
                x[rec.partition_vars[pid].index] = take
                for t in span:
                    remaining[(pid, t)] -= take
            x[rec.indicator.index] = 1.0
            x[compiled.job_indicators[job_id].index] = 1.0
            used_any = True
        if not used_any:
            return None
        if not compiled.model.check_feasible(x):
            return None
        return x
