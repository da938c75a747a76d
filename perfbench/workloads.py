"""The benchmark's workloads: configurations and seeded input generators.

Each workload takes the run's ``--seed`` and turns it into the inputs the
program receives (simulator jobs, or service job specs with their arrival
and cancellation times).  The program never sees the seed itself, only
what is generated from it, plus the scheduler seed every run pins.

Every configuration value whose default depends on the environment is
pinned here: ``TetriSchedConfig.backend`` defaults from ``REPRO_BACKEND``,
so each workload names its engine, and ``solver_workers=0`` keeps all load
in the one benchmark process.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

#: Cycles with pending work a run must time before it may stop, so the
#: p90 of cycle time has at least ten samples beyond it.
MIN_PENDING_CYCLES = 100


def derive_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th input drawn from run seed ``seed``."""
    return seed * 10_000 + index


@dataclass(frozen=True)
class SimChain:
    """A chain of seeded GR MIX simulations on the full RC256 cluster."""

    name: str
    why: str
    #: Simulations in the first pass, which gives the quality metrics.
    sims: int
    #: Simulations generated; timing goes on through the ones after the
    #: first pass (round again if the run outlasts them).
    pool: int
    solve_mode: str
    decomposition: bool
    backend: str = "pure"
    racks: int = 8
    nodes_per_rack: int = 32
    num_jobs: int = 96
    target_utilization: float = 1.3
    estimate_error: float = -0.5
    quantum_s: float = 10.0
    cycle_s: float = 10.0
    plan_ahead_s: float = 96.0
    rel_gap: float = 0.02

    kind = "sim"

    def scheduler_config(self, sim_seed: int, audit: bool):
        from repro.core.scheduler import TetriSchedConfig

        # solver_time_limit is the paper's per-cycle budget; at these
        # sizes it should never bind (a binding cycle shows up in
        # empty_plan_pct), which keeps decisions deterministic.
        return TetriSchedConfig(
            quantum_s=self.quantum_s, cycle_s=self.cycle_s,
            plan_ahead_s=self.plan_ahead_s, backend=self.backend,
            rel_gap=self.rel_gap, solver_time_limit=self.cycle_s,
            solve_mode=self.solve_mode, decomposition=self.decomposition,
            solver_workers=0, component_cache=False, delta_mode="off",
            shard_mode="off", audit_mode=audit, seed=sim_seed)

    def generate(self, seed: int) -> list:
        """The chain's workloads: ``pool`` job lists, one per simulation."""
        from repro.cluster.cluster import Cluster
        from repro.workloads import GR_MIX
        from repro.workloads.gridmix import GridmixConfig, generate_workload

        cluster = Cluster.build(self.racks, self.nodes_per_rack)
        return [generate_workload(GR_MIX, cluster, GridmixConfig(
                    num_jobs=self.num_jobs,
                    target_utilization=self.target_utilization,
                    estimate_error=self.estimate_error,
                    seed=derive_seed(seed, i)))
                for i in range(self.pool)]


@dataclass(frozen=True)
class ServiceJob:
    """One generated service submission."""

    #: Service-clock time the job is due to be submitted.
    due_s: float
    #: The JSON job spec handed to ``SchedulerService.submit_spec``.
    spec: dict
    #: Job class: ``far`` / ``near`` / ``best_effort`` / ``seam``.
    kind: str
    #: Cycle index at which the job is cancelled, or ``None``.
    cancel_cycle: int | None = None


@dataclass(frozen=True)
class ServiceStream:
    """An open-loop arrival stream into a long-lived scheduler service."""

    name: str
    why: str
    racks: int = 8
    nodes_per_rack: int = 32
    backend: str = "scipy"
    rel_gap: float = 0.1
    quantum_s: float = 4.0
    cycle_s: float = 4.0
    plan_ahead_s: float = 48.0
    shard_mode: str = "racks"
    delta_mode: str = "on"
    #: Service lifetimes generated, each with its own arrival stream.  The
    #: first gives the quality metrics; timing goes on through the rest
    #: (round again if the run outlasts them).
    lifetimes: int = 8
    #: Cycles during which jobs arrive; the backlog then drains.
    arrival_cycles: int = 400
    #: Mean Poisson arrivals per cycle outside bursts.
    rate_per_cycle: float = 1.0
    #: Every ``burst_every`` cycles, ``burst_size`` extra jobs arrive
    #: within that cycle.
    burst_every: int = 6
    burst_size: int = 8
    #: Gang width and duration ranges (nodes; quanta).
    min_k: int = 2
    max_k: int = 16
    min_duration_q: int = 2
    max_duration_q: int = 8
    #: Job mix (shares of arrivals; the rest are far-deadline gangs).
    near_share: float = 0.12
    best_effort_share: float = 0.55
    seam_share: float = 0.03
    #: Nodes taken from each side of the domain seam for seam gangs.
    seam_side: int = 8
    cancel_share: float = 0.04

    kind = "service"

    def scheduler_config(self, seed: int, audit: bool):
        from repro.core.scheduler import TetriSchedConfig

        return TetriSchedConfig(
            quantum_s=self.quantum_s, cycle_s=self.cycle_s,
            plan_ahead_s=self.plan_ahead_s, backend=self.backend,
            rel_gap=self.rel_gap, solver_time_limit=self.cycle_s,
            solve_mode="exact", decomposition=True, solver_workers=0,
            component_cache=False, delta_mode=self.delta_mode,
            shard_mode=self.shard_mode, audit_mode=audit, seed=seed)

    def generate(self, seed: int) -> list[list[ServiceJob]]:
        """One arrival stream per lifetime."""
        return [self.stream(derive_seed(seed, i))
                for i in range(self.lifetimes)]

    def stream(self, stream_seed: int) -> list[ServiceJob]:
        """One lifetime's arrival stream, sorted by due time."""
        rng = random.Random(stream_seed)
        racks = [f"r{r}" for r in range(self.racks)]
        rack_nodes = {rack: [f"{rack}n{n}" for n in range(self.nodes_per_rack)]
                      for rack in racks}
        # Nodes on both sides of the seam between the two halves of the
        # cluster, which the default rack-aligned partition puts in
        # different domains.  A gang wider than either side fits in no
        # single domain, so it goes to reconciliation.  The seam nodes
        # serve only seam gangs: reconciliation schedules against what the
        # domain solves left over, so seam gangs that shared nodes with
        # rack gangs would starve for as long as their racks stay busy.
        mid = self.racks // 2
        side = self.seam_side
        left, right = racks[mid - 1], racks[mid]
        seam = rack_nodes[left][-side:] + rack_nodes[right][:side]
        rack_nodes[left] = rack_nodes[left][:-side]
        rack_nodes[right] = rack_nodes[right][side:]
        q = self.quantum_s
        jobs: list[ServiceJob] = []
        seq = 0
        for c in range(self.arrival_cycles):
            t0 = c * self.cycle_s
            n = _poisson(rng, self.rate_per_cycle)
            if c % self.burst_every == self.burst_every - 1:
                n += self.burst_size
            for due in sorted(t0 + rng.random() * self.cycle_s
                              for _ in range(n)):
                seq += 1
                job_id = f"j{seq}"
                u = rng.random()
                r = rng.randrange(self.racks)
                home = rack_nodes[racks[r]]
                pair = home + rack_nodes[racks[(r + 1) % self.racks]]
                dur_q = rng.randint(self.min_duration_q, self.max_duration_q)
                k = rng.randint(self.min_k, self.max_k)
                rack_opts = [
                    {"k": k, "duration_s": dur_q * q, "nodes": home,
                     "label": "rack"},
                    {"k": k, "duration_s": (dur_q + 1) * q, "nodes": pair,
                     "label": "pod-pair"}]
                if u < self.seam_share:
                    kind = "seam"
                    spec = {"job_id": job_id, "priority": "slo",
                            "value": 20.0 + 10.0 * rng.random(),
                            "deadline": 1e9,
                            "options": [{
                                "k": rng.randint(side + 1, 2 * side - 2),
                                "duration_s": rng.randint(2, 4) * q,
                                "nodes": seam, "label": "seam"}]}
                elif u < self.seam_share + self.best_effort_share:
                    kind = "best_effort"
                    spec = {"job_id": job_id, "priority": "best_effort",
                            "options": [{"k": rng.randint(1, 8),
                                         "duration_s": dur_q * q,
                                         "nodes": home, "label": "rack"}]}
                elif u < (self.seam_share + self.best_effort_share
                          + self.near_share):
                    kind = "near"
                    slack_q = rng.randint(2, 8)
                    spec = {"job_id": job_id, "priority": "slo",
                            "value": 10.0 + 10.0 * rng.random(),
                            "deadline": round(due + (dur_q + 1 + slack_q) * q,
                                              3),
                            "options": rack_opts}
                else:
                    kind = "far"
                    spec = {"job_id": job_id, "priority": "slo",
                            "value": 10.0 + 5.0 * rng.random(),
                            "deadline": 1e9, "options": rack_opts}
                cancel = None
                if rng.random() < self.cancel_share:
                    cancel = c + rng.randint(1, 5)
                jobs.append(ServiceJob(round(due, 6), spec, kind, cancel))
        return jobs


def _poisson(rng: random.Random, mean: float) -> int:
    """A Poisson draw from ``rng`` (Knuth's method; small means only)."""
    import math

    limit = math.exp(-mean)
    k, p = 0, rng.random()
    while p > limit:
        k += 1
        p *= rng.random()
    return k


WORKLOADS = {
    w.name: w for w in (
        SimChain(
            name="rc256-grmix",
            why=("The paper's headline experiment (Fig. 6 regime): B&B "
                 "node LPs on the repo's own LP/factor engines dominate "
                 "cycle time."),
            sims=20, pool=50, solve_mode="exact", decomposition=True),
        SimChain(
            name="rc256-grmix-repair",
            why=("Same simulations with repair+colgen: the LP layer runs "
                 "colgen roots and dual dives over the dense export, not "
                 "B&B nodes."),
            sims=30, pool=70, solve_mode="auto", decomposition=False),
        ServiceStream(
            name="service-stream",
            why=("Front door, cancels, delta patching, shard "
                 "assign/reconcile and per-cycle fixed costs on HiGHS; the "
                 "pure LP engine is bypassed."),
        ),
    )
}


def describe(workload) -> dict:
    """A JSON-ready record of a workload's full configuration."""
    out = dataclasses.asdict(workload)
    out["kind"] = workload.kind
    return out
