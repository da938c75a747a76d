"""Per-run profiles: what one simulation run cost, and where.

A :class:`RunProfile` has two layers:

* **counters** — always collected.  The simulator derives them from the
  per-cycle :class:`~repro.core.scheduler.CycleStats` records the scheduler
  already produces (solver solves, B&B nodes, LP iterations, warm-start
  hits, launches, culls), so they are available even with the observability
  registry disabled and cost nothing extra.
* **timers** — per-phase wall-clock aggregates (generate / compile / solve /
  decode / materialize, plus solver internals) captured from the global
  :class:`~repro.obs.registry.Registry` *when it is enabled*; empty
  otherwise.

The experiment runner attaches a profile to every
:class:`~repro.sim.engine.SimulationResult`; :mod:`repro.obs.report`
renders it.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RunProfile:
    """Aggregated observability data for one simulation run."""

    #: Flat counter name -> accumulated value.
    counters: dict[str, float] = field(default_factory=dict)
    #: Span path -> {count, total_s, mean_s, max_s} (empty when obs is off).
    timers: dict[str, dict[str, float]] = field(default_factory=dict)

    # -- building ------------------------------------------------------------
    def bump(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def maximize(self, name: str, value: float) -> None:
        """Track a high-water-mark counter (e.g. worst factor fill ratio)."""
        self.counters[name] = max(self.counters.get(name, 0.0), value)

    def merge_delta(self, delta: dict) -> None:
        """Fold a :func:`repro.obs.registry.snapshot_delta` into this profile."""
        self.timers.update(delta.get("timers", {}))
        for name, value in delta.get("counters", {}).items():
            self.bump(name, value)

    # -- derived metrics -----------------------------------------------------
    def counter(self, name: str, default: float = 0.0) -> float:
        return self.counters.get(name, default)

    @property
    def warm_start_hit_rate(self) -> float:
        """Fraction of warm-start attempts that produced a feasible seed.

        ``nan`` when the run never attempted a warm start (greedy mode, or
        warm starting disabled).
        """
        attempts = self.counter("scheduler.warm_start.attempts")
        if not attempts:
            return float("nan")
        return self.counter("scheduler.warm_start.hits") / attempts

    @property
    def lp_warm_restart_hit_rate(self) -> float:
        """Fraction of dual-simplex warm restarts that avoided a cold solve.

        ``nan`` when the run never attempted one (tableau engine, scipy
        backend, or a search that never branched).
        """
        attempts = self.counter("solver.lp.warm_restarts")
        if not attempts:
            return float("nan")
        return self.counter("solver.lp.warm_hits") / attempts

    @property
    def nodes_per_solve(self) -> float:
        solves = self.counter("solver.solves")
        if not solves:
            return 0.0
        return self.counter("solver.bnb.nodes") / solves

    def as_dict(self) -> dict:
        return {"counters": dict(self.counters),
                "timers": {k: dict(v) for k, v in self.timers.items()}}
