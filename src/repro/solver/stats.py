"""The solver-work record: every per-cycle solver counter, declared once.

Each field of :class:`SolverStats` declares, next to its default:

* ``merge`` — how two values combine: ``"sum"``, ``"max"`` (a
  high-water mark such as the worst factor fill ratio) or ``"any"``
  (a flag that is set once any part set it);
* ``source`` — where :meth:`SolverStats.absorb` reads it from one
  :class:`~repro.solver.result.MILPResult`: ``"stats"`` is
  ``result.stats[<field name>]``, ``"nodes"`` is ``result.nodes``,
  ``"count"`` is one per result, and ``None`` marks a field the cycle's
  pipeline stages set themselves (MILP size, latency, objective);
* ``profile`` / ``label`` — the run-profile counter it folds into and the
  row label ``repro profile`` shows for it.

Everything that moves these numbers — decomposed-solve recombination,
the cycle record (:class:`~repro.core.scheduler.CycleStats` inherits the
fields), the simulator's run profile, the profile report and the cycle
benchmark — walks this declaration.  Adding a counter is one field here
plus the line that produces its value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

_MERGE = {
    "sum": lambda a, b: a + b,
    "max": max,
    "any": lambda a, b: a or b,
}


def _stat(default, merge: str, profile: str, label: str,
          source: str | None = "stats"):
    return field(default=default, metadata={
        "merge": merge, "source": source, "profile": profile,
        "label": label})


@dataclass(kw_only=True)
class SolverStats:
    """Solver work accumulated over one or more solves."""

    solves: int = _stat(0, "sum", "solver.solves", "MILP solves",
                        source="count")
    solver_nodes: int = _stat(0, "sum", "solver.bnb.nodes",
                              "B&B nodes explored", source="nodes")
    #: Revised-simplex engine work (:func:`engine_stats`).
    lp_iterations: int = _stat(0, "sum", "solver.lp.iterations",
                               "simplex/LP iterations")
    lp_dual_pivots: int = _stat(0, "sum", "solver.lp.dual_pivots",
                                "dual-simplex pivots")
    lp_refactorizations: int = _stat(0, "sum", "solver.lp.refactorizations",
                                     "basis refactorizations")
    lp_warm_restarts: int = _stat(0, "sum", "solver.lp.warm_restarts",
                                  "LP warm restarts")
    lp_warm_hits: int = _stat(0, "sum", "solver.lp.warm_hits",
                              "LP warm-restart hits")
    lp_cold_fallbacks: int = _stat(0, "sum", "solver.lp.cold_fallbacks",
                                   "LP warm restarts fallen back to cold")
    lp_factorizations: int = _stat(0, "sum", "solver.lp.factorizations",
                                   "basis factorizations (total)")
    lp_ft_updates: int = _stat(0, "sum", "solver.lp.ft_updates",
                               "Forrest-Tomlin updates")
    lp_pricing_candidates: int = _stat(0, "sum",
                                       "solver.lp.pricing_candidates",
                                       "pricing candidates examined")
    #: Worst ``nnz(L+U+etas) / nnz(B)`` seen.
    lp_fill_ratio: float = _stat(0.0, "max", "solver.lp.fill_ratio",
                                 "worst factor fill ratio")
    #: Component-cache exact hits (result replayed without solving),
    #: structural near-misses (cached solution donated as a warm start)
    #: and LRU evictions.
    cache_hits: int = _stat(0, "sum", "solver.cache.hits",
                            "component-cache exact hits")
    cache_warm_hits: int = _stat(0, "sum", "solver.cache.warm_hits",
                                 "component-cache warm hits")
    cache_evictions: int = _stat(0, "sum", "solver.cache.evictions",
                                 "component-cache evictions")
    #: Relaxation-repair work: colgen pricing rounds, columns activated
    #: by pricing, worst audited (LP-bound) gap, escalations to exact B&B.
    colgen_rounds: int = _stat(0, "sum", "solver.colgen.rounds",
                               "colgen pricing rounds")
    colgen_columns_priced: int = _stat(0, "sum",
                                       "solver.colgen.columns_priced",
                                       "colgen columns activated")
    repair_gap: float = _stat(0.0, "max", "solver.repair.gap",
                              "worst audited repair gap")
    repair_escalations: int = _stat(0, "sum", "solver.repair.escalations",
                                    "repair escalations to exact B&B")
    #: Set by the cycle's stages, not read from results.
    solver_latency_s: float = _stat(0.0, "sum", "solver.latency_s",
                                    "solver wall seconds", source=None)
    objective: float = _stat(0.0, "sum", "solver.objective",
                             "summed MILP objective", source=None)
    milp_variables: int = _stat(0, "sum", "solver.milp_variables",
                                "MILP variables", source=None)
    milp_constraints: int = _stat(0, "sum", "solver.milp_constraints",
                                  "MILP constraints", source=None)
    milp_nonzeros: int = _stat(0, "sum", "solver.milp_nonzeros",
                               "MILP nonzeros", source=None)
    #: Independent MILP blocks solved (0 = no global solve).
    components: int = _stat(0, "sum", "scheduler.components",
                            "independent MILP components", source=None)
    warm_start_attempted: bool = _stat(False, "any",
                                       "scheduler.warm_start.attempts",
                                       "warm-start attempts", source=None)
    warm_start_hit: bool = _stat(False, "any", "scheduler.warm_start.hits",
                                 "warm-start hits", source=None)

    def absorb(self, res) -> None:
        """Fold one :class:`~repro.solver.result.MILPResult` in."""
        for f in RESULT_FIELDS:
            source = f.metadata["source"]
            if source == "count":
                value = 1
            elif source == "nodes":
                value = res.nodes
            else:
                value = type(f.default)(res.stats.get(f.name, f.default))
            self._fold(f, value)

    def merge(self, other: "SolverStats") -> None:
        """Fold another record in, field by field, by each merge rule."""
        for f in STAT_FIELDS:
            self._fold(f, getattr(other, f.name))

    def result_stats(self) -> dict:
        """The ``result.stats`` entries :meth:`absorb` reads back."""
        return {f.name: getattr(self, f.name) for f in RESULT_FIELDS
                if f.metadata["source"] == "stats"}

    def _fold(self, f, value) -> None:
        setattr(self, f.name,
                _MERGE[f.metadata["merge"]](getattr(self, f.name), value))


#: The declaration, in display order.
STAT_FIELDS = fields(SolverStats)
#: The fields :meth:`SolverStats.absorb` reads from a result.
RESULT_FIELDS = tuple(f for f in STAT_FIELDS
                      if f.metadata["source"] is not None)


def engine_stats(engine) -> dict:
    """A revised-simplex engine's counters as ``lp_*`` result stats."""
    stats = {f"lp_{key}": value for key, value in engine.counters.items()}
    stats["lp_fill_ratio"] = engine.fill_ratio
    return stats


__all__ = ["RESULT_FIELDS", "STAT_FIELDS", "SolverStats", "engine_stats"]
