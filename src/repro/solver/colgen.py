"""Lazy start-time column generation over the revised simplex.

Plan-ahead replicates every job's placement options across every quantized
start time, so the MILP's column count grows linearly with
``plan_ahead / quantum`` (the paper's own scaling pressure, Sec. 6).  Most
of those columns never enter the schedule: a job is placed at one start
time, and the LP relaxation prices the alternatives out quickly.  This
module exploits that by *deferring* columns instead of materializing them:

1. The compiler tags each start-time alternative of each job as a
   :class:`ColumnGroup` (its leaf indicator plus partition variables).
2. :func:`colgen_root` fixes every non-seed group at its lower bound
   (``ub := lb`` — the columns exist but cannot move) and solves the
   restricted LP relaxation with the revised simplex.
3. Deferred groups are priced by the reduced costs of the restricted
   optimum: a group whose best member prices favorably (``d_j < -tol``)
   is activated (bounds restored) and the LP re-solved with a *primal*
   warm restart — relaxing bounds keeps the incumbent basis
   primal-feasible, so reoptimization is a few primal pivots.
4. When no deferred group prices favorably the restricted optimum is
   optimal for the **full** LP: every inactive column sits at its lower
   bound with a nonnegative reduced cost, which is exactly the bounded-
   variable optimality condition.  The reported objective is therefore a
   true full-relaxation bound, never a restricted-problem artifact.

If the round limit is hit first, every remaining group is activated for
one final solve so the bound stays exact (``fallback_full`` records this).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.solver.result import LPResult, SolveStatus
from repro.solver.revised_simplex import RevisedSimplexEngine

#: A deferred column must price below ``-_PRICE_TOL`` to be activated.
_PRICE_TOL = 1e-7


@dataclass(frozen=True)
class ColumnGroup:
    """One start-time alternative of one job, as model column indices.

    ``columns`` holds the leaf indicator plus its partition variables (for
    gang/Min subtrees: all leaves sharing that indicator).  Fixing them at
    their lower bounds removes the alternative from the restricted LP
    without rebuilding the matrix; restoring the upper bounds activates it.
    """

    job_id: str
    start: int
    columns: tuple[int, ...]
    value: float = 0.0


@dataclass
class ColgenRoot:
    """Outcome of a column-generation root LP solve.

    Carries the engine and the final working bounds so the repair dive can
    keep warm-restarting the same factorization with inactive columns
    still pinned (an incumbent with them at their lower bound is feasible
    for the full model, so pinning loses nothing).
    """

    result: LPResult
    engine: RevisedSimplexEngine
    lb: np.ndarray
    ub_work: np.ndarray
    rounds: int = 0
    columns_priced_in: int = 0
    groups_lazy: int = 0
    groups_activated: int = 0
    fallback_full: bool = False
    lp_iterations: int = 0
    stats: dict = field(default_factory=dict)


def select_lazy(groups, seed_per_job: int = 2) -> list[ColumnGroup]:
    """The groups to defer: all but each job's first ``seed_per_job``.

    Seeds are the earliest start times (ties broken toward higher value),
    matching the generator's earliness bias — the LP usually places jobs
    early, so the seed set alone is often near-optimal and later columns
    are priced in only when contention pushes a job's start time out.
    """
    by_job: dict[str, list[ColumnGroup]] = {}
    for g in groups:
        by_job.setdefault(g.job_id, []).append(g)
    lazy: list[ColumnGroup] = []
    for gs in by_job.values():
        gs.sort(key=lambda g: (g.start, -g.value))
        lazy.extend(gs[seed_per_job:])
    return lazy


def colgen_root(sa, groups, seed_per_job: int = 2, max_rounds: int = 25,
                tol: float = _PRICE_TOL, max_iter: int = 50_000) -> ColgenRoot:
    """Solve the LP relaxation of ``sa`` with lazy column generation.

    ``sa`` is a dense :class:`~repro.solver.model.StandardArrays` export
    (minimization orientation); ``groups`` an iterable of
    :class:`ColumnGroup`.  With no groups this degenerates to a single
    cold solve of the full relaxation.  The returned
    :attr:`ColgenRoot.result` objective is always a valid full-LP bound
    (see the module docstring for why).
    """
    engine = RevisedSimplexEngine(sa.c, sa.a_ub, sa.b_ub, sa.a_eq, sa.b_eq)
    lb = np.asarray(sa.lb, dtype=float).copy()
    ub = np.asarray(sa.ub, dtype=float).copy()
    ub_work = ub.copy()

    lazy = select_lazy(list(groups), seed_per_job)
    cols_of = {g: np.asarray(g.columns, dtype=int) for g in lazy}
    for cols in cols_of.values():
        ub_work[cols] = lb[cols]

    inactive = list(lazy)
    root = ColgenRoot(
        result=LPResult(SolveStatus.NO_SOLUTION, None, np.inf),
        engine=engine, lb=lb, ub_work=ub_work, groups_lazy=len(lazy))
    basis = None
    while True:
        res = engine.solve(lb, ub_work, start=basis, restart="primal",
                           max_iter=max_iter)
        root.rounds += 1
        root.lp_iterations += res.iterations
        root.result = res
        if res.status is not SolveStatus.OPTIMAL or not inactive \
                or res.reduced_costs is None:
            break
        d = res.reduced_costs
        favorable = [g for g in inactive if d[cols_of[g]].min() < -tol]
        if not favorable:
            break  # restricted optimum == full-LP optimum
        if root.rounds >= max_rounds:
            # Round budget exhausted: materialize everything left so the
            # final solve still reports the true full-relaxation bound.
            favorable = list(inactive)
            root.fallback_full = True
        for g in favorable:
            cols = cols_of[g]
            ub_work[cols] = ub[cols]
            root.columns_priced_in += int(cols.size)
            root.groups_activated += 1
        chosen = set(favorable)
        inactive = [g for g in inactive if g not in chosen]
        basis = res.basis
    root.stats = {
        "colgen_rounds": root.rounds,
        "colgen_columns_priced": root.columns_priced_in,
        "colgen_groups_lazy": root.groups_lazy,
        "colgen_groups_activated": root.groups_activated,
    }
    return root


__all__ = ["ColgenRoot", "ColumnGroup", "colgen_root", "select_lazy"]
