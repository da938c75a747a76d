"""Independent-component decomposition of MILP models.

A scheduling-cycle MILP is block-separable whenever two groups of jobs share
no ``(partition, time-slice)`` supply constraint: the constraint matrix is
block-diagonal up to row/column permutation, so the monolithic optimum is
exactly the union of the per-block optima.  Branch and bound is
super-linear in problem size, so solving ``k`` blocks of size ``n/k`` is
far cheaper than one block of size ``n`` — the structure-exploitation
argument CvxCluster makes for consensus problems (100-1000x) applies
directly here.

:func:`decompose` finds the blocks with a union-find sweep over constraint
nonzeros (``O(nnz * alpha)``), builds one independent sub-:class:`Model`
per block, and handles variables that appear in *no* constraint (e.g. a
preemption decision whose victim frees no contested node) analytically
from their bounds.  :func:`solve_decomposed` solves every component
through any :class:`~repro.solver.backend.MILPBackend`, slices a full-model
warm start down to each component, and recombines solutions, objective,
bound and search statistics into a single :class:`MILPResult` whose ``x``
is indistinguishable from a monolithic solve.

Decomposition is *schedule-preserving by construction*: with exact solves
the recombined objective equals the monolithic optimum; with a relative
gap each component is within the gap, so the union is too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import SolverError
from repro.solver.expr import LinExpr
from repro.solver.model import MAXIMIZE, Model
from repro.solver.options import UNSET, SolveOptions
from repro.solver.result import MILPResult, SolveStatus
from repro.solver.stats import SolverStats


@dataclass
class SubProblem:
    """One independent block: a standalone model plus its column mapping."""

    model: Model
    #: Global (source-model) variable index of each local column, sorted.
    global_indices: np.ndarray

    @property
    def num_variables(self) -> int:
        return int(self.global_indices.shape[0])


@dataclass
class Decomposition:
    """A model split into independent blocks plus analytic leftovers."""

    source: Model
    components: list[SubProblem]
    #: Variables appearing in no constraint, fixed at their best bound.
    free_indices: np.ndarray
    free_values: np.ndarray
    #: Objective contribution of the free variables (model sense).
    free_objective: float
    #: The source objective's constant term.
    constant: float

    @property
    def num_components(self) -> int:
        return len(self.components)

    def component_sizes(self) -> list[int]:
        return [c.num_variables for c in self.components]

    def assemble(self, solutions: list[np.ndarray]) -> np.ndarray:
        """Scatter per-component solutions back into source column order."""
        x = np.zeros(self.source.num_variables)
        for comp, xs in zip(self.components, solutions):
            x[comp.global_indices] = xs
        if self.free_indices.size:
            x[self.free_indices] = self.free_values
        return x

    def slice_warm_start(self, x_full: np.ndarray | None,
                         comp: SubProblem) -> np.ndarray | None:
        """Restrict a full-model feasible point to one component's columns.

        Constraints are component-local, so the restriction of a feasible
        point is feasible for the sub-model; this is how the previous
        cycle's shifted plan seeds each block's incumbent.
        """
        if x_full is None:
            return None
        return np.asarray(x_full, dtype=float)[comp.global_indices]


class _UnionFind:
    """Array-based union-find with path halving and union by size."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


def _free_value(var, coef: float, sense: str) -> float:
    """Optimal value of an unconstrained variable, from its bounds."""
    wants_high = coef > 0 if sense == MAXIMIZE else coef < 0
    if coef == 0.0:
        if var.lb is not None:
            pick = var.lb
        elif var.ub is not None:
            pick = min(0.0, var.ub)
        else:
            pick = 0.0
    elif wants_high:
        if var.ub is None:
            raise SolverError(
                f"unconstrained variable {var.name!r} is unbounded in the "
                f"objective direction")
        pick = var.ub
    else:
        if var.lb is None:
            raise SolverError(
                f"unconstrained variable {var.name!r} is unbounded in the "
                f"objective direction")
        pick = var.lb
    if var.is_integral:
        pick = float(round(pick))
    return float(pick)


def decompose(model: Model) -> Decomposition:
    """Split ``model`` into independent connected components.

    Two variables are connected when some constraint mentions both; the
    components of that graph are exactly the blocks of the (permuted)
    block-diagonal constraint matrix.  Every constraint lands in exactly
    one component (all its variables share a root by construction).
    """
    n = model.num_variables
    uf = _UnionFind(n)
    in_constraint = np.zeros(n, dtype=bool)
    for con in model.constraints:
        idxs = list(con.expr.coeffs.keys())
        for i in idxs:
            in_constraint[i] = True
        first = idxs[0] if idxs else None
        for i in idxs[1:]:
            uf.union(first, i)

    # Group constrained variables by root, preserving column order.
    groups: dict[int, list[int]] = {}
    for i in range(n):
        if in_constraint[i]:
            groups.setdefault(uf.find(i), []).append(i)

    sense = model.objective_sense
    components: list[SubProblem] = []
    local_of: dict[int, tuple[int, int]] = {}  # global -> (comp, local)
    for k, (root, idxs) in enumerate(sorted(groups.items())):
        sub = Model(f"{model.name}#c{k}")
        for local, gi in enumerate(idxs):
            v = model.variables[gi]
            sub._add_var(v.name, v.lb, v.ub, v.domain)
            local_of[gi] = (k, local)
        obj = LinExpr({local_of[gi][1]: model.objective.coeffs[gi]
                       for gi in idxs if gi in model.objective.coeffs})
        sub.set_objective(obj, sense=sense)
        components.append(SubProblem(model=sub,
                                     global_indices=np.asarray(idxs,
                                                               dtype=np.int64)))

    for con in model.constraints:
        idxs = con.expr.coeffs
        if not idxs:
            continue  # constant constraints were validated at add time
        k, _ = local_of[next(iter(idxs))]
        sub = components[k].model
        expr = LinExpr({local_of[gi][1]: coef for gi, coef in idxs.items()})
        sub.add_constraint(expr, con.sense, con.rhs, name=con.name)

    free = np.nonzero(~in_constraint)[0]
    free_values = np.zeros(free.shape[0])
    free_objective = 0.0
    for pos, gi in enumerate(free):
        coef = model.objective.coeffs.get(int(gi), 0.0)
        free_values[pos] = _free_value(model.variables[gi], coef, sense)
        free_objective += coef * free_values[pos]

    return Decomposition(source=model, components=components,
                         free_indices=free.astype(np.int64),
                         free_values=free_values,
                         free_objective=free_objective,
                         constant=model.objective.constant)


def _gather_results(decomps: list[Decomposition], backend,
                    opts_list: list[SolveOptions],
                    dispatch_seed: int | None = None
                    ) -> tuple[list[list[MILPResult | None]],
                               list[dict[str, int]]]:
    """One :class:`MILPResult` per component, per decomposition.

    The three supply paths, applied per component in this order:

    1. **cache exact hit** — an identical numeric model was solved before;
       replay its stored result (bit-equal, zero solver cost);
    2. **worker pool** — remaining components (across *every*
       decomposition — the sharded cycle's domain models all land in one
       dispatch) ship to the persistent process pool when
       ``opts.workers >= 2`` (falling back to in-process solving on any
       pool failure);
    3. **in-process solve** — the sequential path; once a component comes
       back infeasible/unbounded, the remaining components of *that*
       decomposition are skipped (their entries stay ``None``; the
       recombination loop never reads past the failure) while other
       decompositions keep solving.

    Each solved component gets a wall-clock budget carved from the cycle
    budget (``opts.time_limit``, else the backend's configured limit) in
    proportion to its size, and a warm start chosen as the better feasible
    seed of the sliced cycle warm start (the scheduler's time-shifted
    previous plan, Sec. 3.2.2) and a cache near-miss solution.

    ``dispatch_seed`` (the scheduler's single RNG seed) deterministically
    shuffles the dispatch order so big and small components interleave
    across pool workers; results scatter back by index, so the solution is
    bit-identical for every seed — only the wall-clock balance moves.
    """
    from repro.solver.backend import backend_time_limit
    from repro.solver.parallel import (best_warm_start, carve_time_budgets,
                                       get_pool)

    shared = opts_list[0]
    cache = shared.get("component_cache")
    workers = shared.get("workers", 0) or 0

    results: list[list[MILPResult | None]] = [
        [None] * d.num_components for d in decomps]
    cache_stats: list[dict[str, int]] = [
        {"cache_hits": 0, "cache_warm_hits": 0, "cache_evictions": 0}
        for _ in decomps]
    evictions_before = cache.stats.evictions if cache is not None else 0
    #: (decomp idx, component idx, model, warm start), in natural order.
    pending: list[tuple[int, int, Model, np.ndarray | None]] = []
    fingerprints: dict[tuple[int, int], object] = {}
    for di, (decomp, opts) in enumerate(zip(decomps, opts_list)):
        warm_full = opts.get("warm_start")
        for i, comp in enumerate(decomp.components):
            ws = decomp.slice_warm_start(warm_full, comp)
            if cache is not None:
                hit = cache.lookup(comp.model)
                fingerprints[(di, i)] = hit.fingerprint
                if hit.result is not None:
                    results[di][i] = hit.result
                    cache_stats[di]["cache_hits"] += 1
                    continue
                if hit.warm_start is not None:
                    cache_stats[di]["cache_warm_hits"] += 1
                    ws = best_warm_start(comp.model, ws, hit.warm_start)
            pending.append((di, i, comp.model, ws))

    total_budget = shared.get("time_limit", UNSET)
    if total_budget is UNSET:
        total_budget = backend_time_limit(backend)
    budgets = carve_time_budgets(
        total_budget, [model.num_variables for _, _, model, _ in pending])

    def call_options(ws: np.ndarray | None,
                     budget: float | None) -> SolveOptions:
        if budget is None:
            return SolveOptions(warm_start=ws)
        return SolveOptions(warm_start=ws, time_limit=budget)

    order = list(range(len(pending)))
    if dispatch_seed is not None and len(order) > 1:
        import random
        random.Random(dispatch_seed).shuffle(order)

    solved: dict[int, MILPResult] | None = None
    if workers >= 2 and len(pending) > 1:
        with obs.span("parallel_dispatch"):
            solved = get_pool(workers).solve_many(
                backend,
                [(pos, pending[pos][2], call_options(pending[pos][3],
                                                     budgets[pos]))
                 for pos in order])
    if solved is not None:
        for pos, res in solved.items():
            di, i, _, _ = pending[pos]
            results[di][i] = res
    else:  # sequential (or pool fallback): skip a doomed decomposition
        doomed: set[int] = set()
        for pos in order:
            di, i, model, ws = pending[pos]
            if di in doomed:
                continue
            res = backend.solve(model, options=call_options(ws,
                                                            budgets[pos]))
            results[di][i] = res
            if not res.status.has_solution:
                doomed.add(di)

    if cache is not None:
        # Memoize only freshly-solved components (never re-store replays).
        for di, i, _, _ in pending:
            if results[di][i] is not None:
                cache.store(decomps[di].components[i].model, results[di][i],
                            fingerprint=fingerprints.get((di, i)))
        # LRU pressure during *this* solve (the cache outlives cycles, so
        # the cumulative counter alone cannot be attributed to a cycle).
        # Attributed to the first decomposition's stats; the cycle record
        # sums across decompositions, so the total stays right.
        cache_stats[0]["cache_evictions"] = (cache.stats.evictions
                                             - evictions_before)
    return results, cache_stats


def _recombine(decomp: Decomposition,
               results: list[MILPResult | None],
               cache_stats: dict[str, int]) -> MILPResult:
    """Fold per-component results back into one :class:`MILPResult`.

    Regardless of how a component's result was produced — fresh solve,
    pool worker, or cache replay — recombination walks components in their
    deterministic (column-order) sequence, so the assembled ``x`` and
    objective are identical to a sequential in-process solve.

    The recombined :class:`MILPResult` carries the summed objective/bound,
    the max component gap, summed node/iteration counts, and
    ``stats["components"]``; its ``x`` lives in source-model column order,
    so callers decode it exactly as they would a monolithic solution.
    """
    objective = decomp.constant + decomp.free_objective
    bound = objective
    gap = 0.0
    # This decomposition's cache traffic plus every component's solver
    # work, folded by each counter's merge rule, so the cycle record sees
    # a decomposed solve exactly like a monolithic one.
    work = SolverStats(**cache_stats)
    solve_time = 0.0
    proven = True
    solutions: list[np.ndarray] = []

    def summary() -> dict:
        return {"components": decomp.num_components, **work.result_stats()}

    for res in results:
        if res is None:  # sequential early exit hit a doomed block earlier
            continue
        work.absorb(res)
        solve_time += res.solve_time
        if res.status in (SolveStatus.INFEASIBLE, SolveStatus.UNBOUNDED):
            # An infeasible/unbounded block makes the whole model so.
            return MILPResult(res.status, None,
                              math.nan if res.status == SolveStatus.INFEASIBLE
                              else res.objective,
                              nodes=work.solver_nodes, solve_time=solve_time,
                              stats=summary())
        if not res.status.has_solution:
            return MILPResult(SolveStatus.NO_SOLUTION, None, math.nan,
                              nodes=work.solver_nodes, solve_time=solve_time,
                              stats=summary())
        solutions.append(res.x)
        objective += res.objective
        bound += res.bound if not math.isnan(res.bound) else res.objective
        if not math.isnan(res.gap):
            gap = max(gap, res.gap)
        proven = proven and res.status == SolveStatus.OPTIMAL

    x = decomp.assemble(solutions)
    obs.count("solver.decompose.components", decomp.num_components)
    obs.emit("solver.decomposed_solve",
             components=decomp.num_components,
             sizes=decomp.component_sizes(),
             objective=objective, nodes=work.solver_nodes,
             time_ms=1000.0 * solve_time)
    stats = summary()
    stats["component_sizes"] = decomp.component_sizes()
    return MILPResult(
        status=SolveStatus.OPTIMAL if proven else SolveStatus.FEASIBLE,
        x=x, objective=objective, bound=bound, gap=gap,
        nodes=work.solver_nodes, solve_time=solve_time, stats=stats)


def solve_many_decomposed(decomps: list[Decomposition], backend,
                          options: SolveOptions | list[SolveOptions] | None
                          = None,
                          dispatch_seed: int | None = None
                          ) -> list[MILPResult]:
    """Solve several decompositions as one pooled batch, recombining each.

    This is the sharded cycle's solve primitive: every domain MILP is
    decomposed independently, but all their pending components flatten
    into a *single* worker-pool dispatch, so a cluster of small domains
    saturates the pool instead of paying one dispatch round-trip per
    domain.  ``options`` is either one :class:`SolveOptions` shared by all
    decompositions or a per-decomposition list (warm starts differ per
    domain; ``workers`` / ``component_cache`` / ``time_limit`` are read
    from the first entry and govern the whole batch).

    Returns one recombined :class:`MILPResult` per decomposition, in input
    order.  With a single decomposition this is exactly
    :func:`solve_decomposed` — same cache traffic, same budgets, same
    assembled ``x``.
    """
    if not decomps:
        return []
    if options is None:
        opts_list = [SolveOptions() for _ in decomps]
    elif isinstance(options, SolveOptions):
        opts_list = [options] * len(decomps)
    else:
        if len(options) != len(decomps):
            raise SolverError(
                f"solve_many_decomposed: {len(decomps)} decompositions but "
                f"{len(options)} option sets")
        opts_list = list(options)
    all_results, all_cache_stats = _gather_results(
        decomps, backend, opts_list, dispatch_seed=dispatch_seed)
    return [_recombine(decomp, results, cache_stats)
            for decomp, results, cache_stats
            in zip(decomps, all_results, all_cache_stats)]


def solve_decomposed(decomp: Decomposition, backend,
                     options: SolveOptions | None = None) -> MILPResult:
    """Solve every component through ``backend`` and recombine.

    ``options`` governs the whole decomposed solve: ``warm_start`` is the
    full-model seed (sliced per component), ``workers`` enables the
    persistent process pool, ``component_cache`` the cross-cycle
    memoization, and ``time_limit`` the cycle budget carved across
    components (see :mod:`repro.solver.parallel`).  A thin wrapper over
    :func:`solve_many_decomposed` with a one-element batch — the two are
    bit-equal by construction.
    """
    return solve_many_decomposed([decomp], backend, options)[0]
