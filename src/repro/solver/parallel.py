"""Parallel + incremental solving of decomposed MILP components.

Two orthogonal accelerations for the per-cycle decomposed solve
(:mod:`repro.solver.decompose`), both schedule-preserving:

* **Process-pool execution** — :class:`WorkerPool` keeps a persistent pool
  of worker processes (fork-or-spawn, created lazily, reused across
  scheduling cycles, shut down atexit) and farms independent components
  out to them.  Results are gathered *by component index*, so the
  recombination order — and therefore the assembled solution — is
  identical to a sequential solve regardless of completion order.  Any
  pool failure (pickling, broken worker) falls back to in-process solving
  rather than failing the cycle.

* **Component memoization** — :class:`ComponentCache` maps a canonical
  numeric fingerprint of a component (constraint rows, bounds, objective,
  integrality; variable *names* deliberately excluded) to its cached
  :class:`~repro.solver.result.MILPResult`.  The paper re-plans every
  cycle (Sec. 3.2), yet between 4-second cycles most components are
  numerically unchanged — an exact fingerprint hit replays the stored
  result bit-for-bit without invoking the solver.  A *near-miss* (same
  structure, different right-hand sides or bounds — e.g. supply changed
  because a job launched or finished mid-window) instead donates the
  cached solution as a warm-start candidate, which competes with the
  scheduler's time-shifted previous plan (Sec. 3.2.2) sliced down to the
  component; the better feasible seed wins.  Any supply change alters the
  rhs bytes, so the exact entry self-invalidates — there is no staleness
  window.

Per-component solver budgets are carved out of the cycle budget by
:func:`carve_time_budgets`: a component gets wall-clock proportional to
its share of the remaining variables, so one huge block cannot starve the
small ones, and the per-component relative gap stays the cycle gap (each
block within the gap implies the recombined union is too).
"""

from __future__ import annotations

import atexit
import hashlib
import os
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.solver.model import MAXIMIZE, Model
from repro.solver.options import SolveOptions
from repro.solver.result import MILPResult

# -- component fingerprints ---------------------------------------------------


@dataclass(frozen=True)
class ComponentFingerprint:
    """Canonical identity of a component MILP.

    ``exact`` covers every number that can influence the solve: sparsity
    pattern, coefficients, right-hand sides, objective, bounds and
    integrality.  ``structural`` excludes the right-hand sides and the
    variable bounds — two models sharing it are "the same problem with
    shifted supply", which is exactly the near-miss case where the old
    solution is a promising (and safely validated) warm start.
    """

    exact: str
    structural: str


def _digest(parts: list[bytes]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
        h.update(b"|")  # keep field boundaries unambiguous
    return h.hexdigest()


def component_fingerprint(model: Model) -> ComponentFingerprint:
    """Fingerprint a model from its (cached) sparse export.

    Uses :meth:`~repro.solver.model.Model.to_sparse_arrays`, which the
    backends consume anyway, so fingerprinting a component that is about
    to be solved costs one hash pass over arrays that already exist.
    """
    return fingerprint_arrays(model.to_sparse_arrays())


def fingerprint_arrays(sa) -> ComponentFingerprint:
    """Fingerprint a :class:`~repro.solver.model.SparseArrays` export.

    The machinery behind :func:`component_fingerprint`, exposed separately
    so the cross-cycle delta compiler can fingerprint per-job fragments
    (which keep their local CSR export but no scratch model) and diff them
    against the previous cycle — the same identity notion the component
    cache uses for replay, applied one level earlier in the pipeline.
    """
    structural_parts = [
        repr((sa.a_ub.shape, sa.a_eq.shape)).encode(),
        sa.a_ub.indptr.tobytes(), sa.a_ub.indices.tobytes(),
        sa.a_ub.data.tobytes(),
        sa.a_eq.indptr.tobytes(), sa.a_eq.indices.tobytes(),
        sa.a_eq.data.tobytes(),
        sa.c.tobytes(), repr((sa.obj_constant, sa.obj_sign)).encode(),
        sa.integrality.tobytes(),
    ]
    exact_parts = structural_parts + [
        sa.b_ub.tobytes(), sa.b_eq.tobytes(),
        sa.lb.tobytes(), sa.ub.tobytes(),
    ]
    return ComponentFingerprint(exact=_digest(exact_parts),
                                structural=_digest(structural_parts))


# -- the memoization cache ----------------------------------------------------


@dataclass
class CacheStats:
    """Hit/miss accounting (also mirrored into :mod:`repro.obs` counters)."""

    hits: int = 0
    misses: int = 0
    warm_hits: int = 0
    evictions: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "warm_hits": self.warm_hits, "evictions": self.evictions}


@dataclass
class CacheHit:
    """Outcome of a cache lookup: a full result, a warm seed, or neither."""

    result: MILPResult | None = None
    warm_start: np.ndarray | None = None
    fingerprint: ComponentFingerprint | None = None


class ComponentCache:
    """Cross-cycle memoization of solved components, LRU-bounded.

    Exact-fingerprint hits return a *copy* of the stored result: the same
    incumbent, objective bits, bound and gap the solver produced when the
    identical numeric model was first solved, at zero solver cost.
    Structural hits return the stored incumbent as a warm-start candidate
    only if it is feasible for the *new* model (checked here, so callers
    never seed a solver with garbage).
    """

    def __init__(self, max_entries: int = 512) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._exact: OrderedDict[str, MILPResult] = OrderedDict()
        self._structural: dict[str, np.ndarray] = {}
        #: exact key -> structural key, for eviction bookkeeping.
        self._struct_of: dict[str, str] = {}

    def __len__(self) -> int:
        return len(self._exact)

    def lookup(self, model: Model) -> CacheHit:
        """Find a stored result (exact) or warm-start seed (near-miss)."""
        fp = component_fingerprint(model)
        cached = self._exact.get(fp.exact)
        if cached is not None:
            self._exact.move_to_end(fp.exact)
            self.stats.hits += 1
            return CacheHit(result=_copy_result(cached), fingerprint=fp)
        self.stats.misses += 1
        obs.count("solver.cache.misses")
        seed = self._structural.get(fp.structural)
        if seed is not None and model.check_feasible(seed):
            self.stats.warm_hits += 1
            return CacheHit(warm_start=seed.copy(), fingerprint=fp)
        return CacheHit(fingerprint=fp)

    def store(self, model: Model, result: MILPResult,
              fingerprint: ComponentFingerprint | None = None) -> None:
        """Memoize a solved component (no-op for solutionless results)."""
        if not result.status.has_solution or result.x is None:
            return
        fp = fingerprint or component_fingerprint(model)
        self._exact[fp.exact] = _copy_result(result)
        self._exact.move_to_end(fp.exact)
        self._struct_of[fp.exact] = fp.structural
        self._structural[fp.structural] = result.x.copy()
        while len(self._exact) > self.max_entries:
            evicted_key, _ = self._exact.popitem(last=False)
            struct_key = self._struct_of.pop(evicted_key, None)
            # Drop the structural seed only when no surviving exact entry
            # still maps to it.
            if (struct_key is not None
                    and struct_key not in self._struct_of.values()):
                self._structural.pop(struct_key, None)
            self.stats.evictions += 1

    def clear(self) -> None:
        self._exact.clear()
        self._structural.clear()
        self._struct_of.clear()


def _copy_result(res: MILPResult) -> MILPResult:
    """Deep-enough copy: callers may mutate ``x`` and ``stats`` freely."""
    return MILPResult(status=res.status,
                      x=None if res.x is None else res.x.copy(),
                      objective=res.objective, bound=res.bound, gap=res.gap,
                      nodes=res.nodes, solve_time=res.solve_time,
                      stats=dict(res.stats))


def best_warm_start(model: Model, *candidates: np.ndarray | None
                    ) -> np.ndarray | None:
    """The feasible candidate with the best objective in the model's sense.

    Used to arbitrate between the scheduler's time-shifted previous plan
    (sliced to the component) and a cache near-miss seed.
    """
    best: np.ndarray | None = None
    best_val = -np.inf
    sign = 1.0 if model.objective_sense == MAXIMIZE else -1.0
    for cand in candidates:
        if cand is None or not model.check_feasible(cand):
            continue
        val = sign * model.objective_value(cand)
        if val > best_val:
            best, best_val = cand, val
    return best


# -- per-component budgets ----------------------------------------------------

#: Never hand a component less than this share of a second: tiny budgets
#: buy nothing but still cost a solver invocation's setup.
MIN_COMPONENT_BUDGET_S = 0.05


def carve_time_budgets(total: float | None,
                       sizes: list[int]) -> list[float | None]:
    """Split a cycle wall-clock budget across components by variable count.

    ``None`` (unlimited) stays unlimited for everyone.  Shares are
    proportional to component size with a small floor, so a dominant block
    gets most of the budget without starving the rest.  The floor is paid
    for by renormalizing the above-floor shares, so the carved budgets
    never sum past ``total`` — with many tiny components a naive
    ``max(floor, share)`` oversubscribes the cycle budget and the broken-
    pool *sequential* fallback then blows the wall clock.
    """
    if total is None:
        return [None] * len(sizes)
    n = len(sizes)
    if not n:
        return []
    if total <= MIN_COMPONENT_BUDGET_S * n:
        # Floor unaffordable: fall back to an even split of what there is.
        return [total / n] * n
    weight = sum(sizes) or 1
    shares = [total * size / weight for size in sizes]
    # Water-fill: components below the floor get exactly the floor; the
    # rest share what remains, proportionally.  Renormalizing can push
    # more shares under the floor, so iterate (n rounds at most).
    floored = [s <= MIN_COMPONENT_BUDGET_S for s in shares]
    while True:
        above = [sizes[i] for i in range(n) if not floored[i]]
        remaining = total - MIN_COMPONENT_BUDGET_S * (n - len(above))
        above_weight = sum(above) or 1
        changed = False
        for i in range(n):
            if floored[i]:
                continue
            shares[i] = remaining * sizes[i] / above_weight
            if shares[i] <= MIN_COMPONENT_BUDGET_S:
                floored[i] = True
                changed = True
        if not changed:
            break
    return [MIN_COMPONENT_BUDGET_S if floored[i] else shares[i]
            for i in range(n)]


# -- the persistent worker pool -----------------------------------------------


def _solve_in_worker(payload):  # pragma: no cover - runs in a subprocess
    """Worker-side task: solve one component; report pid + wall time."""
    index, backend, model, options = payload
    t0 = time.monotonic()
    result = backend.solve(model, options=options)
    return index, result, os.getpid(), time.monotonic() - t0


@dataclass
class _TaskTiming:
    index: int
    worker_pid: int
    wall_s: float


class WorkerPool:
    """A persistent process pool solving components concurrently.

    Wraps :class:`concurrent.futures.ProcessPoolExecutor`; each task ships
    ``(backend, sub-model, per-call options)`` and returns the
    :class:`~repro.solver.result.MILPResult` plus worker identity and wall
    time (the parent re-emits those as :mod:`repro.obs` events, since each
    worker process has its own — disabled — obs registry).
    """

    def __init__(self, workers: int) -> None:
        if workers < 2:
            raise ValueError("WorkerPool needs >= 2 workers; "
                             "use in-process solving below that")
        self.workers = workers
        self._executor = None
        self._broken = False

    def _ensure_executor(self):
        if self._executor is None:
            from concurrent.futures import ProcessPoolExecutor
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor

    def solve_many(self, backend, tasks: list[tuple[int, Model, SolveOptions]]
                   ) -> dict[int, MILPResult] | None:
        """Solve ``(index, model, options)`` tasks; results keyed by index.

        Returns ``None`` when the pool is unusable (the caller then solves
        in-process) — a broken pool must degrade, never fail a cycle.
        """
        if self._broken or not tasks:
            return None if self._broken else {}
        try:
            executor = self._ensure_executor()
            futures = [executor.submit(_solve_in_worker,
                                       (idx, backend, model, options))
                       for idx, model, options in tasks]
            results: dict[int, MILPResult] = {}
            timings: list[_TaskTiming] = []
            for future in futures:
                index, result, pid, wall_s = future.result()
                results[index] = result
                timings.append(_TaskTiming(index, pid, wall_s))
        except Exception:
            # Pickling failure, broken worker, interpreter shutdown...:
            # mark the pool unusable and let the caller fall back.
            self._broken = True
            obs.count("solver.parallel.pool_failures")
            return None
        self._emit_timings(timings)
        return results

    def _emit_timings(self, timings: list[_TaskTiming]) -> None:
        obs.count("solver.parallel.tasks", len(timings))
        per_worker: dict[int, float] = {}
        for t in timings:
            per_worker[t.worker_pid] = per_worker.get(t.worker_pid, 0.0) \
                + t.wall_s
            obs.emit("solver.parallel.component", index=t.index,
                     worker=t.worker_pid, time_ms=1000.0 * t.wall_s)
        if timings:
            obs.emit("solver.parallel.workers",
                     workers={str(pid): round(s, 6)
                              for pid, s in sorted(per_worker.items())},
                     tasks=len(timings))

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        self._broken = False


#: Process-global pool registry: one persistent pool per worker count,
#: created lazily and reused across scheduling cycles and schedulers.
_POOLS: dict[int, WorkerPool] = {}


def get_pool(workers: int) -> WorkerPool:
    """The shared persistent :class:`WorkerPool` for ``workers`` processes."""
    pool = _POOLS.get(workers)
    if pool is None:
        pool = _POOLS[workers] = WorkerPool(workers)
    return pool


def shutdown_pools() -> None:
    """Tear down every persistent pool (atexit, and tests)."""
    for pool in _POOLS.values():
        pool.shutdown()
    _POOLS.clear()


atexit.register(shutdown_pools)


__all__ = [
    "CacheHit", "CacheStats", "ComponentCache", "ComponentFingerprint",
    "MIN_COMPONENT_BUDGET_S", "WorkerPool", "best_warm_start",
    "carve_time_budgets", "component_fingerprint", "fingerprint_arrays",
    "get_pool", "shutdown_pools",
]
