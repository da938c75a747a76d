"""Optional scipy (HiGHS) backends.

The paper stresses that "the internal MILP model can be translated to any
MILP backend" (Sec. 3.2.2).  When scipy is installed, these backends give a
large speedup over the pure-Python simplex/branch-and-bound pair and are the
default for the benchmark harness.  The library degrades gracefully to the
pure backend when scipy is absent.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro import obs
from repro.errors import SolverError
from repro.solver.model import Model
from repro.solver.options import SolveOptions
from repro.solver.result import LPResult, MILPResult, SolveStatus

try:  # pragma: no cover - environment-dependent
    from scipy import optimize as _sciopt

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover
    _sciopt = None
    HAVE_SCIPY = False


def scipy_available() -> bool:
    """True when scipy's HiGHS solvers can be used."""
    return HAVE_SCIPY


def solve_lp_scipy(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
                   lb=None, ub=None, **_ignored) -> LPResult:
    """LP relaxation via ``scipy.optimize.linprog`` (HiGHS).

    Drop-in replacement for :func:`repro.solver.simplex.solve_lp`, usable as
    the ``lp_solver`` of :class:`~repro.solver.branch_bound.BranchBoundSolver`.
    """
    if not HAVE_SCIPY:
        raise SolverError("scipy is not installed")
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    lb = np.zeros(n) if lb is None else np.asarray(lb, dtype=float)
    ub = np.full(n, np.inf) if ub is None else np.asarray(ub, dtype=float)
    if np.any(lb > ub):
        return LPResult(SolveStatus.INFEASIBLE, None, np.inf)
    problem = dict(
        A_ub=a_ub if a_ub is not None and np.size(a_ub) else None,
        b_ub=b_ub if b_ub is not None and np.size(b_ub) else None,
        A_eq=a_eq if a_eq is not None and np.size(a_eq) else None,
        b_eq=b_eq if b_eq is not None and np.size(b_eq) else None,
        bounds=np.column_stack([lb, ub]))
    res = _sciopt.linprog(c, **problem, method="highs")
    if res.status == 2:
        # HiGHS presolve reports some unbounded LPs as infeasible; the
        # simplex without presolve tells the two apart.
        res = _sciopt.linprog(c, **problem, method="highs",
                              options={"presolve": False})
    if res.status == 2:
        return LPResult(SolveStatus.INFEASIBLE, None, np.inf)
    if res.status == 3:
        return LPResult(SolveStatus.UNBOUNDED, None, -np.inf)
    if not res.success:
        raise SolverError(f"linprog failed: {res.message}")
    duals = reduced = None
    ineq = getattr(res, "ineqlin", None)
    eq = getattr(res, "eqlin", None)
    if ineq is not None and eq is not None:
        # HiGHS marginals are d(objective)/d(rhs) in minimization
        # orientation (<= 0 for binding <= rows), the same convention the
        # pure engines report.  Reduced costs are recomputed in caller
        # space so bound-row duals fold in identically across engines.
        y_ub = np.asarray(ineq.marginals, dtype=float)
        y_eq = np.asarray(eq.marginals, dtype=float)
        duals = np.concatenate([y_ub, y_eq])
        reduced = c.copy()
        if a_ub is not None and np.size(a_ub):
            reduced -= np.asarray(a_ub, dtype=float).T @ y_ub
        if a_eq is not None and np.size(a_eq):
            reduced -= np.asarray(a_eq, dtype=float).T @ y_eq
    return LPResult(SolveStatus.OPTIMAL, np.asarray(res.x), float(res.fun),
                    iterations=int(getattr(res, "nit", 0)),
                    duals=duals, reduced_costs=reduced)


class ScipyMILPSolver:
    """Full-MILP backend using ``scipy.optimize.milp`` (HiGHS branch & cut).

    Mirrors :class:`~repro.solver.branch_bound.BranchBoundSolver.solve`'s
    interface so the scheduler can swap backends freely.

    Parameters
    ----------
    rel_gap:
        Relative MIP gap at which HiGHS may stop (paper uses 10 % with a
        time budget; we default to exact).
    time_limit:
        Wall-clock limit in seconds, or ``None``.
    use_sparse:
        Feed HiGHS ``scipy.sparse`` constraint matrices built from the
        model's CSR export (the default); ``False`` keeps the dense
        ``to_standard_arrays`` path as a cross-check oracle.
    """

    def __init__(self, rel_gap: float = 1e-6,
                 time_limit: float | None = None,
                 use_sparse: bool = True) -> None:
        if not HAVE_SCIPY:
            raise SolverError("scipy is not installed")
        self.rel_gap = rel_gap
        self.time_limit = time_limit
        self.use_sparse = use_sparse

    def solve(self, model: Model,
              options: SolveOptions | None = None) -> MILPResult:
        # scipy.optimize.milp has no warm-start hook; a warm start in the
        # options is accepted for interface compatibility and ignored.
        rel_gap = options.get("rel_gap", self.rel_gap) \
            if options is not None else self.rel_gap
        time_limit = options.get("time_limit", self.time_limit) \
            if options is not None else self.time_limit
        if self.use_sparse:
            sa = model.to_sparse_arrays()
            a_ub, a_eq = sa.a_ub.to_scipy(), sa.a_eq.to_scipy()
        else:
            sa = model.to_standard_arrays()
            a_ub, a_eq = sa.a_ub, sa.a_eq
        t0 = time.monotonic()
        constraints = []
        if sa.b_ub.size:
            constraints.append(_sciopt.LinearConstraint(
                a_ub, -np.inf, sa.b_ub))
        if sa.b_eq.size:
            constraints.append(_sciopt.LinearConstraint(
                a_eq, sa.b_eq, sa.b_eq))
        milp_options = {"mip_rel_gap": rel_gap, "presolve": True}
        if time_limit is not None:
            milp_options["time_limit"] = time_limit
        res = _sciopt.milp(
            c=sa.c,
            constraints=constraints or None,
            integrality=sa.integrality.astype(int),
            bounds=_sciopt.Bounds(sa.lb, sa.ub),
            options=milp_options)
        solve_time = time.monotonic() - t0
        if res.status == 2:
            return MILPResult(SolveStatus.INFEASIBLE, None, math.nan,
                              solve_time=solve_time)
        if res.status == 3:
            return MILPResult(SolveStatus.UNBOUNDED, None,
                              -sa.obj_sign * math.inf, solve_time=solve_time)
        if res.x is None:
            return MILPResult(SolveStatus.NO_SOLUTION, None, math.nan,
                              solve_time=solve_time)
        x = np.asarray(res.x, dtype=float)
        x[sa.integrality] = np.round(x[sa.integrality])
        obj = sa.obj_sign * float(sa.c @ x) + sa.obj_constant
        gap = float(getattr(res, "mip_gap", 0.0) or 0.0)
        status = SolveStatus.OPTIMAL if res.status == 0 else SolveStatus.FEASIBLE
        nodes = int(getattr(res, "mip_node_count", 0) or 0)
        obs.emit("solver.solve", status=status.value, objective=obj, gap=gap,
                 nodes=nodes, time_ms=1000.0 * solve_time)
        return MILPResult(status=status, x=x, objective=obj,
                          bound=obj, gap=gap, nodes=nodes,
                          solve_time=solve_time)
