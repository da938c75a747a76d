"""MILP solver substrate (replaces the paper's CPLEX dependency).

Public surface:

* :class:`Model`, :class:`Variable`, :class:`LinExpr`, :func:`linear_sum` —
  model construction;
* :class:`SolveOptions` — every solve tunable in one value object;
* :class:`BranchBoundSolver` / :func:`make_backend` — solving;
* :func:`solve_decomposed` + :class:`ComponentCache` — independent-component
  solving with the persistent worker pool and cross-cycle memoization
  (:mod:`repro.solver.parallel`);
* :class:`MILPResult`, :class:`SolveStatus` — results;
* :class:`SolverStats` — every solver counter, declared once with its
  merge rule (:mod:`repro.solver.stats`);
* :func:`solve_lp` — the standalone two-phase tableau LP solver (oracle);
* :func:`solve_lp_revised` / :class:`RevisedSimplexEngine` — the
  bounded-variable revised simplex (production LP core);
* :class:`ColumnGroup` / :func:`colgen_root` / :class:`RepairSolver` — the
  lazy column-generation + relaxation-repair fast path
  (``solve_mode="repair"`` / ``"auto"``).
"""

from repro.solver.backend import (BACKEND_NAMES, MILPBackend,
                                  backend_time_limit, make_backend)
from repro.solver.branch_bound import BranchBoundOptions, BranchBoundSolver
from repro.solver.colgen import ColgenRoot, ColumnGroup, colgen_root
from repro.solver.decompose import Decomposition, decompose, solve_decomposed
from repro.solver.expr import BINARY, CONTINUOUS, INTEGER, LinExpr, Variable, linear_sum
from repro.solver.model import EQ, GE, LE, MAXIMIZE, MINIMIZE, Constraint, Model
from repro.solver.options import DEFAULT_OPTIONS, UNSET, SolveOptions
from repro.solver.parallel import (CacheStats, ComponentCache, WorkerPool,
                                   component_fingerprint, shutdown_pools)
from repro.solver.presolve import PresolveResult, presolve
from repro.solver.repair import RepairSolver
from repro.solver.result import LPResult, MILPResult, SolveStatus
from repro.solver.revised_simplex import (BasisState, RevisedSimplexEngine,
                                          solve_lp_revised)
from repro.solver.scipy_backend import ScipyMILPSolver, scipy_available
from repro.solver.simplex import solve_lp
from repro.solver.stats import SolverStats

__all__ = [
    "BACKEND_NAMES", "BINARY", "BasisState", "BranchBoundOptions",
    "BranchBoundSolver", "CONTINUOUS", "CacheStats", "ColgenRoot",
    "ColumnGroup", "ComponentCache",
    "Constraint", "DEFAULT_OPTIONS", "Decomposition", "EQ", "GE", "INTEGER",
    "LE", "LPResult", "LinExpr", "MAXIMIZE", "MILPBackend", "MILPResult",
    "MINIMIZE", "Model", "PresolveResult", "RepairSolver",
    "RevisedSimplexEngine",
    "ScipyMILPSolver", "SolveOptions", "SolveStatus", "SolverStats", "UNSET",
    "Variable",
    "WorkerPool", "backend_time_limit", "colgen_root",
    "component_fingerprint", "decompose",
    "linear_sum", "make_backend", "presolve", "scipy_available",
    "shutdown_pools", "solve_decomposed", "solve_lp", "solve_lp_revised",
]
