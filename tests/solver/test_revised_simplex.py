"""Tests for the bounded-variable revised simplex and its warm restarts.

Three families:

* unit tests on the engine itself — statuses, fixed variables, free
  variables, equality rows, counters;
* differential property tests pitting the revised simplex against the
  legacy dense tableau and scipy/HiGHS on random LPs mixing finite and
  infinite bounds (statuses first, objectives on OPTIMAL agreement);
* dual-simplex warm-restart tests: a branch-and-bound child node solving
  from its parent's basis must agree with a cold solve and (on the
  aggregate) take fewer simplex iterations.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.solver import (BranchBoundOptions, BranchBoundSolver, SolveStatus,
                          make_backend, scipy_available)
from repro.solver.revised_simplex import (BasisState, RevisedSimplexEngine,
                                          solve_lp_revised)
from repro.solver.simplex import solve_lp
from tests.strategies import milp_models, mixed_bound_lps

needs_scipy = pytest.mark.skipif(not scipy_available(),
                                 reason="scipy required")

INF = float("inf")


def _agree(a, b, tol=1e-6):
    assert a.status == b.status, (a.status, b.status)
    if a.status == SolveStatus.OPTIMAL:
        assert a.objective == pytest.approx(b.objective, abs=tol,
                                            rel=tol)


class TestEngineBasics:
    def test_simple_optimum(self):
        # max 3x + 2y s.t. x + y <= 4, x,y in [0, 3]  (as min of -obj)
        res = solve_lp_revised(
            c=np.array([-3.0, -2.0]), a_ub=np.array([[1.0, 1.0]]),
            b_ub=np.array([4.0]), lb=np.zeros(2), ub=np.full(2, 3.0))
        assert res.status == SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(-11.0)
        assert res.x == pytest.approx([3.0, 1.0])
        assert isinstance(res.basis, BasisState)

    def test_optimum_at_upper_bounds_no_pivots(self):
        # Unconstrained by rows: optimum sits at the bound box corner; the
        # bounded-variable form needs no ub rows and no pivots at all.
        res = solve_lp_revised(
            c=np.array([-1.0, 1.0]), a_ub=np.array([[1.0, 1.0]]),
            b_ub=np.array([100.0]), lb=np.zeros(2), ub=np.array([7.0, 9.0]))
        assert res.status == SolveStatus.OPTIMAL
        assert res.x == pytest.approx([7.0, 0.0])

    def test_infeasible(self):
        res = solve_lp_revised(
            c=np.array([1.0]), a_ub=np.array([[-1.0]]), b_ub=np.array([-5.0]),
            lb=np.zeros(1), ub=np.array([2.0]))
        assert res.status == SolveStatus.INFEASIBLE

    def test_crossed_bounds_infeasible(self):
        res = solve_lp_revised(c=np.array([1.0]), lb=np.array([3.0]),
                               ub=np.array([1.0]))
        assert res.status == SolveStatus.INFEASIBLE

    def test_unbounded_free_variable(self):
        res = solve_lp_revised(
            c=np.array([-3.0]), a_ub=np.array([[-3.0], [-2.0]]),
            b_ub=np.array([9.0, 6.0]), lb=np.array([-1.0]),
            ub=np.array([INF]))
        assert res.status == SolveStatus.UNBOUNDED

    def test_fixed_variables_and_equality_rows(self):
        # x fixed at 2 by its bounds, x + y == 5 forces y = 3.
        res = solve_lp_revised(
            c=np.array([0.0, 1.0]), a_eq=np.array([[1.0, 1.0]]),
            b_eq=np.array([5.0]), lb=np.array([2.0, 0.0]),
            ub=np.array([2.0, 10.0]))
        assert res.status == SolveStatus.OPTIMAL
        assert res.x == pytest.approx([2.0, 3.0])

    def test_counters_accumulate(self):
        eng = RevisedSimplexEngine(
            np.array([-3.0, -2.0]), np.array([[1.0, 1.0]]), np.array([4.0]),
            None, None)
        eng.solve(np.zeros(2), np.full(2, 3.0))
        assert eng.counters["pivots"] > 0
        assert eng.counters["warm_restarts"] == 0


class TestRevisedVsTableauVsScipy:
    @settings(max_examples=60, deadline=None)
    @given(lp=mixed_bound_lps())
    def test_matches_legacy_tableau(self, lp):
        _agree(solve_lp_revised(**lp), solve_lp(**lp))

    @needs_scipy
    @settings(max_examples=60, deadline=None)
    @given(lp=mixed_bound_lps())
    # Unbounded, but HiGHS presolve alone reports it infeasible.
    @example(lp={"c": np.array([1.0, 0.0, 0.0]),
                 "a_ub": np.array([[1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]),
                 "b_ub": np.array([0.0, 1.0]), "a_eq": None, "b_eq": None,
                 "lb": np.array([-INF, 0.0, -INF]),
                 "ub": np.array([1.0, 1.0, 1.0])})
    def test_matches_scipy(self, lp):
        from repro.solver.scipy_backend import solve_lp_scipy
        _agree(solve_lp_revised(**lp), solve_lp_scipy(**lp))


class TestDualWarmRestart:
    def _engine(self):
        # max x + 2y + 3z over a small polytope with integral-unfriendly
        # vertex, so bound tightening actually moves the optimum.
        c = np.array([-1.0, -2.0, -3.0])
        a_ub = np.array([[2.0, 1.0, 1.0],
                         [1.0, 3.0, 2.0],
                         [2.0, 1.0, 3.0]])
        b_ub = np.array([7.0, 9.0, 11.0])
        return RevisedSimplexEngine(c, a_ub, b_ub, None, None), c, a_ub, b_ub

    def test_child_agrees_with_cold_solve(self):
        eng, c, a_ub, b_ub = self._engine()
        lb, ub = np.zeros(3), np.full(3, 5.0)
        parent = eng.solve(lb, ub)
        assert parent.status == SolveStatus.OPTIMAL
        ub_child = ub.copy()
        ub_child[1] = np.floor(parent.x[1])  # branch down on y
        warm = eng.solve(lb, ub_child, start=parent.basis)
        cold = RevisedSimplexEngine(c, a_ub, b_ub, None, None).solve(
            lb, ub_child)
        _agree(warm, cold, tol=1e-9)
        assert eng.counters["warm_restarts"] == 1
        assert eng.counters["warm_hits"] == 1
        # The warm path refactorizes the inherited basis before pivoting.
        assert eng.counters["refactorizations"] >= 1

    def test_child_solves_in_fewer_iterations_than_cold(self):
        # Aggregate over seeded random child-node solves: the dual restart
        # re-optimizes in a handful of pivots while a cold solve pays
        # phase 1 + phase 2 from the slack basis every time.
        rng = np.random.default_rng(11)
        warm_total = cold_total = dual_pivots = compared = 0
        while compared < 25:
            n = int(rng.integers(3, 7))
            m_rows = int(rng.integers(2, 5))
            c = rng.integers(-5, 0, n).astype(float)
            a_ub = rng.integers(0, 4, (m_rows, n)).astype(float)
            b_ub = rng.integers(4, 15, m_rows).astype(float)
            lb, ub = np.zeros(n), np.full(n, 5.0)
            eng = RevisedSimplexEngine(c, a_ub, b_ub, None, None)
            parent = eng.solve(lb, ub)
            if parent.status != SolveStatus.OPTIMAL:
                continue
            frac = np.nonzero(np.abs(parent.x - np.round(parent.x))
                              > 1e-6)[0]
            if frac.size == 0:
                continue
            j = int(frac[0])
            ub_child = ub.copy()
            ub_child[j] = np.floor(parent.x[j])
            warm = eng.solve(lb, ub_child, start=parent.basis)
            cold = RevisedSimplexEngine(c, a_ub, b_ub, None, None).solve(
                lb, ub_child)
            _agree(warm, cold, tol=1e-9)
            warm_total += warm.iterations
            cold_total += cold.iterations
            dual_pivots += eng.counters["dual_pivots"]
            compared += 1
        assert warm_total < cold_total
        assert dual_pivots >= 1

    def test_stale_basis_falls_back_to_cold(self):
        eng, *_ = self._engine()
        lb, ub = np.zeros(3), np.full(3, 5.0)
        # A basis whose shape doesn't match the engine: must not crash,
        # must produce the same answer via the cold path.
        junk = BasisState(basic=np.array([0]),
                          vstat=np.array([2], dtype=np.int8))
        res = eng.solve(lb, ub, start=junk)
        assert res.status == SolveStatus.OPTIMAL
        assert eng.counters["cold_fallbacks"] == 1
        assert res.objective == pytest.approx(
            eng.solve(lb, ub).objective, abs=1e-9)


class TestBranchBoundEngines:
    @settings(max_examples=25, deadline=None)
    @given(model=milp_models())
    def test_revised_and_tableau_backends_agree(self, model):
        rev = BranchBoundSolver(
            BranchBoundOptions(lp_engine="revised")).solve(model)
        tab = BranchBoundSolver(
            BranchBoundOptions(lp_engine="tableau")).solve(model)
        assert rev.status == tab.status
        if rev.status == SolveStatus.OPTIMAL:
            assert rev.objective == pytest.approx(tab.objective, abs=1e-6)

    def test_pure_tableau_backend_name(self):
        backend = make_backend("pure-tableau")
        assert backend.options.lp_engine == "tableau"
        assert make_backend("pure").options.lp_engine == "revised"

    def test_unknown_engine_rejected(self):
        from repro.errors import SolverError
        from repro.solver.model import Model
        m = Model()
        x = m.add_integer("x", ub=3)
        m.set_objective(1 * x, sense="maximize")
        with pytest.raises(SolverError, match="lp_engine"):
            BranchBoundSolver(
                BranchBoundOptions(lp_engine="bogus")).solve(m)

    def test_search_stats_carry_engine_counters(self):
        from repro.solver.model import Model
        m = Model()
        xs = [m.add_integer(f"x{i}", ub=7) for i in range(4)]
        m.add_constraint(sum(3 * x for x in xs), "<=", 17)
        m.add_constraint(2 * xs[0] + 5 * xs[1] + xs[2], "<=", 11)
        m.set_objective(2 * xs[0] + 3 * xs[1] + 5 * xs[2] + 7 * xs[3],
                        sense="maximize")
        res = BranchBoundSolver(BranchBoundOptions(presolve=False)).solve(m)
        assert res.status == SolveStatus.OPTIMAL
        for key in ("lp_dual_pivots", "lp_refactorizations",
                    "lp_warm_restarts", "lp_warm_hits",
                    "lp_cold_fallbacks"):
            assert key in res.stats
