"""make_backend: name registry behavior."""

import pytest

from repro.errors import SolverError
from repro.solver.backend import BACKEND_NAMES, make_backend
from repro.solver.scipy_backend import scipy_available


def test_unknown_backend_raises_with_valid_names():
    with pytest.raises(SolverError) as exc:
        make_backend("cplex")
    msg = str(exc.value)
    assert "cplex" in msg
    for name in BACKEND_NAMES:
        assert name in msg, f"error should list valid backend {name!r}"


@pytest.mark.parametrize("bad", ["", "Pure", "scipy-lp", "gurobi"])
def test_other_unknown_names_rejected(bad):
    with pytest.raises(SolverError):
        make_backend(bad)


def test_known_names_construct_solvers():
    for name in BACKEND_NAMES:
        if name in ("scipy", "pure-scipy-lp") and not scipy_available():
            continue
        backend = make_backend(name)
        assert hasattr(backend, "solve")


def test_auto_resolves_to_a_backend():
    backend = make_backend("auto")
    assert hasattr(backend, "solve")


#: An unbounded LP that HiGHS presolve reports as infeasible (status 2):
#: x0 is free below, and x0 - x2 stays in [-1 - x1, -x1] as x0, x2 -> -inf.
PRESOLVE_UNBOUNDED_LP = {
    "c": [1.0, 0.0, 0.0],
    "a_ub": [[1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]],
    "b_ub": [0.0, 1.0],
    "lb": [-float("inf"), 0.0, -float("inf")],
    "ub": [1.0, 1.0, 1.0],
}


@pytest.mark.skipif(not scipy_available(), reason="scipy required")
class TestScipyLPStatus:
    def test_unbounded_not_mislabelled_infeasible(self):
        from repro.solver.result import SolveStatus
        from repro.solver.scipy_backend import solve_lp_scipy

        res = solve_lp_scipy(**PRESOLVE_UNBOUNDED_LP)
        assert res.status == SolveStatus.UNBOUNDED

    def test_infeasible_still_infeasible(self):
        from repro.solver.result import SolveStatus
        from repro.solver.scipy_backend import solve_lp_scipy

        # x0 <= -1 with x0 >= 0.
        res = solve_lp_scipy([1.0], a_ub=[[1.0]], b_ub=[-1.0])
        assert res.status == SolveStatus.INFEASIBLE
