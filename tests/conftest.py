"""Shared builders for the test suite."""

import dataclasses

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from dmpc.gdp import (
    AffineExpr,
    Disjunct,
    Disjunction,
    GdpModel,
    LinConstraint,
    Variable,
)
from dmpc.milp import MilpProblem, Relation
from dmpc.simplex import (
    _AT_LOWER,
    _AT_UPPER,
    _FREE,
    FEAS_TOL,
    LpStatus,
    SimplexEngine,
)


def make_milp(c, A, relations, b, lb, ub, is_int):
    n = len(c)
    return MilpProblem(
        c=np.asarray(c, dtype=float),
        obj_const=0.0,
        A=np.asarray(A, dtype=float).reshape(-1, n),
        relations=np.asarray(relations, dtype=np.int8),
        b=np.asarray(b, dtype=float),
        lb=np.asarray(lb, dtype=float),
        ub=np.asarray(ub, dtype=float),
        is_int=np.asarray(is_int, dtype=bool),
    )


def highs_milp(problem):
    """``scipy.optimize.milp`` on ``problem``; ``fun`` leaves out
    ``problem.obj_const``."""
    lo = np.where(problem.relations == Relation.EQ, problem.b, -np.inf)
    cons = LinearConstraint(problem.A_csr, lo, problem.b)
    return milp(
        problem.c,
        constraints=[cons] if problem.n_rows else [],
        bounds=Bounds(problem.lb, problem.ub),
        integrality=problem.is_int.astype(int),
    )


def assert_certified(engine):
    """Check that the engine's final basis proves its point optimal.

    Uses neither the engine's LU nor its eta file: ``y`` solves the dense
    ``B^T y = c_B`` and ``d = c - K^T y``. The point must satisfy every
    bound and row, each nonbasic must sit on the bound its status names,
    and no movable nonbasic may have a reduced cost that improves.
    """
    K, x, lb, ub, stat = engine.K, engine.x, engine.lb, engine.ub, engine.vstat
    c = engine.c2
    y = np.linalg.solve(K[:, engine.basis].toarray().T, c[engine.basis])
    d = c - K.T @ y

    assert np.max(lb - x) <= FEAS_TOL
    assert np.max(x - ub) <= FEAS_TOL
    assert np.max(np.abs(engine.b - K @ x)) <= 1e-6
    at_lo, at_hi = stat == _AT_LOWER, stat == _AT_UPPER
    assert np.array_equal(x[at_lo], lb[at_lo])
    assert np.array_equal(x[at_hi], ub[at_hi])

    tol = 1e-9 * max(1.0, float(np.max(np.abs(c))))
    movable = ub > lb
    assert np.all(d[at_lo & movable] >= -tol)
    assert np.all(d[at_hi & movable] <= tol)
    assert np.all(np.abs(d[stat == _FREE]) <= tol)


@pytest.fixture
def lp_log(monkeypatch):
    """Every ``SimplexEngine.solve`` in the test, as ``(lp, result)`` pairs.

    ``lp`` is the engine's problem with the bounds that solve used; each
    OPTIMAL result is checked with :func:`assert_certified` on return.
    """
    log = []
    real_solve = SimplexEngine.solve

    def solve(self, *args, **kwargs):
        res = real_solve(self, *args, **kwargs)
        if res.status is LpStatus.OPTIMAL:
            assert_certified(self)
        n = self.n
        lp = dataclasses.replace(self.problem, lb=self.lb[:n].copy(), ub=self.ub[:n].copy())
        log.append((lp, res))
        return res

    monkeypatch.setattr(SimplexEngine, "solve", solve)
    return log


@pytest.fixture
def restored_starts(lp_log, monkeypatch):
    """For each solve in ``lp_log``, in order, whether it started from a
    factorization that ``load_basis`` restored from a snapshot."""
    starts = []
    real_load, logged_solve = SimplexEngine.load_basis, SimplexEngine.solve

    def load_basis(self, snap):
        real_load(self, snap)
        self.restored_by_load = self._fresh

    def solve(self, *args, **kwargs):
        starts.append(getattr(self, "restored_by_load", False))
        self.restored_by_load = False
        return logged_solve(self, *args, **kwargs)

    monkeypatch.setattr(SimplexEngine, "load_basis", load_basis)
    monkeypatch.setattr(SimplexEngine, "solve", solve)
    return starts


def two_box_model(costs=(1.0, 3.0), extra_global=()):
    """One variable, two disjuncts pinning it into [0,1] or [4,5]."""
    return GdpModel(
        variables=(Variable("x", 0.0, 10.0),),
        objective=AffineExpr.of({0: 1.0}),
        global_constraints=tuple(extra_global),
        disjunctions=(
            Disjunction(
                disjuncts=(
                    Disjunct(
                        indicator_name="low",
                        local_constraints=(
                            # x <= 1
                            LinConstraint(AffineExpr.of({0: 1.0}, -1.0)),
                        ),
                        fixed_cost=costs[0],
                    ),
                    Disjunct(
                        indicator_name="high",
                        local_constraints=(
                            # x >= 4
                            LinConstraint(AffineExpr.of({0: -1.0}, 4.0)),
                        ),
                        fixed_cost=costs[1],
                    ),
                ),
            ),
        ),
    )
