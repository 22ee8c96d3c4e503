"""Shared builders for the test suite."""

import numpy as np
from scipy.optimize import linprog

from dmpc.gdp import (
    AffineExpr,
    Disjunct,
    Disjunction,
    GdpModel,
    LinConstraint,
    Variable,
)
from dmpc.milp import MilpProblem, Relation


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


def scipy_reference(problem):
    """Solve the same LP with scipy.optimize.linprog (HiGHS)."""
    le = problem.relations == Relation.LE
    eq = problem.relations == Relation.EQ
    res = linprog(
        problem.c,
        A_ub=problem.A[le] if le.any() else None,
        b_ub=problem.b[le] if le.any() else None,
        A_eq=problem.A[eq] if eq.any() else None,
        b_eq=problem.b[eq] if eq.any() else None,
        bounds=list(zip(problem.lb, problem.ub)),
        method="highs",
    )
    return res


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
