"""HiGHS (``scipy.optimize.milp``) as an independent oracle for dmpc MILPs.

It is a reference for checking and timing, never a backend of the program.

HiGHS accepts rows violated by its feasibility tolerance after scaling; on
the thermostat models, where a comfort slack costs 1e5 per degree, that
alone can lower its objective by 5e-2 (4e-6 relative, measured). So the
reference objective is HiGHS's integer assignment with the continuous part
re-solved by HiGHS's LP under tight tolerances, and HiGHS's own objective
is kept as a lower bound: an objective under test matches when it is no
worse than the first and no better than the second, within 1e-6 relative.
"""

from __future__ import annotations

import ctypes
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

# HiGHS proves optimality to this relative gap, far inside the REL_TOL that
# the checks allow, so a mismatch points at the program under test
MIP_REL_GAP = 1e-9
REL_TOL = 1e-6

_EQ = 2  # dmpc.milp.Relation.EQ; rows are only LE or EQ
_TIGHT = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


@dataclass(frozen=True)
class Reference:
    status: str  # "optimal", "time_limit", "infeasible", "unbounded", "other"
    objective: float | None  # feasible to tight tolerances
    bound: float | None = None  # HiGHS's optimum under its own tolerances


_STATUS = {0: "optimal", 1: "time_limit", 2: "infeasible", 3: "unbounded"}


@contextmanager
def quiet_stdout():
    """Silence file descriptor 1 while HiGHS runs.

    HiGHS prints from C on some big-M instances; redirecting the descriptor
    (not just ``sys.stdout``) keeps the benchmark's output parseable.
    """
    sys.stdout.flush()
    saved = os.dup(1)
    try:
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), 1)
        yield
    finally:
        try:
            ctypes.CDLL(None).fflush(None)  # drain C stdio into the null sink
        except (OSError, AttributeError):
            pass
        os.dup2(saved, 1)
        os.close(saved)


def highs_arguments(problem) -> dict:
    """Keyword arguments of ``scipy.optimize.milp`` for a ``MilpProblem``.

    LE rows become ``(-inf, b]``, EQ rows ``[b, b]``.
    """
    b = np.asarray(problem.b, dtype=float)
    lower = np.where(np.asarray(problem.relations) == _EQ, b, -np.inf)
    constraints = []
    if problem.n_rows:
        constraints.append(LinearConstraint(sp.csr_array(problem.A), lower, b))
    return {
        "c": np.asarray(problem.c, dtype=float),
        "constraints": constraints,
        "bounds": Bounds(problem.lb, problem.ub),
        "integrality": np.asarray(problem.is_int, dtype=int),
    }


def highs_solve(problem, time_limit: float | None = None) -> Reference:
    options = {"mip_rel_gap": MIP_REL_GAP}
    if time_limit is not None:
        options["time_limit"] = time_limit
    with quiet_stdout():
        res = milp(options=options, **highs_arguments(problem))
    status = _STATUS.get(res.status, "other")
    if status != "optimal":
        return Reference(status, None)
    return Reference(status, polish(problem, res.x), float(res.fun) + float(problem.obj_const))


def polish(problem, x) -> float:
    """Objective with the integers of ``x`` pinned, re-solved tightly."""
    lb = np.asarray(problem.lb, dtype=float).copy()
    ub = np.asarray(problem.ub, dtype=float).copy()
    ints = np.flatnonzero(problem.is_int)
    lb[ints] = ub[ints] = np.round(x[ints])
    A = sp.csr_array(problem.A)
    eq = np.asarray(problem.relations) == _EQ
    b = np.asarray(problem.b, dtype=float)
    with quiet_stdout():
        res = linprog(
            problem.c, A_ub=A[~eq] if (~eq).any() else None, b_ub=b[~eq] if (~eq).any() else None,
            A_eq=A[eq] if eq.any() else None, b_eq=b[eq] if eq.any() else None,
            bounds=np.column_stack([lb, ub]), method="highs", options=_TIGHT,
        )
    if res.status != 0:
        raise RuntimeError(f"HiGHS LP on its own integer assignment: {res.message}")
    return float(res.fun) + float(problem.obj_const)


def objectives_match(ours: float, ref: Reference) -> bool:
    if ref.objective is None:
        return False
    tol = REL_TOL * max(1.0, abs(ref.objective))
    low = ref.objective if ref.bound is None else min(ref.bound, ref.objective)
    return low - tol <= ours <= ref.objective + tol
