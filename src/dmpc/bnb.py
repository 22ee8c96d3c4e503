"""Branch and bound for mixed-binary linear programs.

Plain LP-based branch and bound: best-bound node selection (FIFO on
ties), most-fractional branching (lowest column on ties), no cuts, no
presolve, no rounding heuristics. One simplex engine is shared by every
node; since branching only moves bounds, each node re-solves warm with
the dual simplex from its parent's optimal basis, one bound edit away.

Nodes are kept lazily: a node is enqueued as the chain of bound changes
along its path plus its parent's LP value and a snapshot of its parent's
optimal basis, which both children share, and is only solved when it is
dequeued. The snapshot carries the parent's factorization whenever it
was trusted, eta file included, so a node starts exactly where its
parent's LP ended.
``nodes_explored`` counts dequeued-and-solved nodes, so the root counts
as 1 and nodes pruned by bound before solving do not count.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .milp import MilpProblem
from .mps import export_mps  # noqa: F401  (part of this module's surface)
from .simplex import LpStatus, SimplexEngine, solve_lp

__all__ = [
    "SolveStatus",
    "SolveOptions",
    "SolveResult",
    "solve",
    "relaxation_bound",
    "export_mps",
]


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    FEASIBLE_LIMIT = "feasible_limit"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


REL_GAP_TOL = 1e-6  # stop once (incumbent - bound) / |incumbent| is this small
INT_TOL = 1e-6  # a binary this close to 0 or 1 counts as integral


@dataclass
class SolveOptions:
    """The one search limit, ``node_limit``: None (search to the gap) or
    an integer of at least 1.

    The tolerances are the module constants above. There is no wall-clock
    limit, so a solve is a function of its inputs alone.
    """

    node_limit: int | None = None

    def __post_init__(self):
        if self.node_limit is not None and operator.index(self.node_limit) < 1:
            raise ValueError("node_limit must be at least 1")


@dataclass
class SolveResult:
    """Outcome of a MILP (or brute-force GDP) solve.

    ``best_bound`` is a valid lower bound on the optimum: the best open
    node's LP value, capped at the incumbent's. ``gap_percent`` is derived
    from the two: ``100 (objective - best_bound) / max(|objective|, 1e-12)``,
    and +inf when there is no incumbent.
    """

    status: SolveStatus
    point: np.ndarray | None
    objective: float | None
    best_bound: float
    nodes_explored: int
    selection: tuple | None = None

    @property
    def gap_percent(self) -> float:
        if self.objective is None:
            return math.inf
        return _gap_percent(self.objective, self.best_bound)


def _gap_percent(objective: float, bound: float) -> float:
    return 100.0 * (objective - bound) / max(abs(objective), 1e-12)


def relaxation_bound(problem: MilpProblem) -> float:
    """Optimal value of the LP relaxation.

    +inf if the relaxation is infeasible, -inf if it is unbounded or the
    iteration limit was hit before optimality.
    """
    res = solve_lp(problem)
    if res.status == LpStatus.OPTIMAL:
        return res.objective
    if res.status == LpStatus.INFEASIBLE:
        return math.inf
    return -math.inf


def solve(
    problem: MilpProblem,
    options: SolveOptions | None = None,
    engine: SimplexEngine | None = None,
) -> SolveResult:
    """Solve a mixed-binary LP to the requested gap or limit.

    Passing ``engine`` reuses an existing simplex engine (and its basis)
    for the root solve, which is how the closed-loop controller and the
    gap study warm-start consecutive instances. Every other node starts
    from its parent's optimal basis and factorization.
    """
    opts = options or SolveOptions()
    diagnostics = problem.validate()
    if diagnostics:
        raise ValueError("invalid problem: " + "; ".join(diagnostics))

    eng = engine or SimplexEngine(problem)
    root_lb = np.asarray(problem.lb, dtype=float).copy()
    root_ub = np.asarray(problem.ub, dtype=float).copy()
    int_cols = np.flatnonzero(problem.is_int)

    incumbent = None
    z = math.inf
    nodes = 0
    unbounded = False

    # every way out of the loop but exhaustion leaves the open nodes on
    # the heap, and its top is then the global bound
    # entries are (bound, seq, changes, parent snapshot); the root has none
    heap: list = [(-math.inf, 0, (), None)]
    seq = 1

    while heap:
        if opts.node_limit is not None and nodes >= opts.node_limit:
            break

        node = heapq.heappop(heap)
        est, _, changes, start = node
        if incumbent is not None:
            if est >= z - 1e-9:
                continue
            if _gap_percent(z, est) <= 100.0 * REL_GAP_TOL:
                heapq.heappush(heap, node)
                break

        lb, ub = root_lb.copy(), root_ub.copy()
        for col, lo, hi in changes:
            lb[col], ub[col] = lo, hi

        if start is not None:
            eng.load_basis(start)
        res = eng.solve(lb=lb, ub=ub, warm=True)
        nodes += 1

        if res.status == LpStatus.ITERATION_LIMIT:
            heapq.heappush(heap, node)
            break
        if res.status == LpStatus.UNBOUNDED:
            unbounded = True
            break
        if res.status == LpStatus.INFEASIBLE:
            continue

        val = res.objective
        if incumbent is not None and val >= z - 1e-9:
            continue

        snap = eng.snapshot_basis()  # before any pinned re-solve
        x = res.point
        dist = np.abs(x[int_cols] - np.round(x[int_cols])) if int_cols.size else np.empty(0)
        dmax = float(dist.max(initial=0.0))
        if dmax <= INT_TOL:
            cand_val, cand_pt = val, x
            branch_anyway = False
            if dmax > 0.0:
                # re-solve with the binaries pinned: a point integral only
                # to tolerance can hide M * tol of constraint slack, so the
                # incumbent must come from an exactly pinned solve
                rvals = np.round(x[int_cols])
                plb, pub = lb.copy(), ub.copy()
                plb[int_cols] = rvals
                pub[int_cols] = rvals
                pres = eng.solve(lb=plb, ub=pub, warm=True)
                if pres.status == LpStatus.OPTIMAL:
                    cand_val, cand_pt = pres.objective, pres.point
                    branch_anyway = cand_val > val + 1e-9
                else:
                    cand_pt = None
                    branch_anyway = True
            if cand_pt is not None and cand_val < z:
                z = cand_val
                incumbent = cand_pt.copy()
            if not branch_anyway or (incumbent is not None and val >= z - 1e-9):
                continue

        col = int(int_cols[int(np.argmax(dist))])
        xj = float(x[col])
        down = changes + ((col, lb[col], math.floor(xj)),)
        up = changes + ((col, math.ceil(xj), ub[col]),)
        heapq.heappush(heap, (val, seq, down, snap))
        heapq.heappush(heap, (val, seq + 1, up, snap))
        seq += 2

    if unbounded:
        return SolveResult(SolveStatus.UNBOUNDED, None, None, -math.inf, nodes)
    bb = min(heap[0][0], z) if heap else z  # z is +inf without an incumbent
    if incumbent is None:
        status = SolveStatus.FEASIBLE_LIMIT if heap else SolveStatus.INFEASIBLE
        return SolveResult(status, None, None, bb, nodes)
    closed = _gap_percent(z, bb) <= 100.0 * REL_GAP_TOL
    status = SolveStatus.OPTIMAL if closed else SolveStatus.FEASIBLE_LIMIT
    return SolveResult(status, incumbent, z, bb, nodes)
