"""Modeling layer for generalized disjunctive programs.

A model couples a box-bounded continuous decision vector with three
constraint families:

* global affine constraints that always hold,
* disjunctions, each an exactly-one group of disjuncts whose local affine
  constraints apply only when that disjunct's Boolean indicator is selected
  (each disjunct may also carry a fixed cost),
* logic propositions over the indicators, in conjunctive normal form.

The objective is affine in the continuous variables plus the fixed costs of
the selected disjuncts. Everything here is an immutable in-memory
description; the reformulation module lowers it to a MILP and the solver
stack takes over from there.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .milp import MilpProblem, Relation

__all__ = [
    "AffineExpr",
    "LinConstraint",
    "Disjunct",
    "Disjunction",
    "IndicatorRef",
    "CnfClause",
    "Variable",
    "GdpModel",
    "EvaluationResult",
    "validate",
    "evaluate_assignment",
    "brute_force_solve",
    "selection_lp",
]

FEAS_TOL = 1e-7
BRUTE_FORCE_CAP = 4096  # most disjunct selections brute_force_solve enumerates


@dataclass(frozen=True)
class AffineExpr:
    """Affine expression ``sum(coef * var) + constant``.

    ``terms`` holds ``(variable index, coefficient)`` pairs, pre-merged:
    a variable appears at most once.
    """

    terms: tuple
    constant: float = 0.0

    @staticmethod
    def of(coeffs: dict, constant: float = 0.0) -> "AffineExpr":
        """Build from ``{variable index: coefficient}``, dropping zeros.

        An index must be an integer: ``int`` would truncate 2.5 onto 2 and
        merge two keys into one.
        """
        flat = {operator.index(i): float(c) for i, c in coeffs.items()}
        terms = tuple((i, c) for i, c in sorted(flat.items()) if c != 0.0)
        return AffineExpr(terms, float(constant))

    def evaluate(self, point) -> float:
        return self.constant + sum(c * point[j] for j, c in self.terms)

    def to_dense(self, n: int) -> np.ndarray:
        row = np.zeros(n)
        for j, c in self.terms:
            row[j] += c
        return row

    def box_range(self, lb, ub) -> tuple:
        """Tight (min, max) of the expression over the variable box."""
        lo = hi = self.constant
        for j, c in self.terms:
            a, b = c * lb[j], c * ub[j]
            lo += min(a, b)
            hi += max(a, b)
        return lo, hi


@dataclass(frozen=True)
class LinConstraint:
    """``expr <= 0``, ``expr >= 0`` or ``expr == 0`` per ``relation``."""

    expr: AffineExpr
    relation: Relation = Relation.LE

    def residual(self, point) -> float:
        """Signed violation at a point (<= 0 means satisfied)."""
        val = self.expr.evaluate(point)
        if self.relation == Relation.LE:
            return val
        if self.relation == Relation.GE:
            return -val
        return abs(val)

    def normalized(self) -> "LinConstraint":
        """The same constraint as LE or EQ: a GE row is negated to LE."""
        if self.relation != Relation.GE:
            return self
        e = self.expr
        return LinConstraint(AffineExpr(tuple((j, -c) for j, c in e.terms), -e.constant))


@dataclass(frozen=True)
class Disjunct:
    indicator_name: str
    local_constraints: tuple = ()
    fixed_cost: float = 0.0


@dataclass(frozen=True)
class Disjunction:
    """Exactly-one group: one disjunct is active in any feasible assignment."""

    disjuncts: tuple


@dataclass(frozen=True)
class IndicatorRef:
    """Position of an indicator: disjunction index, disjunct index within it."""

    disjunction: int
    disjunct: int


@dataclass(frozen=True)
class CnfClause:
    """Disjunction of literals; each literal is (IndicatorRef, polarity)."""

    literals: tuple

    def satisfied(self, selection) -> bool:
        for ref, positive in self.literals:
            active = selection[ref.disjunction] == ref.disjunct
            if active == positive:
                return True
        return False


@dataclass(frozen=True)
class Variable:
    name: str
    lb: float
    ub: float


@dataclass(frozen=True)
class GdpModel:
    variables: tuple
    objective: AffineExpr
    global_constraints: tuple = ()
    disjunctions: tuple = ()
    propositions: tuple = ()

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    def bounds(self):
        lb = np.array([v.lb for v in self.variables], dtype=float)
        ub = np.array([v.ub for v in self.variables], dtype=float)
        return lb, ub


class _Terms:
    """A model's expressions as flat arrays, built once per model.

    The expressions are, in order, the objective, the global rows, then
    every local row (disjunction, disjunct, row). Expression ``e`` holds the
    terms ``start[e]:start[e + 1]`` of ``cols`` and ``coefs`` in the order
    its AffineExpr lists them, zero coefficients included; ``cols`` is
    float, so an index that is no integer shows, and ``validate``'s checks
    apply before anything reads it as an index. ``const`` and ``rel`` are
    each expression's constant and relation (-1 for the objective).
    ``disjuncts`` counts each disjunction's disjuncts, and ``rows`` and
    ``costs`` hold each disjunct's number of local rows and its fixed cost.
    """

    def __init__(self, model: GdpModel):
        disjuncts = [dj for dis in model.disjunctions for dj in dis.disjuncts]
        cons = [*model.global_constraints,
                *(con for dj in disjuncts for con in dj.local_constraints)]
        exprs = [model.objective, *(con.expr for con in cons)]
        terms = [e.terms for e in exprs]
        self.start = np.zeros(len(terms) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, terms), np.int64, len(terms)), out=self.start[1:])
        flat = np.fromiter(itertools.chain.from_iterable(itertools.chain.from_iterable(terms)),
                           float, 2 * int(self.start[-1]))
        self.cols, self.coefs = flat.reshape(-1, 2).T.copy()
        self.const = np.fromiter((e.constant for e in exprs), float, len(exprs))
        self.rel = np.fromiter(itertools.chain((-1,), (con.relation for con in cons)),
                               np.int8, len(exprs))
        self.lb, self.ub = model.bounds()
        self.disjuncts = np.fromiter((len(dis.disjuncts) for dis in model.disjunctions),
                                     np.int64, len(model.disjunctions))
        self.rows = np.fromiter((len(dj.local_constraints) for dj in disjuncts),
                                np.int64, len(disjuncts))
        self.costs = np.fromiter((dj.fixed_cost for dj in disjuncts), float, len(disjuncts))


def _exprs_ok(terms: _Terms, n: int) -> bool:
    """Whether :func:`_check_expr` would find nothing in any expression."""
    cols = terms.cols
    if not (np.isfinite(terms.coefs).all() and np.isfinite(terms.const).all()
            and ((cols >= 0) & (cols < n) & (np.trunc(cols) == cols)).all()):
        return False
    # one key per (expression, index): a repeat shows as two equal keys
    key = np.repeat(np.arange(terms.const.size), np.diff(terms.start)) * n
    key += cols.astype(np.int64)
    key.sort()
    return not (key[1:] == key[:-1]).any()


def _check_expr(expr: AffineExpr, n: int, where: str, out: list):
    seen = set()
    for j, c in expr.terms:
        if j < 0 or j >= n:
            out.append(f"{where}: undeclared variable index {j} of {n}")
        if j in seen:
            out.append(f"{where}: variable index {j} appears twice")
        seen.add(j)
        if not math.isfinite(c):
            out.append(f"{where}: non-finite coefficient on index {j}")
        if not float(j).is_integer():
            out.append(f"{where}: variable index {j!r} is not an integer")
    if not math.isfinite(expr.constant):
        out.append(f"{where}: non-finite constant")


def validate(model: GdpModel) -> list:
    """Check every model invariant; return one diagnostic per violation.

    An empty list means the model is valid and both reformulations are
    applicable.
    """
    return _diagnose(model, _Terms(model))


def _diagnose(model: GdpModel, terms: _Terms) -> list:
    """:func:`validate` on the model's flattened ``terms``.

    One array pass checks the bounds, every expression and every fixed
    cost; the loops below, which write the messages in model order, run
    only over what that pass saw a defect in.
    """
    out = []
    n = model.n_vars
    lb, ub = terms.lb, terms.ub
    if not (np.isfinite(lb).all() and np.isfinite(ub).all() and (lb <= ub).all()):
        for j, v in enumerate(model.variables):
            if not (math.isfinite(v.lb) and math.isfinite(v.ub)):
                out.append(
                    f"variable {v.name!r} (index {j}): unbounded variable forbids "
                    "hull reformulation"
                )
            elif v.lb > v.ub:
                out.append(f"variable {v.name!r} (index {j}): lower bound above upper")
    exprs_bad = not _exprs_ok(terms, n)
    if exprs_bad:
        _check_expr(model.objective, n, "objective", out)
        for k, con in enumerate(model.global_constraints):
            _check_expr(con.expr, n, f"global constraint {k}", out)
    disjuncts_bad = exprs_bad or not np.isfinite(terms.costs).all()
    for d, dis in enumerate(model.disjunctions):
        if len(dis.disjuncts) < 1:
            out.append(f"disjunction {d}: empty")
        names = [dj.indicator_name for dj in dis.disjuncts]
        if len(set(names)) != len(names):
            out.append(f"disjunction {d}: duplicate indicator names")
        if not disjuncts_bad:
            continue
        for i, dj in enumerate(dis.disjuncts):
            if not math.isfinite(dj.fixed_cost):
                out.append(f"disjunction {d}, disjunct {i}: non-finite fixed cost")
            for k, con in enumerate(dj.local_constraints):
                _check_expr(
                    con.expr, n, f"disjunction {d}, disjunct {i}, row {k}", out
                )
    for k, clause in enumerate(model.propositions):
        if not clause.literals:
            out.append(f"proposition {k}: empty clause")
        seen = set()
        for ref, _ in clause.literals:
            if ref in seen:
                out.append(f"proposition {k}: duplicate literal {ref}")
            seen.add(ref)
            if ref.disjunction < 0 or ref.disjunction >= len(model.disjunctions):
                out.append(f"proposition {k}: unknown disjunction {ref.disjunction}")
            else:
                size = len(model.disjunctions[ref.disjunction].disjuncts)
                if ref.disjunct < 0 or ref.disjunct >= size:
                    out.append(
                        f"proposition {k}: unknown disjunct {ref.disjunct} "
                        f"in disjunction {ref.disjunction}"
                    )
    return out


@dataclass(frozen=True)
class EvaluationResult:
    feasible: bool
    objective: float | None


def evaluate_assignment(
    model: GdpModel, selection, point, tol: float = FEAS_TOL
) -> EvaluationResult:
    """Check a full (selection, point) assignment against the model.

    Parameters
    ----------
    selection : sequence of int
        Chosen disjunct index for every disjunction, in order.
    point : sequence of float
        Values for every continuous variable.
    tol : float
        Absolute feasibility tolerance on constraint residuals and bounds.

    Returns
    -------
    EvaluationResult
        ``feasible`` and, when feasible, the objective value including the
        selected disjuncts' fixed costs.
    """
    point = np.asarray(point, dtype=float)
    if point.shape != (model.n_vars,):
        raise ValueError(
            f"point has shape {point.shape}, expected ({model.n_vars},)"
        )
    if len(selection) != len(model.disjunctions):
        raise ValueError(
            f"selection covers {len(selection)} of "
            f"{len(model.disjunctions)} disjunctions"
        )
    lb, ub = model.bounds()
    if np.any(point < lb - tol) or np.any(point > ub + tol):
        return EvaluationResult(False, None)
    for con in model.global_constraints:
        if con.residual(point) > tol:
            return EvaluationResult(False, None)
    for dis, pick in zip(model.disjunctions, selection):
        for con in dis.disjuncts[pick].local_constraints:
            if con.residual(point) > tol:
                return EvaluationResult(False, None)
    for clause in model.propositions:
        if not clause.satisfied(selection):
            return EvaluationResult(False, None)
    obj = model.objective.evaluate(point)
    obj += sum(
        dis.disjuncts[pick].fixed_cost
        for dis, pick in zip(model.disjunctions, selection)
    )
    return EvaluationResult(True, float(obj))


def selection_lp(model: GdpModel, selection) -> MilpProblem:
    """The LP induced by fixing one disjunct per disjunction.

    Global constraints plus the selected disjuncts' local constraints over
    the continuous box; the selected fixed costs enter the objective
    constant. GE rows are negated to LE, EQ rows kept as EQ.
    """
    n = model.n_vars
    rows, rels, rhs, row_labels = [], [], [], []

    def emit(con: LinConstraint, label: str):
        con = con.normalized()
        rows.append(con.expr.to_dense(n))
        rels.append(con.relation)
        rhs.append(-con.expr.constant)
        row_labels.append(label)

    for k, con in enumerate(model.global_constraints):
        emit(con, f"g[{k}]")
    fixed = 0.0
    for d, (dis, pick) in enumerate(zip(model.disjunctions, selection)):
        dj = dis.disjuncts[pick]
        fixed += dj.fixed_cost
        for k, con in enumerate(dj.local_constraints):
            emit(con, f"d[{d},{pick},{k}]")

    lb, ub = model.bounds()
    return MilpProblem(
        c=model.objective.to_dense(n),
        obj_const=model.objective.constant + fixed,
        A=np.array(rows).reshape(len(rows), n),
        relations=np.array(rels, dtype=np.int8),
        b=np.array(rhs, dtype=float),
        lb=lb,
        ub=ub,
        is_int=np.zeros(n, dtype=bool),
        labels=[v.name for v in model.variables],
        row_labels=row_labels,
    )


def brute_force_solve(model: GdpModel, lp=None):
    """Enumerate disjunct selections and solve the induced LP for each.

    Test oracle for the solver stack: walks every CNF-consistent selection
    (at most ``BRUTE_FORCE_CAP`` combinations), solves the induced LP, and
    returns the best outcome as a SolveResult whose ``selection`` field
    records the winning disjunct choices.

    Parameters
    ----------
    lp : callable, optional
        ``lp(problem) -> LpResult``; defaults to this package's simplex.
        Injecting an external LP solver here keeps the oracle fully
        independent of the code under test.
    """
    from .bnb import SolveResult, SolveStatus
    from .simplex import LpStatus

    if lp is None:
        from .simplex import solve_lp as lp

    sizes = [len(dis.disjuncts) for dis in model.disjunctions]
    total = 1
    for s in sizes:
        total *= s
    if total > BRUTE_FORCE_CAP:
        raise ValueError(f"{total} selection combinations exceed cap {BRUTE_FORCE_CAP}")

    best = None
    solved = 0
    for selection in itertools.product(*(range(s) for s in sizes)):
        if not all(cl.satisfied(selection) for cl in model.propositions):
            continue
        res = lp(selection_lp(model, selection))
        solved += 1
        if res.status != LpStatus.OPTIMAL:
            continue
        if best is None or res.objective < best[0]:
            best = (res.objective, np.asarray(res.point, dtype=float), selection)

    if best is None:
        return SolveResult(
            status=SolveStatus.INFEASIBLE,
            point=None,
            objective=None,
            best_bound=math.inf,
            nodes_explored=solved,
        )
    obj, point, selection = best
    return SolveResult(
        status=SolveStatus.OPTIMAL,
        point=point,
        objective=float(obj),
        best_bound=float(obj),
        nodes_explored=solved,
        selection=tuple(selection),
    )
