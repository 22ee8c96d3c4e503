"""Lowering of GDP models to mixed-integer linear programs.

Two reformulations are provided. Both introduce one binary indicator per
disjunct and an exactly-one row per disjunction; unit clauses become
indicator bounds, and every other CNF clause one row. They differ in how
local constraints are gated:

* big-M: each local row ``r(y) <= 0`` becomes ``r(y) <= M (1 - s)``, with
  ``M`` either a fixed value or computed exactly as the supremum of the
  row's affine expression over the variable box;
* convex hull: each disjunction gets disaggregated copies of the variables
  its local constraints touch, an aggregation row ``y = sum_i y_i``,
  exactly linearized perspective rows ``a . y_i + k s_i (<=|==) 0`` and
  indicator-scaled bound rows ``l s_i <= y_i <= u s_i``. For affine rows
  the perspective is plain coefficient substitution. A variable that every
  disjunct pins with its one row ``a y + k = 0`` gets no copies: its
  aggregation row is ``y = sum_i c_i s_i`` with ``c_i = -k/a``, the hull of
  that disjunction projected on ``y`` (Balas 1985), so the relaxation is
  the same polytope in fewer columns. That quotient is the only division
  in either lowering, and it is exact when ``a = 1``.

The hull model's LP relaxation is never looser than the big-M model's,
which is the property the branch-and-bound study quantifies.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .gdp import GdpModel, IndicatorRef, LinConstraint, validate
from .milp import MilpProblem, Relation

__all__ = [
    "BigMStrategy",
    "cnf_to_linear",
    "to_bigm",
    "to_hull",
    "indicator_columns",
]


@dataclass(frozen=True)
class BigMStrategy:
    """How to pick the relaxation constant M for big-M rows.

    ``fixed(M)`` uses one value everywhere; ``from_bounds()`` computes a
    per-row M as the exact supremum of the row expression over the
    variable box, which requires every participating bound to be finite.
    """

    mode: str = "from_bounds"
    M: float | None = None

    def __post_init__(self):
        if self.mode not in ("fixed", "from_bounds"):
            raise ValueError(f"unknown big-M mode {self.mode!r}")
        if self.mode == "fixed" and not (self.M is not None and self.M > 0):
            raise ValueError("fixed big-M requires M > 0")

    @staticmethod
    def fixed(M: float) -> "BigMStrategy":
        return BigMStrategy("fixed", float(M))

    @staticmethod
    def from_bounds() -> "BigMStrategy":
        return BigMStrategy("from_bounds", None)


def _le_rows(con):
    """Normalize a constraint to a list of expressions meaning expr <= 0."""
    if con.relation == Relation.EQ:
        return [con.expr, LinConstraint(con.expr, Relation.GE).normalized().expr]
    return [con.normalized().expr]


def cnf_to_linear(clauses, indicator_map) -> list:
    """Linearize CNF clauses over mapped binary columns.

    Each clause ``(or of literals)`` becomes
    ``sum_pos s + sum_neg (1 - s) >= 1`` and is returned in <=-normalized
    form as ``(coeffs, rhs)`` with ``coeffs`` a {column: value} dict and
    the row meaning ``sum coeffs . s <= rhs``.
    """
    rows = []
    for clause in clauses:
        coeffs: dict = {}
        n_neg = 0
        for ref, positive in clause.literals:
            if ref not in indicator_map:
                raise ValueError(f"unmapped indicator {ref}")
            col = indicator_map[ref]
            if positive:
                coeffs[col] = coeffs.get(col, 0.0) - 1.0
            else:
                coeffs[col] = coeffs.get(col, 0.0) + 1.0
                n_neg += 1
        rows.append((coeffs, float(n_neg - 1)))
    return rows


def _require_valid(model: GdpModel):
    problems = validate(model)
    if problems:
        raise ValueError("invalid model: " + "; ".join(problems))


def _lower(model: GdpModel, disjunction_rows) -> MilpProblem:
    """Scaffolding shared by both reformulations; the one owner of columns.

    Columns are the model's variables, then per disjunction its indicators
    ``s[d,i]`` in [0, 1] followed by any columns the lowering adds while
    ``disjunction_rows(d, dis, s, column, ub)`` runs: ``s`` lists the
    indicator columns, ``column(label, lo, hi)`` appends a column and
    returns its index, and ``ub`` is the upper-bound list, open for fixing.
    Rows are the global rows, then per disjunction the rows that generator
    yields followed by its exactly-one row, then the CNF rows. They are
    collected as (row, column, value) triplets, which become the problem's
    sparse ``A`` as they are. A unit clause fixes its indicator through its
    bound (``ub = 0`` for a negative literal, ``lb = 1`` for a positive
    one) instead of a row, unless the bound it would set is already out of
    the indicator's range; then it stays a row and the MILP stays
    infeasible rather than turning invalid.
    """
    labels = [v.name for v in model.variables]
    lb, ub = map(list, model.bounds())

    def column(label, lo, hi) -> int:
        labels.append(label)
        lb.append(lo)
        ub.append(hi)
        return len(labels) - 1

    tri_i, tri_j, tri_v = [], [], []
    rels, rhs, row_labels = [], [], []

    def emit(coeffs: dict, relation, rhs_val, label):
        i = len(rels)
        for j, c in coeffs.items():
            tri_i.append(i)
            tri_j.append(j)
            tri_v.append(c)
        rels.append(relation)
        rhs.append(float(rhs_val))
        row_labels.append(label)

    for k, con in enumerate(model.global_constraints):
        con = con.normalized()
        emit(dict(con.expr.terms), con.relation, -con.expr.constant, f"g[{k}]")

    ind_map = {}
    for d, dis in enumerate(model.disjunctions):
        s = [column(f"s[{d},{i}]", 0.0, 1.0) for i in range(len(dis.disjuncts))]
        ind_map.update((IndicatorRef(d, i), col) for i, col in enumerate(s))
        for row in disjunction_rows(d, dis, s, column, ub):
            emit(*row)
        emit(dict.fromkeys(s, 1.0), Relation.EQ, 1.0, f"xor[{d}]")

    clauses = []
    for clause in model.propositions:
        (ref, positive), *more = clause.literals
        col = ind_map[ref]
        if not more and lb[col] <= positive <= ub[col]:
            (lb if positive else ub)[col] = float(positive)
        else:
            clauses.append(clause)
    for k, (coeffs, b) in enumerate(cnf_to_linear(clauses, ind_map)):
        emit(coeffs, Relation.LE, b, f"cnf[{k}]")

    n, n_tot = model.n_vars, len(labels)
    c_vec = np.zeros(n_tot)
    c_vec[:n] = model.objective.to_dense(n)
    for d, dis in enumerate(model.disjunctions):
        for i, dj in enumerate(dis.disjuncts):
            c_vec[ind_map[IndicatorRef(d, i)]] += dj.fixed_cost

    is_int = np.zeros(n_tot, dtype=bool)
    is_int[list(ind_map.values())] = True

    return MilpProblem(
        c=c_vec,
        obj_const=model.objective.constant,
        A=sp.coo_array((tri_v, (tri_i, tri_j)), shape=(len(rels), n_tot)),
        relations=np.array(rels, dtype=np.int8),
        b=np.array(rhs, dtype=float),
        lb=np.array(lb, dtype=float),
        ub=np.array(ub, dtype=float),
        is_int=is_int,
        labels=labels,
        row_labels=row_labels,
    )


def to_bigm(model: GdpModel, strategy: BigMStrategy | None = None) -> MilpProblem:
    """Big-M reformulation of a valid GDP model.

    Column order: the continuous variables in model order, then one binary
    per disjunct (disjunction-major). Local GE rows are negated, local EQ
    rows become a relaxed pair, and each resulting <=-row gains an
    ``+ M s`` term so it is inert while its indicator is 0.
    """
    _require_valid(model)
    strategy = strategy or BigMStrategy.from_bounds()
    lb0, ub0 = model.bounds()

    def local_rows(d, dis, s, column, ub):
        for i, dj in enumerate(dis.disjuncts):
            for k, con in enumerate(dj.local_constraints):
                for h, expr in enumerate(_le_rows(con)):
                    # _require_valid has rejected every non-finite bound
                    M = (strategy.M if strategy.mode == "fixed"
                         else expr.box_range(lb0, ub0)[1])
                    # a.y + k <= M (1 - s)  ->  a.y + M s <= M - k
                    coeffs = dict(expr.terms)
                    coeffs[s[i]] = coeffs.get(s[i], 0.0) + M
                    yield (coeffs, Relation.LE, M - expr.constant,
                           f"bigm[{d},{i},{k}.{h}]")

    return _lower(model, local_rows)


def _pinned(dis) -> dict:
    """Variables that every disjunct of ``dis`` pins, with their values.

    Maps ``j`` to the per-disjunct values ``c_i = -k/a`` when each
    disjunct names ``j`` in exactly one local row and that row is the
    single-term equation ``a y_j + k = 0``.
    """
    per = []
    for dj in dis.disjuncts:
        named = Counter(j for con in dj.local_constraints for j, _ in con.expr.terms)
        here = {}
        for con in dj.local_constraints:
            if con.relation == Relation.EQ and len(con.expr.terms) == 1:
                (j, a), = con.expr.terms
                if a != 0.0 and named[j] == 1:
                    here[j] = -con.expr.constant / a
        per.append(here)
    return {j: [h[j] for h in per] for j in per[0] if all(j in h for h in per)}


def to_hull(model: GdpModel) -> MilpProblem:
    """Convex-hull reformulation of a valid GDP model.

    Column order: the continuous variables, then per disjunction its
    binaries followed by the disaggregated copies of the variables that
    appear in that disjunction's local constraints and are not pinned by
    every disjunct (disjunct-major, then variable). A pinned variable's
    aggregation row carries the pinned values on the binaries, and a
    binary whose value lies outside the variable's box is fixed at 0. A
    zero-valued side of a bound row collapses into the disaggregated
    column's own bound instead of emitting a row.
    """
    _require_valid(model)
    lb0, ub0 = model.bounds()

    def local_rows(d, dis, s, column, ub):
        pinned = _pinned(dis)
        scope = sorted(
            {
                j
                for dj in dis.disjuncts
                for con in dj.local_constraints
                for j, c in con.expr.terms
                if c != 0.0
            }
        )
        copied = [j for j in scope if j not in pinned]
        L = len(dis.disjuncts)
        for i in range(L):
            if any(not lb0[j] <= cs[i] <= ub0[j] for j, cs in pinned.items()):
                ub[s[i]] = 0.0
        copy = {
            (i, j): column(f"{model.variables[j].name}@d{d}:{i}",
                           min(lb0[j], 0.0), max(ub0[j], 0.0))
            for i in range(L) for j in copied
        }
        # aggregation y = sum of copies, or y = sum_i c_i s_i when pinned
        for j in scope:
            coeffs = {j: 1.0}
            for i in range(L):
                if j not in pinned:
                    coeffs[copy[(i, j)]] = -1.0
                elif pinned[j][i] != 0.0:
                    coeffs[s[i]] = -pinned[j][i]
            yield coeffs, Relation.EQ, 0.0, f"agg[{d},{j}]"
        # perspective rows: affine gating by exact coefficient substitution
        for i, dj in enumerate(dis.disjuncts):
            for k, con in enumerate(dj.local_constraints):
                if any(j in pinned for j, _ in con.expr.terms):
                    continue  # the pinning row, folded into the aggregation
                con = con.normalized()
                coeffs = {copy[(i, j)]: c for j, c in con.expr.terms}
                coeffs[s[i]] = coeffs.get(s[i], 0.0) + con.expr.constant
                yield coeffs, con.relation, 0.0, f"persp[{d},{i},{k}]"
            # bound rows l s <= y_i <= u s; zero sides fold into the column
            for j in copied:
                lo, hi = lb0[j], ub0[j]
                if lo != 0.0:
                    yield ({s[i]: lo, copy[(i, j)]: -1.0}, Relation.LE, 0.0,
                           f"lbnd[{d},{i},{j}]")
                if hi != 0.0:
                    yield ({copy[(i, j)]: 1.0, s[i]: -hi}, Relation.LE, 0.0,
                           f"ubnd[{d},{i},{j}]")

    return _lower(model, local_rows)


def indicator_columns(problem: MilpProblem) -> dict:
    """Recover the IndicatorRef -> column map from a reformulated problem.

    Both reformulations label indicator columns ``s[d,i]``; anything
    without that label pattern is skipped.
    """
    out = {}
    for col, label in enumerate(problem.labels):
        if label.startswith("s[") and label.endswith("]"):
            try:
                d, i = label[2:-1].split(",")
                out[IndicatorRef(int(d), int(i))] = col
            except ValueError:
                continue
    return out


def selection_from_point(problem: MilpProblem, point) -> tuple:
    """Active disjunct per disjunction, read off a solved MILP point.

    Picks the largest indicator value in each group, so it also works on
    points whose binaries carry rounding noise.
    """
    groups: dict = {}
    for ref, col in indicator_columns(problem).items():
        groups.setdefault(ref.disjunction, []).append((ref.disjunct, col))
    selection = []
    for d in sorted(groups):
        members = sorted(groups[d])
        best = max(members, key=lambda item: point[item[1]])
        selection.append(best[0])
    return tuple(selection)
