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

Both lowerings work on arrays. The model's expressions are flattened once
into term arrays (row lengths, columns, coefficients, constants and
relations; ``gdp._Terms``), which :func:`gdp.validate`'s checks read in
one pass; exact zeros are then dropped, so a zero coefficient lowers as
absent, as ``AffineExpr.of`` would leave it. Each row family (exactly-one,
big-M, aggregation, perspective, bound and CNF rows) is built for all
disjunctions at once from those arrays by index arithmetic, and so is the
record for :func:`retarget`; only the labels are formatted one by one.

Each lowering records where the model variables' bounds went, and
:func:`retarget` rewrites those places for new bounds, giving what a fresh
lowering would, array for array, or None where the structure would change.
``thermostat.build_thermostat_mpc`` keeps one lowering per model structure
and re-targets it to each plan's initial state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain

import numpy as np
import scipy.sparse as sp

from .gdp import GdpModel, IndicatorRef, _diagnose, _Terms
from .milp import MilpProblem, Relation

__all__ = [
    "BigMStrategy",
    "cnf_to_linear",
    "to_bigm",
    "to_hull",
    "retarget",
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
        if self.mode == "fixed" and not (self.M is not None and 0 < self.M < np.inf):
            raise ValueError("fixed big-M requires a finite M > 0")

    @staticmethod
    def fixed(M: float) -> "BigMStrategy":
        return BigMStrategy("fixed", float(M))

    @staticmethod
    def from_bounds() -> "BigMStrategy":
        return BigMStrategy("from_bounds", None)


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


def _runs(lens: np.ndarray) -> tuple:
    """For runs of ``lens[k]`` items each, the run of every item and its place in it."""
    owner = np.repeat(np.arange(lens.size), lens)
    return owner, np.arange(owner.size) - (np.cumsum(lens) - lens)[owner]


class _Flat:
    """A valid model's rows as term arrays with exact zeros dropped.

    Rows are numbered as ``gdp._Terms`` numbers expressions: 0 is the
    objective, ``1..G`` the global rows, then the local rows, disjunction
    by disjunction, disjunct by disjunct. Row ``e``'s nonzero terms are
    ``start[e]:start[e + 1]`` of ``col`` and ``val``, in the order its
    expression lists them. Local row ``r`` (counted from 0) is row
    ``local[r]``; ``d[r]``, ``i[r]`` and ``k[r]`` are its disjunction, its
    disjunct there and its place in that disjunct, and ``g[r]`` numbers its
    disjunct across all disjunctions. ``L`` holds each disjunction's
    disjunct count.
    Raises ValueError, with :func:`validate`'s messages, on an invalid
    model.
    """

    def __init__(self, model: GdpModel):
        terms = _Terms(model)
        problems = _diagnose(model, terms)
        if problems:
            raise ValueError("invalid model: " + "; ".join(problems))
        self.n, self.G = model.n_vars, len(model.global_constraints)
        self.lb, self.ub, self.L, self.costs = terms.lb, terms.ub, terms.disjuncts, terms.costs
        self.const, self.rel = terms.const, terms.rel
        keep = terms.coefs != 0.0
        owner, _ = _runs(np.diff(terms.start))
        self.start = np.zeros_like(terms.start)
        np.cumsum(np.bincount(owner[keep], minlength=terms.const.size), out=self.start[1:])
        self.col = terms.cols[keep].astype(np.int64)
        self.val = terms.coefs[keep]
        self.local = np.arange(self.G + 1, terms.const.size)
        disjunct_d, disjunct_i = _runs(self.L)
        self.g, self.k = _runs(terms.rows)
        self.d, self.i = disjunct_d[self.g], disjunct_i[self.g]

    def terms(self, rows: np.ndarray) -> tuple:
        """``(k, position)`` of every nonzero term of ``rows[k]``, row by row."""
        owner, place = _runs(self.start[rows + 1] - self.start[rows])
        return owner, self.start[rows][owner] + place


class _Columns:
    """The column layout of both lowerings.

    The model's ``n`` variables come first, then per disjunction ``d`` its
    indicators ``s[d,i]`` at ``first[d] + i``, then its hull copies.
    ``copied`` lists the copied variables as keys ``d * n + j``,
    ascending; ``C[d]`` counts disjunction ``d``'s, and the copy of its
    ``p``-th variable for disjunct ``i`` is column
    ``first[d] + L[d] + i * C[d] + p``. ``ind`` is every indicator column
    and ``copy_col`` every copy column in column order, with their
    disjunctions, disjuncts and (``copy_var``) variables alongside.
    """

    def __init__(self, flat: _Flat, copied: np.ndarray):
        n, L = flat.n, flat.L
        self.n, self.L, self.copied = n, L, copied
        self.C = np.bincount(copied // n, minlength=L.size)
        self.copied_first = np.cumsum(self.C) - self.C
        size = L * (1 + self.C)
        self.first = n + np.cumsum(size) - size
        self.n_tot = n + int(size.sum())
        self.ind_d, self.ind_i = _runs(L)
        self.ind = self.first[self.ind_d] + self.ind_i
        d, place = _runs(L * self.C)  # only disjunctions with copies
        self.copy_d, self.copy_i = d, place // self.C[d]
        self.copy_var = copied[self.copied_first[d] + place % self.C[d]] - d * n
        self.copy_col = self.first[d] + L[d] + place

    def copy_of(self, d, i, j):
        """Column of the copy of variable ``j`` for disjunct ``(d, i)``."""
        p = np.searchsorted(self.copied, d * self.n + j) - self.copied_first[d]
        return self.first[d] + self.L[d] + i * self.C[d] + p


class _Rows:
    """Row families gathered as arrays, put in model order once all are in.

    Each row has a key (disjunction, part, disjunct) and the rows are
    sorted by it, stably, so rows with equal keys stay in the order they
    were added. The global rows take disjunction -1, the CNF rows one past
    the last.
    """

    def __init__(self):
        self.keys, self.rels, self.rhs, self.labels, self.terms = [], [], [], [], []
        self.m = 0

    def add(self, d, part, i, rel, rhs, labels, row, col, val) -> np.ndarray:
        """Append ``len(labels)`` rows; ``row[t]`` counts from the first of
        them. Returns their ids, which :meth:`finish` ranks."""
        m = len(labels)
        self.keys.append([np.broadcast_to(x, m) for x in (d, part, i)])
        self.rels.append(np.broadcast_to(rel, m))
        self.rhs.append(np.broadcast_to(np.asarray(rhs, dtype=float), m))
        self.labels += labels
        self.terms.append((row + self.m, col, np.broadcast_to(val, np.shape(col))))
        self.m += m
        return np.arange(self.m - m, self.m)

    def finish(self, n_tot: int) -> tuple:
        """``(A, relations, b, labels, rank)``: ``rank[id]`` is a row's place."""
        d, part, i = (np.concatenate(k) for k in zip(*self.keys))
        order = np.lexsort((i, part, d))
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        row, col, val = (np.concatenate(t) for t in zip(*self.terms))
        A = sp.coo_array((val, (rank[row], col)), shape=(self.m, n_tot))
        labels = np.array(self.labels, dtype=object)[order].tolist()
        return (A, np.concatenate(self.rels)[order], np.concatenate(self.rhs)[order],
                labels, rank)


@dataclass(frozen=True)
class _BoundSites:
    """Where a lowering put the model variables' bounds; read by :func:`retarget`.

    ``lb``/``ub`` are the model bounds it lowered. The hull copy in column
    ``copy_cols[k]`` of variable ``copy_vars[k]`` has the box
    ``[min(l, 0), max(u, 0)]``. The coefficient ``A_csr.data[term_pos[k]]``
    is ``l`` of variable ``term_vars[k]``, or ``-u`` where ``term_upper[k]``.
    The bounds of the ``frozen`` variables decide more than these places:
    which indicators the hull's pinned values fix at 0 (and with that
    whether a unit clause becomes a bound or a row), or a big-M constant
    taken from the box.
    """

    lb: np.ndarray
    ub: np.ndarray
    copy_cols: np.ndarray
    copy_vars: np.ndarray
    term_pos: np.ndarray
    term_vars: np.ndarray
    term_upper: np.ndarray
    frozen: np.ndarray


_NONE = np.zeros(0, dtype=np.int64)


def _lower(model: GdpModel, flat: _Flat, cols: _Columns, rows: _Rows, frozen,
           off=_NONE, bound_terms=(_NONE, _NONE, _NONE, _NONE.astype(bool))) -> MilpProblem:
    """What both reformulations share; the one place a problem is assembled.

    The reformulation has built its disjunctions' rows into ``rows`` over
    the layout ``cols``; this adds the global rows, the exactly-one row of
    each disjunction and the CNF rows, then puts every row in order: the
    global rows, then per disjunction the rows the reformulation added
    followed by its exactly-one row, then the CNF rows. Every family is one
    set of arrays, so no step here runs once per row or per term but the
    labels' formatting and the propositions (a few per model). Indicators
    get [0, 1], ``off`` of them get ``ub = 0``, and the hull copies
    ``[min(l, 0), max(u, 0)]``. A unit clause then fixes its indicator
    through its bound (``ub = 0`` for a negative literal, ``lb = 1`` for a
    positive one) instead of a row, unless the bound it would set is
    already out of the indicator's range; then it stays a row and the MILP
    stays infeasible rather than turning invalid.

    The problem also records where the model's bounds went, for
    :func:`retarget`: the copy columns, each coefficient that is ``l`` (or
    ``-u``) of a variable, given as ``bound_terms`` = (row ids from
    ``rows.add``, columns, variables, upper flags), and the ``frozen``
    variables, whose bounds shape more than that.
    """
    n, G, D = flat.n, flat.G, flat.L.size
    e = np.arange(1, G + 1)
    ge = flat.rel[e] == Relation.GE
    sign = np.where(ge, -1.0, 1.0)  # a GE row is negated to LE
    owner, pos = flat.terms(e)
    rows.add(-1, 0, 0, np.where(ge, np.int8(Relation.LE), flat.rel[e]),
             -(flat.const[e] * sign), [f"g[{k}]" for k in range(G)],
             owner, flat.col[pos], flat.val[pos] * sign[owner])
    rows.add(np.arange(D), 2, 0, Relation.EQ, 1.0, [f"xor[{d}]" for d in range(D)],
             cols.ind_d, cols.ind, 1.0)

    n_tot = cols.n_tot
    lb, ub = np.empty(n_tot), np.empty(n_tot)
    lb[:n], ub[:n] = flat.lb, flat.ub
    lb[cols.ind], ub[cols.ind] = 0.0, 1.0
    # min(l, 0.0) and max(u, 0.0), signed zeros included
    cv = cols.copy_var
    lb[cols.copy_col] = np.where(flat.lb[cv] > 0.0, 0.0, flat.lb[cv])
    ub[cols.copy_col] = np.where(flat.ub[cv] < 0.0, 0.0, flat.ub[cv])
    ub[off] = 0.0

    clauses = []
    for clause in model.propositions:
        (ref, positive), *more = clause.literals
        col = int(cols.first[ref.disjunction]) + ref.disjunct
        if not more and lb[col] <= positive <= ub[col]:
            (lb if positive else ub)[col] = float(positive)
        else:
            clauses.append(clause)
    ind_map = {ref: int(cols.first[ref.disjunction]) + ref.disjunct
               for clause in clauses for ref, _ in clause.literals}
    cnf = cnf_to_linear(clauses, ind_map)
    lens = np.array([len(coeffs) for coeffs, _ in cnf], dtype=np.int64)
    rows.add(D, 0, 0, Relation.LE, [b for _, b in cnf],
             [f"cnf[{k}]" for k in range(len(cnf))], _runs(lens)[0],
             np.fromiter(chain.from_iterable(c for c, _ in cnf), np.int64, int(lens.sum())),
             np.fromiter(chain.from_iterable(c.values() for c, _ in cnf), float,
                         int(lens.sum())))

    c = np.zeros(n_tot)
    _, pos = flat.terms(np.zeros(1, dtype=np.int64))
    c[flat.col[pos]] += flat.val[pos]
    c[cols.ind] += flat.costs
    is_int = np.zeros(n_tot, dtype=bool)
    is_int[cols.ind] = True
    names = [v.name for v in model.variables]
    labels = np.empty(n_tot, dtype=object)
    labels[:n] = names
    labels[cols.ind] = [f"s[{d},{i}]" for d, i in zip(cols.ind_d.tolist(), cols.ind_i.tolist())]
    labels[cols.copy_col] = [
        f"{names[j]}@d{d}:{i}"
        for j, d, i in zip(cols.copy_var.tolist(), cols.copy_d.tolist(), cols.copy_i.tolist())
    ]

    A, relations, b, row_labels, rank = rows.finish(n_tot)
    problem = MilpProblem(
        c=c,
        obj_const=model.objective.constant,
        A=A,
        relations=relations,
        b=b,
        lb=lb,
        ub=ub,
        is_int=is_int,
        labels=labels.tolist(),
        row_labels=row_labels,
    )
    # each entry of the canonical CSR as row * columns + column, ascending
    A = problem.A_csr
    keys = np.repeat(np.arange(A.shape[0], dtype=np.int64), np.diff(A.indptr))
    keys = keys * A.shape[1] + A.indices
    ids, t_col, t_var, t_upper = bound_terms
    problem._bound_sites = _BoundSites(
        lb=problem.lb[:n].copy(),
        ub=problem.ub[:n].copy(),
        copy_cols=cols.copy_col,
        copy_vars=cols.copy_var,
        term_pos=np.searchsorted(keys, rank[ids] * A.shape[1] + t_col),
        term_vars=t_var,
        term_upper=t_upper,
        frozen=np.unique(np.asarray(frozen, dtype=np.int64)),
    )
    return problem


def to_bigm(model: GdpModel, strategy: BigMStrategy | None = None) -> MilpProblem:
    """Big-M reformulation of a valid GDP model.

    Column order: the continuous variables in model order, then one binary
    per disjunct (disjunction-major). Local GE rows are negated, local EQ
    rows become a relaxed pair, and each resulting <=-row gains an
    ``+ M s`` term so it is inert while its indicator is 0.
    """
    flat = _Flat(model)
    strategy = strategy or BigMStrategy.from_bounds()
    cols = _Columns(flat, np.zeros(0, dtype=np.int64))
    # each local row as <=-rows: an LE row as it is, a GE row negated, an
    # EQ row both ways (h = 0, 1)
    rel = flat.rel[flat.local]
    r, h = _runs(np.where(rel == Relation.EQ, 2, 1))
    sign = np.where((rel[r] == Relation.GE) | (h == 1), -1.0, 1.0)
    owner, pos = flat.terms(flat.local[r])
    t_col, t_val = flat.col[pos], flat.val[pos] * sign[owner]
    const = flat.const[flat.local[r]] * sign
    if strategy.mode == "fixed":
        M = np.full(r.size, strategy.M)
    else:
        # the row's supremum over the box, summed term by term in row
        # order from the constant, as AffineExpr.box_range sums it
        # (_Flat has rejected every non-finite bound)
        lo, hi = t_val * flat.lb[t_col], t_val * flat.ub[t_col]
        top = np.where(hi > lo, hi, lo)
        M = const.copy()
        place = pos - flat.start[flat.local[r]][owner]
        for p in range(int(place.max(initial=-1)) + 1):
            at = place == p
            M[owner[at]] += top[at]
    d, i = flat.d[r], flat.i[r]
    # a.y + k <= M (1 - s)  ->  a.y + M s <= M - k
    rows = _Rows()
    rows.add(d, 1, i, Relation.LE, M - const,
             [f"bigm[{d},{i},{k}.{h}]"
              for d, i, k, h in zip(d.tolist(), i.tolist(), flat.k[r].tolist(), h.tolist())],
             np.concatenate([owner, np.arange(r.size)]),
             np.concatenate([t_col, cols.first[d] + i]), np.concatenate([t_val, M]))
    # a constant taken from the box moves with the bounds of its row's variables
    local_cols = flat.col[flat.start[flat.G + 1]:]
    return _lower(model, flat, cols, rows, () if strategy.mode == "fixed" else local_cols)


def to_hull(model: GdpModel) -> MilpProblem:
    """Convex-hull reformulation of a valid GDP model.

    Column order: the continuous variables, then per disjunction its
    binaries followed by the disaggregated copies of the variables that
    appear in that disjunction's local constraints and are not pinned by
    every disjunct (disjunct-major, then variable). A variable is pinned
    by a disjunct that names it in exactly one local row, the single-term
    equation ``a y + k = 0``. A pinned variable's aggregation row carries
    the pinned values ``-k/a`` on the binaries, and a binary whose value
    lies outside the variable's box is fixed at 0. A zero-valued side of a
    bound row collapses into the disaggregated column's own bound instead
    of emitting a row.
    """
    flat = _Flat(model)
    n, L = flat.n, flat.L
    local = flat.local
    owner, pos = flat.terms(local)  # every local term, owner its local row
    j, val, d = flat.col[pos], flat.val[pos], flat.d[owner]

    # a pin: the one term of an EQ row on a variable its disjunct names once
    _, at, named = np.unique(flat.g[owner] * n + j, return_inverse=True, return_counts=True)
    single = (flat.rel[local] == Relation.EQ) & (np.diff(flat.start)[local] == 1)
    pin = single[owner] & (named[at] == 1)
    keys, at, pins = np.unique(d[pin] * n + j[pin], return_inverse=True, return_counts=True)
    every = pins == L[keys // n]  # pinned by every disjunct of its disjunction
    pinned = keys[every]
    pin[pin] = every[at]  # only those pins count
    pin_t = np.flatnonzero(pin)
    value = -flat.const[local][owner[pin_t]] / val[pin_t]
    scope = np.unique(d * n + j)
    in_pinned = np.isin(scope, pinned)
    cols = _Columns(flat, scope[~in_pinned])
    # a pinned value out of the variable's box fixes its indicator at 0
    out = pin_t[~((flat.lb[j[pin_t]] <= value) & (value <= flat.ub[j[pin_t]]))]
    off = cols.first[d[out]] + flat.i[owner[out]]
    rows = _Rows()

    # aggregation y = sum of copies, or y = sum_i c_i s_i when pinned
    s_d, s_j = scope // n, scope % n
    e, i = _runs(L[s_d])
    agg_pin = in_pinned[e]
    agg_val = np.full(e.size, -1.0)
    # the pins in (disjunction, variable, disjunct) order, as agg_pin lists them
    agg_val[agg_pin] = -value[np.argsort(d[pin_t] * n + j[pin_t], kind="stable")]
    rows.add(s_d, 0, 0, Relation.EQ, 0.0,
             [f"agg[{d},{j}]" for d, j in zip(s_d.tolist(), s_j.tolist())],
             np.concatenate([np.arange(scope.size), e]),
             np.concatenate([s_j, np.where(agg_pin, cols.first[s_d[e]] + i,
                                           cols.copy_of(s_d[e], i, s_j[e]))]),
             np.concatenate([np.ones(scope.size), agg_val]))

    # perspective rows: affine gating by exact coefficient substitution;
    # a pinning row is folded into its aggregation row
    kept = np.bincount(owner[np.isin(d * n + j, pinned)], minlength=local.size) == 0
    r = np.flatnonzero(kept)
    rel = flat.rel[local[r]]
    sign = np.where(rel == Relation.GE, -1.0, 1.0)
    t = np.flatnonzero(kept[owner])
    row = (np.cumsum(kept) - 1)[owner[t]]
    rd, ri = flat.d[r], flat.i[r]
    rows.add(rd, 1, ri, np.where(rel == Relation.GE, np.int8(Relation.LE), rel), 0.0,
             [f"persp[{d},{i},{k}]"
              for d, i, k in zip(rd.tolist(), ri.tolist(), flat.k[r].tolist())],
             np.concatenate([row, np.arange(r.size)]),
             np.concatenate([cols.copy_of(d[t], flat.i[owner[t]], j[t]), cols.first[rd] + ri]),
             np.concatenate([val[t] * sign[row], flat.const[local[r]] * sign]))

    # bound rows l s <= y_i <= u s, after each disjunct's perspective rows;
    # zero sides fold into the copy's own bounds
    lo, hi = flat.lb[cols.copy_var], flat.ub[cols.copy_var]
    side = np.flatnonzero(np.stack([lo != 0.0, hi != 0.0], axis=1))
    q, upper = side // 2, side % 2 == 1
    bd, bi, bj = cols.copy_d[q], cols.copy_i[q], cols.copy_var[q]
    s = cols.first[bd] + bi
    both = np.arange(q.size)
    ids = rows.add(bd, 1, bi, Relation.LE, 0.0,
                   [f"{'ubnd' if u else 'lbnd'}[{d},{i},{j}]"
                    for u, d, i, j in zip(upper.tolist(), bd.tolist(), bi.tolist(), bj.tolist())],
                   np.concatenate([both, both]), np.concatenate([s, cols.copy_col[q]]),
                   np.concatenate([np.where(upper, -hi[q], lo[q]), np.where(upper, 1.0, -1.0)]))
    return _lower(model, flat, cols, rows, pinned % n, off, (ids, s, bj, upper))


def retarget(problem: MilpProblem, lb, ub) -> MilpProblem | None:
    """``problem``'s model lowered again with the variable bounds ``lb``, ``ub``.

    ``problem`` comes from :func:`to_hull`, :func:`to_bigm` or this
    function. The result is a new problem, sharing no array with
    ``problem``, equal array for array to a fresh lowering of the same
    model with those bounds: the model columns' own bounds, the hull
    copies' boxes ``[min(l, 0), max(u, 0)]`` and the bound-row
    coefficients ``l`` and ``-u`` are rewritten, and nothing else moves.
    Returns None where that lowering would differ in more than those
    places, so a caller lowers afresh: a bound row that would appear or
    vanish (a side turning zero or nonzero), a bound of a pinned variable
    or of a big-M constant's row (``BigMStrategy.from_bounds``) that moves,
    or bounds the lowering would reject.
    """
    sites = getattr(problem, "_bound_sites", None)
    lb, ub = np.array(lb, dtype=float), np.array(ub, dtype=float)
    if sites is None or lb.shape != sites.lb.shape or ub.shape != sites.ub.shape:
        return None
    if not (np.isfinite(lb).all() and np.isfinite(ub).all()) or np.any(lb > ub):
        return None
    f, cv = sites.frozen, sites.copy_vars
    if (lb[f].tobytes() != sites.lb[f].tobytes()
            or ub[f].tobytes() != sites.ub[f].tobytes()
            or np.any((lb[cv] != 0.0) != (sites.lb[cv] != 0.0))
            or np.any((ub[cv] != 0.0) != (sites.ub[cv] != 0.0))):
        return None
    col_lb, col_ub = problem.lb.copy(), problem.ub.copy()
    col_lb[: lb.size], col_ub[: ub.size] = lb, ub
    # min(l, 0.0) and max(u, 0.0) as to_hull takes them, signed zeros included
    col_lb[sites.copy_cols] = np.where(lb[cv] > 0.0, 0.0, lb[cv])
    col_ub[sites.copy_cols] = np.where(ub[cv] < 0.0, 0.0, ub[cv])
    A, tv = problem.A_csr, sites.term_vars
    data = A.data.copy()
    data[sites.term_pos] = np.where(sites.term_upper, -ub[tv], lb[tv])
    out = MilpProblem(
        c=problem.c.copy(),
        obj_const=problem.obj_const,
        A=sp.csr_array((data, A.indices, A.indptr), shape=A.shape),
        relations=problem.relations.copy(),
        b=problem.b.copy(),
        lb=col_lb,
        ub=col_ub,
        is_int=problem.is_int.copy(),
        labels=list(problem.labels),
        row_labels=list(problem.row_labels),
    )
    out._bound_sites = replace(sites, lb=lb, ub=ub)
    return out


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
