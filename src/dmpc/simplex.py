"""Bounded-variable revised simplex solver.

Solves the continuous relaxation of a :class:`~dmpc.milp.MilpProblem`:

    minimize    c @ x + const
    subject to  A x (<=|==) b,   lb <= x <= ub

The implementation is a two-phase primal simplex over the extended system
``K = [A | I | diag(s)]``, one sparse matrix: the structurals, then one
logical column per row (slack for LE rows, fixed at zero for EQ rows),
then one artificial column per row for the phase-1 start, whose sign
``s_i`` each cold start sets to that of the row's initial residual.
Columns, basis matrices, residuals ``b - K x`` and reduced costs
``c - K^T y`` are all read off ``K``.

The basis inverse is a sparse LU factorization of a recent basis ``B0``
plus a product-form eta file, refactorized after at most ``ETA_MAX``
pivots: after k pivots ``B = B0 E_1 ... E_k`` with
``E_i = I + g_i e_{p_i}^T``, where ``p_i`` is the pivot row, ``w_i`` the
FTRAN'd entering column and ``g_i = w_i - e_{p_i}``. The etas are stacked
in arrays rather than applied one by one: the rows of ``G`` are the
``g_i``, ``P`` holds the pivot rows, and the lower-triangular ``L``
(``L_ii = w_i[p_i]``, ``L_ij = g_j[p_i]`` for ``j < i``) couples them. ``L``
is stored packed row by row, so appending an eta costs O(k). Applying all
k etas is one triangular solve and one matrix-vector product:

    FTRAN   v = B0^-1 a;   t = L^-1 v[P];          v -= G^T t
    BTRAN   t = L^-T (G c); c[P] -= t (repeats add); y = B0^-T c

A :class:`Basis` snapshot taken while the factorization is fresh carries
it: the LU object, which is read-only once built and so can be shared,
the first k rows of ``G``, ``P`` and ``L``, and a token naming the ``K``
those factors belong to. Loading the snapshot back into the engine that
took it, while ``K`` is unchanged, resumes that factorization instead of
refactoring; any other load refactors. This is how a branch-and-bound
node resumes its parent's LP.

The primal prices by Dantzig (most negative reduced cost), with Bland's
rule, the engine's only anti-cycling rule, after a run of degenerate
pivots: the lowest-index improving column enters, and the largest pivot
among the rows tied in the ratio test leaves. A Harris dual simplex
drives warm re-solves after bound changes: bound edits never disturb
dual feasibility of an optimal basis, which makes the engine cheap to
reuse across branch-and-bound nodes and across perturbed MPC instances.
Every way a warm re-solve can give up (a singular basis, a stall, a spent
budget, a point that fails verification, ...) is a None returned to
``solve()``, the one place that falls back, in this order: warm from the
carried factorization, then warm once more from the same basis freshly
refactored (only if the first try started on a non-empty eta file), then
a cold two-phase run.

Both loops keep an entering direction per column: +1 for a column at its
lower bound with room above it, -1 for one at its upper bound, 0 for
basic, fixed and free columns, which sit in a mask of their own. It is set
once per loop and updated for the one or two columns each pivot or bound
flip moves. Pricing is then one product of the direction with the reduced
costs (primal) or the pivot row (dual), and the ratio tests run on the
eligible columns (dual) or the blocking rows (primal) alone.

All tie-breaking rules are deterministic (first maximum / lowest index),
so identical inputs reproduce identical pivot sequences bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import get_blas_funcs
from scipy.sparse.linalg import splu

from .milp import MilpProblem, Relation

__all__ = ["LpStatus", "LpResult", "Basis", "SimplexEngine", "solve_lp", "check_point"]

FEAS_TOL = 1e-7      # primal feasibility / optimality tolerance
PIVOT_TOL = 1e-9     # smallest usable pivot element
DEG_EPS = 1e-10      # step size below which a pivot counts as degenerate
BLAND_AFTER = 1000   # consecutive degenerate primal pivots before Bland's rule
MAX_ITER = 50_000    # per-solve pivot budget
ETA_MAX = 160        # eta-file length between refactorizations
DUAL_STALL_AFTER = 300  # warm dual pivots without progress before going cold

# column status codes
_AT_LOWER = 0
_AT_UPPER = 1
_FREE = 2
_BASIC = 3

# packed triangular solve for the eta file's L (see the module docstring)
_tpsv = get_blas_funcs("tpsv", dtype=np.float64)


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


@dataclass
class LpResult:
    """Outcome of one LP solve.

    ``point`` and ``objective`` are populated for OPTIMAL and, as a best
    effort, for ITERATION_LIMIT.
    """

    status: LpStatus
    point: np.ndarray | None
    objective: float | None
    iterations: int


@dataclass
class Basis:
    """Snapshot of a basis: basic column indices plus all column statuses.

    ``factor`` is ``(token, lu, G, P, L)``, the factorization of the basis
    with its k etas (the rows ``G[:k]``, ``P[:k]`` and the packed
    ``L[:k(k+1)/2]``), when the snapshot was taken on a fresh one; None
    otherwise.
    """

    basis: np.ndarray
    vstat: np.ndarray
    factor: tuple | None = None


def check_point(problem: MilpProblem, point) -> float:
    """Maximum signed violation of rows and bounds at ``point``.

    A value <= 0 means the point is feasible; equality rows contribute the
    absolute residual.
    """
    x = np.asarray(point, dtype=float)
    worst = -math.inf
    if problem.n_vars:
        worst = max(worst, float(np.max(problem.lb - x)))
        worst = max(worst, float(np.max(x - problem.ub)))
    if problem.n_rows:
        res = problem.A_csr @ x - problem.b
        le = problem.relations == Relation.LE
        if np.any(le):
            worst = max(worst, float(np.max(res[le])))
        if np.any(~le):
            worst = max(worst, float(np.max(np.abs(res[~le]))))
    return worst


class SimplexEngine:
    """Reusable simplex state for one problem's row structure.

    The engine owns the factorized basis; consecutive calls to
    :meth:`solve` with modified variable bounds re-solve with the dual
    simplex from the current basis instead of starting cold.
    """

    def __init__(self, problem: MilpProblem):
        self.problem = problem
        self.n = problem.n_vars
        self.m = problem.n_rows
        # K = [A | I | diag(s)], sparse: pricing and residuals cost O(nnz),
        # and long-horizon MPC matrices are far too empty to keep dense
        eye = sp.identity(self.m, format="csc")
        self.K = sp.hstack([sp.csc_matrix(problem.A_csr), eye, eye], format="csc")
        self.KT = self.K.T  # a CSR view on the same arrays
        self.b = np.asarray(problem.b, dtype=float).copy()
        self.obj_const = float(problem.obj_const)
        n, m = self.n, self.m
        self.nt = n + 2 * m  # structurals, logicals, artificials

        self.c2 = np.zeros(self.nt)
        self.c2[:n] = problem.c

        # each solve writes the structural bounds; logicals are slacks in
        # [0, inf) for LE rows and fixed at 0 for EQ rows
        self.lb = np.zeros(self.nt)
        self.ub = np.zeros(self.nt)
        self.ub[n : n + m] = np.where(
            np.asarray(problem.relations) == Relation.LE, math.inf, 0.0
        )

        self.basis = np.empty(m, dtype=np.int64)
        self.vstat = np.empty(self.nt, dtype=np.int8)
        self.x = np.zeros(self.nt)
        self._lu = None
        self._token = object()  # names this K; renewed when K changes
        # eta file: G rows g_i, pivot rows P, L packed by rows; k etas in use
        self._G = np.empty((ETA_MAX, m))
        self._P = np.empty(ETA_MAX, dtype=np.int64)
        self._L = np.empty(ETA_MAX * (ETA_MAX + 1) // 2)
        self._k = 0
        # entering direction of each column, and the free ones (_set_dirs)
        self._dir = np.zeros(self.nt)
        self._free = np.zeros(self.nt, dtype=bool)
        self._n_free = 0
        self._have_basis = False
        self._fresh = False
        self._iters = 0
        self._deg_run = 0  # degeneracy run and Bland's switch (_degeneracy)
        self._bland = False

    # ---------------------------------------------------------------- setup

    def _column(self, j: int) -> np.ndarray:
        K, col = self.K, np.zeros(self.m)
        lo, hi = K.indptr[j], K.indptr[j + 1]
        col[K.indices[lo:hi]] = K.data[lo:hi]
        return col

    def _refactor(self):
        """Rebuild the sparse LU of the current basis; clear the eta file.

        Raises RuntimeError, as SuperLU does for a singular matrix, when
        the basis repeats a column or leaves a row empty: SuperLU must
        never see a structurally singular matrix, which can crash it.
        """
        B = self.K[:, self.basis]
        if (np.bincount(self.basis, minlength=self.nt).max(initial=0) > 1
                or np.count_nonzero(np.bincount(B.indices, minlength=self.m)) < self.m):
            raise RuntimeError("structurally singular basis")
        self._lu = splu(B, permc_spec="COLAMD")
        self._k = 0
        self._fresh = True

    def _push_eta(self, r: int, w: np.ndarray):
        """Record the pivot on row ``r`` with FTRAN'd entering column ``w``."""
        k = self._k
        self._G[k] = w
        self._G[k, r] -= 1.0
        self._P[k] = r
        o = k * (k + 1) // 2
        self._L[o : o + k] = self._G[:k, r]
        self._L[o + k] = w[r]
        self._k = k + 1

    def _ftran(self, rhs: np.ndarray) -> np.ndarray:
        v = self._lu.solve(rhs)
        k = self._k
        if k:
            t = _tpsv(k, self._L, v[self._P[:k]], trans=1, overwrite_x=1)
            v -= self._G[:k].T @ t
        return v

    def _btran(self, rhs: np.ndarray) -> np.ndarray:
        k = self._k
        if k:
            t = _tpsv(k, self._L, self._G[:k] @ rhs, trans=0, overwrite_x=1)
            rhs = rhs.copy()
            np.subtract.at(rhs, self._P[:k], t)  # a row may pivot repeatedly
        return self._lu.solve(rhs, trans="T")

    def _recompute_basics(self):
        """x_B = B^-1 (b - N x_N) from scratch."""
        xx = self.x.copy()
        xx[self.basis] = 0.0
        self.x[self.basis] = self._ftran(self.b - self.K @ xx)

    def _reload(self) -> bool:
        """Refactor the current basis, then recompute x_B from scratch.

        False, with nothing recomputed, when the basis has gone singular.
        """
        try:
            self._refactor()
        except RuntimeError:
            return False
        self._recompute_basics()
        return True

    def _set_dirs(self):
        """Entering directions and the free mask, from status and bounds.

        +1 for a column at its lower bound with room above it, -1 for a
        column at its upper bound, 0 for basic, fixed and free columns.
        """
        stat = self.vstat
        rise = (stat == _AT_LOWER) & (self.ub > self.lb)
        self._dir = np.where(stat == _AT_UPPER, -1.0, rise.astype(float))
        self._free = stat == _FREE
        self._n_free = int(np.count_nonzero(self._free))

    def _set_dir(self, j: int):
        """:meth:`_set_dirs` for the one column ``j``, whose status moved.

        Scalar code: it runs twice per pivot, where array indexing costs
        more than the pricing it serves.
        """
        stat = self.vstat[j]
        if stat == _AT_UPPER:
            self._dir[j] = -1.0
        else:
            self._dir[j] = float(stat == _AT_LOWER and self.ub[j] > self.lb[j])
        free = stat == _FREE
        self._n_free += int(free) - int(self._free[j])
        self._free[j] = free

    def _reduced_costs(self, c: np.ndarray) -> np.ndarray:
        return c - self.KT @ self._btran(c[self.basis])

    def _degeneracy(self, step: float):
        """Count consecutive primal steps of at most ``DEG_EPS``; Bland's rule
        is on from the ``BLAND_AFTER``-th to the next real step. Each cold
        solve resets both; phase 1 hands its count on to phase 2."""
        run = self._deg_run = self._deg_run + 1 if step <= DEG_EPS else 0
        self._bland = run >= BLAND_AFTER or (self._bland and run > 0)

    # ---------------------------------------------------------- public API

    def snapshot_basis(self, carry: bool = True) -> Basis:
        """The current basis; with ``carry``, also its factorization when
        fresh. A snapshot meant for another engine, where loading it
        refactors anyway, is lighter without (``carry=False``)."""
        factor = None
        if carry and self._fresh:
            k = self._k
            factor = (self._token, self._lu, self._G[:k].copy(),
                      self._P[:k].copy(), self._L[: k * (k + 1) // 2].copy())
        return Basis(self.basis.copy(), self.vstat.copy(), factor)

    def load_basis(self, snap: Basis):
        """Make ``snap`` the basis of the next warm solve.

        Its factorization is resumed when this engine took it on the
        current ``K``; otherwise the next solve refactors. Raises
        ValueError when its shapes do not fit this engine's ``m`` rows and
        ``n + 2m`` columns.
        """
        if snap.basis.shape != (self.m,) or snap.vstat.shape != (self.nt,):
            raise ValueError(
                f"basis of shape {snap.basis.shape} and statuses of shape "
                f"{snap.vstat.shape} do not fit an engine with basis shape "
                f"({self.m},) and status shape ({self.nt},)"
            )
        self.basis = snap.basis.copy()
        self.vstat = snap.vstat.copy()
        self._have_basis = True
        self._fresh = snap.factor is not None and snap.factor[0] is self._token
        if self._fresh:
            # k, P, G and L together: tpsv reads k(k+1)/2 entries of L
            _, self._lu, G, P, L = snap.factor
            k = self._k = P.size
            self._G[:k] = G
            self._P[:k] = P
            self._L[: L.size] = L

    def solve(self, lb=None, ub=None, warm: bool = True) -> LpResult:
        """Solve with optionally overridden structural bounds.

        With ``warm`` true and a basis left over from an earlier optimal
        solve, re-solves with the dual simplex; otherwise, or if that gives
        up, runs the two-phase primal from an artificial start. A dual that
        started on carried etas and gave up is retried once from the same
        basis, freshly refactored, within the same pivot budget.
        """
        p = self.problem
        self.lb[: self.n] = p.lb if lb is None else lb
        self.ub[: self.n] = p.ub if ub is None else ub
        self._iters = 0

        if np.any(self.lb[: self.n] > self.ub[: self.n]):
            return LpResult(LpStatus.INFEASIBLE, None, None, 0)
        if self.m == 0:  # the only path without a basis
            return self._solve_unconstrained()
        res = None
        if warm and self._have_basis:
            carried = self._fresh and self._k > 0
            start = self.snapshot_basis(carry=False) if carried else None
            res = self._dual_solve()
            if res is None and carried:
                self.load_basis(start)  # without its factor: refactors
                res = self._dual_solve()
        return res or self._cold_solve()

    # ------------------------------------------------------------ cold path

    def _solve_unconstrained(self) -> LpResult:
        c = self.c2[: self.n]
        lo, hi = self.lb[: self.n], self.ub[: self.n]
        x = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
        x = np.where(c > 0, lo, np.where(c < 0, hi, x))
        if np.any(~np.isfinite(x)):
            return LpResult(LpStatus.UNBOUNDED, None, None, 0)
        self.x[: self.n] = x
        obj = float(c @ x) + self.obj_const
        return LpResult(LpStatus.OPTIMAL, x.copy(), obj, 0)

    def _start_artificial(self):
        n, m = self.n, self.m
        lo, hi = self.lb, self.ub
        x = np.zeros(self.nt)
        stat = np.full(self.nt, _AT_LOWER, dtype=np.int8)
        finite_lo = np.isfinite(lo)
        finite_hi = np.isfinite(hi)
        x[:] = np.where(finite_lo, lo, np.where(finite_hi, hi, 0.0))
        stat[~finite_lo & finite_hi] = _AT_UPPER
        stat[~finite_lo & ~finite_hi] = _FREE

        r = self.b - self.K @ x  # the artificials are still at zero
        self.K.data[self.K.indptr[n + m] :] = np.where(r >= 0, 1.0, -1.0)
        self._token = object()  # factors of the old signs no longer apply
        arts = np.arange(n + m, n + 2 * m)
        x[arts] = np.abs(r)
        stat[arts] = _BASIC
        self.basis = arts.astype(np.int64)
        self.vstat = stat
        self.x = x
        self.ub[n + m :] = math.inf
        self._have_basis = True
        self._refactor()

    def _cold_solve(self) -> LpResult:
        n, m = self.n, self.m
        self._deg_run, self._bland = 0, False
        self._start_artificial()

        c1 = np.zeros(self.nt)
        c1[n + m :] = 1.0
        status = self._primal_loop(c1, phase_one=True)
        self.ub[n + m :] = 0.0  # from here on, for phase 2 and every warm solve
        if status == LpStatus.ITERATION_LIMIT:
            return self._limit_result()
        # absolute: big-M rows inflate |b| and must not loosen feasibility
        if float(self.x[n + m :].sum()) > FEAS_TOL:
            return LpResult(LpStatus.INFEASIBLE, None, None, self._iters)

        self.x[n + m :] = np.where(
            self.vstat[n + m :] == _BASIC, self.x[n + m :], 0.0
        )

        status = self._primal_loop(self.c2, phase_one=False)
        if status == LpStatus.ITERATION_LIMIT:
            return self._limit_result()
        if status == LpStatus.UNBOUNDED:
            return LpResult(LpStatus.UNBOUNDED, None, None, self._iters)
        return self._optimal_result() or self._limit_result()

    # --------------------------------------------------------- primal loop

    def _primal_loop(self, c, phase_one: bool) -> LpStatus:
        n, m = self.n, self.m
        movable = self.ub > self.lb  # fixed columns can never enter
        self._set_dirs()
        while True:
            if self._iters >= MAX_ITER:
                return LpStatus.ITERATION_LIMIT
            if (self._k >= ETA_MAX or not self._fresh) and not self._reload():
                return LpStatus.ITERATION_LIMIT  # singular basis: give up
            if phase_one and float(self.x[n + m :].sum()) <= FEAS_TOL:
                return LpStatus.OPTIMAL

            d = self._reduced_costs(c)
            stat = self.vstat
            # basic and fixed columns score 0, at either bound
            score = -d * (self._dir * movable)
            if self._n_free:
                score[self._free] = np.abs(d[self._free])

            if self._bland:
                elig = (score > FEAS_TOL).nonzero()[0]
                if elig.size == 0:
                    return LpStatus.OPTIMAL
                q = int(elig[0])
            else:
                q = int(score.argmax())
                if score[q] <= FEAS_TOL:
                    return LpStatus.OPTIMAL

            t_dir = 1.0
            if stat[q] == _AT_UPPER or (stat[q] == _FREE and d[q] > 0):
                t_dir = -1.0

            w = self._ftran(self._column(q))
            step = self._ratio_and_pivot(q, t_dir, w)
            if step is None:
                if not phase_one:
                    return LpStatus.UNBOUNDED
                if not self._k:  # no step even on a fresh factorization
                    return LpStatus.ITERATION_LIMIT
                self._fresh = False  # numerically impossible; refactor, retry

    def _ratio_and_pivot(self, q: int, t_dir: float, w: np.ndarray):
        """Bounded-variable Harris ratio test, then pivot or bound flip.

        Two passes over the blocking rows, those whose basic moves by more
        than ``PIVOT_TOL`` per unit step: ratios relaxed by the feasibility
        tolerance set the largest admissible step, and among rows whose
        true ratio fits under it the largest pivot element wins. Returns
        the step length, or None when the move is unbounded.
        """
        rates = t_dir * w
        blk = (np.abs(rates) > PIVOT_TOL).nonzero()[0]
        rb = rates[blk]
        rows = self.basis[blk]
        gap = self.x[rows] - np.where(rb > 0, self.lb[rows], self.ub[rows])
        deltas = np.maximum(gap / rb, 0.0)
        relaxed = (gap + np.copysign(FEAS_TOL, rb)) / rb
        # a NaN ratio blocks nothing; -inf reads as the most negative float
        deltas[np.isnan(deltas)] = math.inf
        relaxed[np.isnan(relaxed)] = math.inf
        relaxed[relaxed == -math.inf] = np.finfo(float).min

        own_range = self.ub[q] - self.lb[q]
        theta_max = float(relaxed.min(initial=math.inf))
        if not math.isfinite(min(theta_max, own_range)):
            return None

        r, d_basic = -1, math.inf
        if self._bland:
            d_true = float(deltas.min(initial=math.inf))
            if math.isfinite(d_true):
                # the largest pivot among the tied rows: the lowest basic
                # index can be a near-zero pivot that leaves B singular
                ties = (deltas <= d_true).nonzero()[0]
                i = int(ties[np.abs(rb[ties]).argmax()])
                r, d_basic = int(blk[i]), float(deltas[i])
        elif blk.size:
            scores = np.where(deltas <= theta_max, np.abs(rb), -1.0)
            i = int(scores.argmax())
            if scores[i] > 0:
                r, d_basic = int(blk[i]), float(deltas[i])

        delta = min(d_basic, own_range)
        if not math.isfinite(delta):
            return None

        self._degeneracy(delta)

        if own_range <= d_basic + 1e-12:
            # entering variable flips to its opposite bound; basis unchanged
            delta = own_range
            self.x[self.basis] -= delta * rates
            if self.vstat[q] == _AT_LOWER:
                self.x[q] = self.ub[q]
                self.vstat[q] = _AT_UPPER
            else:
                self.x[q] = self.lb[q]
                self.vstat[q] = _AT_LOWER
            self._set_dir(q)
            self._iters += 1
            return delta

        self._pivot(r, q, w, t_dir * d_basic, rates[r] > 0)
        return d_basic

    def _pivot(self, r: int, q: int, w: np.ndarray, step: float, to_lower: bool):
        """Basis change: column ``q`` enters on row ``r``.

        Moves x by ``step`` along the entering direction (``x_B -= step
        w``) and parks the leaving column on its lower bound if
        ``to_lower``, else on its upper bound (free if that is infinite).
        """
        leave = int(self.basis[r])
        self.x[self.basis] -= step * w
        self.x[q] += step
        if to_lower:
            self.x[leave] = self.lb[leave]
            self.vstat[leave] = _AT_LOWER if self.lb[leave] > -math.inf else _FREE
        else:
            self.x[leave] = self.ub[leave]
            self.vstat[leave] = _AT_UPPER if self.ub[leave] < math.inf else _FREE
        self.basis[r] = q
        self.vstat[q] = _BASIC
        self._set_dir(q)
        self._set_dir(leave)
        self._push_eta(r, w)
        if abs(w[r]) < 1e-5 * max(1.0, float(np.abs(w).max())):
            self._fresh = False  # marginal pivot: refactor before trusting it
        self._iters += 1

    # ----------------------------------------------------------- dual path

    def _dual_solve(self):
        """Warm re-solve after bound edits; None means fall back to cold."""
        if not (self._fresh or self._reload()):
            return None
        d = self._reduced_costs(self.c2)
        stat = self.vstat
        # a free nonbasic that a bound edit boxed in goes onto a finite bound
        free = stat == _FREE
        stat[free & np.isfinite(self.lb)] = _AT_LOWER
        stat[free & ~np.isfinite(self.lb) & np.isfinite(self.ub)] = _AT_UPPER
        # bound changes keep reduced costs intact, but a variable fixed in
        # one subtree and released in another can sit on the wrong bound
        # for its reduced cost; flipping it restores dual feasibility
        at_lo, at_hi = stat == _AT_LOWER, stat == _AT_UPPER
        lo_bad = at_lo & (d < -1e-6) & (self.ub > self.lb)
        hi_bad = at_hi & (d > 1e-6)
        # a nonbasic loaded at, or flipped toward, an infinite bound, or left
        # free with a reduced cost that no bound flip can fix
        if np.any(((at_lo | hi_bad) & ~np.isfinite(self.lb))
                  | ((at_hi | lo_bad) & ~np.isfinite(self.ub))
                  | ((stat == _FREE) & (np.abs(d) > 1e-6))):
            return None
        stat[lo_bad] = _AT_UPPER
        stat[hi_bad] = _AT_LOWER
        # re-snap nonbasics onto their (possibly moved) bounds
        at_lo, at_hi = stat == _AT_LOWER, stat == _AT_UPPER
        self.x[at_lo] = self.lb[at_lo]
        self.x[at_hi] = self.ub[at_hi]
        self._recompute_basics()
        self._set_dirs()
        lbB, ubB = self.lb[self.basis], self.ub[self.basis]

        # a healthy warm re-solve needs far fewer pivots than a cold run;
        # cap the budget by size and bail early when infeasibility stalls
        budget = min(MAX_ITER // 2, max(500, 2 * (self.m + self.n)))
        best_tot = math.inf
        stall = 0
        while True:
            if self._iters >= budget:
                return None
            # the one refactor site; d is exact while the eta file is empty
            if self._k >= ETA_MAX or not self._fresh:
                if not self._reload():
                    return None
                d = self._reduced_costs(self.c2)

            xB = self.x[self.basis]
            v_lo = lbB - xB
            v_hi = xB - ubB
            viol = np.maximum(v_lo, v_hi)
            r = int(viol.argmax())
            if viol[r] <= FEAS_TOL:
                return self._optimal_result()
            tot = float(np.maximum(viol, 0.0).sum())
            if tot < best_tot - 1e-9:
                best_tot = tot
                stall = 0
            else:
                stall += 1
                if stall >= DUAL_STALL_AFTER:
                    return None
            leaving_low = v_lo[r] >= v_hi[r]

            e = np.zeros(self.m)
            e[r] = 1.0
            alpha = self.KT @ self._btran(e)

            # an entering column must push row r back toward its bound
            moves = alpha * self._dir
            elig = moves < -PIVOT_TOL if leaving_low else moves > PIVOT_TOL
            if self._n_free:
                elig |= self._free & (np.abs(alpha) > PIVOT_TOL)
            cols = elig.nonzero()[0]
            if not cols.size:
                # only certify infeasibility from exact data
                if self._k:
                    self._fresh = False
                    continue
                return LpResult(LpStatus.INFEASIBLE, None, None, self._iters)

            # Harris: largest pivot among columns within the relaxed window
            aa = np.abs(alpha[cols])
            mag = np.maximum(d[cols] * self._dir[cols], 0.0)
            theta_max = ((mag + FEAS_TOL) / aa).min()
            q = int(cols[np.where(mag / aa <= theta_max, aa, -1.0).argmax()])

            w = self._ftran(self._column(q))
            piv = float(w[r])
            if abs(piv) < PIVOT_TOL or piv * alpha[q] <= 0.0:
                # BTRAN row and FTRAN column disagree: etas went stale
                if not self._k:
                    return None  # inconsistent even when fresh; go cold
                self._fresh = False
                continue

            theta_d = d[q] / piv
            leave = int(self.basis[r])
            bound_r = self.lb[leave] if leaving_low else self.ub[leave]
            self._pivot(r, q, w, (xB[r] - bound_r) / piv, leaving_low)
            lbB[r], ubB[r] = self.lb[q], self.ub[q]

            d -= theta_d * alpha
            d[q] = 0.0
            d[leave] = -theta_d

    # -------------------------------------------------------------- results

    def _objective(self) -> float:
        return float(self.c2[: self.n] @ self.x[: self.n]) + self.obj_const

    def _verify(self) -> bool:
        return not (np.max(np.abs(self.b - self.K @ self.x), initial=0.0) > 1e-6
                    or np.max(self.lb - self.x, initial=0.0) > 1e-6
                    or np.max(self.x - self.ub, initial=0.0) > 1e-6)

    def _optimal_result(self):
        """The optimum at ``x``; None if ``x`` fails _verify even after a reload."""
        if not (self._verify() or (self._reload() and self._verify())):
            return None
        x = self.x[: self.n].copy()
        return LpResult(LpStatus.OPTIMAL, x, self._objective(), self._iters)

    def _limit_result(self) -> LpResult:
        return LpResult(
            LpStatus.ITERATION_LIMIT,
            self.x[: self.n].copy(),
            self._objective(),
            self._iters,
        )


def solve_lp(problem: MilpProblem) -> LpResult:
    """One-shot cold solve of the problem's continuous relaxation.

    Integrality flags are ignored.
    """
    return SimplexEngine(problem).solve(warm=False)
