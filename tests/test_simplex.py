"""LP engine against closed-form answers and the scipy oracle."""

import dataclasses
import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import structural_rank

import dmpc.simplex
from dmpc.bnb import SolveOptions, SolveStatus
from dmpc.bnb import solve as bnb_solve
from dmpc.cli import highs
from dmpc.milp import Relation
from dmpc.simplex import (
    Basis,
    LpStatus,
    SimplexEngine,
    _Factor,
    check_point,
    solve_lp,
)
from dmpc.thermostat import OFF, ON, build_thermostat_mpc

from conftest import assert_certified, make_milp, relaxed


def make_lp(c, A, relations, b, lb, ub):
    return make_milp(c, A, relations, b, lb, ub, np.zeros(len(c), dtype=bool))


def test_simple_two_var_lp():
    # min -x - y st x + y <= 1, box [0, 1]^2
    lp = make_lp([-1.0, -1.0], [[1.0, 1.0]], [Relation.LE], [1.0],
                 [0.0, 0.0], [1.0, 1.0])
    res = solve_lp(lp)
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(-1.0)
    assert res.point.sum() == pytest.approx(1.0)


def test_equality_row_binds():
    lp = make_lp([1.0, 2.0], [[1.0, 1.0]], [Relation.EQ], [3.0],
                 [0.0, 0.0], [10.0, 10.0])
    res = solve_lp(lp)
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(3.0)  # all mass on the cheap column
    np.testing.assert_allclose(res.point, [3.0, 0.0], atol=1e-9)


def test_infeasible_detected():
    lp = make_lp([1.0], [[1.0], [-1.0]], [Relation.LE, Relation.LE],
                 [1.0, -3.0], [0.0], [10.0])  # x <= 1 and x >= 3
    assert solve_lp(lp).status is LpStatus.INFEASIBLE


def test_unbounded_detected():
    lp = make_lp([-1.0], np.zeros((0, 1)), [], [], [0.0], [np.inf])
    assert solve_lp(lp).status is LpStatus.UNBOUNDED


def test_negative_lower_bounds():
    lp = make_lp([1.0, 1.0], [[1.0, -1.0]], [Relation.LE], [0.5],
                 [-2.0, -3.0], [2.0, 3.0])
    res = solve_lp(lp)
    assert res.status is LpStatus.OPTIMAL
    # x rides its lower bound, y rides the row: y >= x - 0.5
    assert res.objective == pytest.approx(-4.5)
    np.testing.assert_allclose(res.point, [-2.0, -2.5], atol=1e-9)


def test_fixed_variable_is_respected():
    lp = make_lp([1.0, 1.0], [[1.0, 1.0]], [Relation.LE], [10.0],
                 [0.0, 4.0], [5.0, 4.0])
    res = solve_lp(lp)
    assert res.status is LpStatus.OPTIMAL
    assert res.point[1] == pytest.approx(4.0)


def test_check_point_flags_violations():
    lp = make_lp([1.0], [[1.0]], [Relation.LE], [1.0], [0.0], [2.0])
    assert check_point(lp, np.array([0.5])) <= 0.0
    assert check_point(lp, np.array([1.5])) == pytest.approx(0.5)


def test_warm_resolve_after_bound_change():
    # tighten a bound and re-solve warm; cold solve agrees
    lp = make_lp([-1.0, -1.0], [[1.0, 1.0]], [Relation.LE], [1.5],
                 [0.0, 0.0], [1.0, 1.0])
    eng = SimplexEngine(lp)
    first = eng.solve()
    assert first.status is LpStatus.OPTIMAL
    ub = lp.ub.copy()
    ub[0] = 0.25
    warm = eng.solve(ub=ub)
    cold = SimplexEngine(lp).solve(ub=ub, warm=False)
    assert warm.status is LpStatus.OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)


def test_basis_snapshot_roundtrip():
    lp = make_lp([-1.0, -2.0], [[1.0, 1.0], [1.0, 0.0]],
                 [Relation.LE, Relation.LE], [2.0, 1.5],
                 [0.0, 0.0], [3.0, 3.0])
    eng = SimplexEngine(lp)
    res = eng.solve()
    snap = eng.snapshot_basis()
    assert isinstance(snap, Basis)
    other = SimplexEngine(lp)
    other.load_basis(snap)
    res2 = other.solve()
    assert res2.objective == pytest.approx(res.objective, abs=1e-12)


def test_load_basis_rejects_a_snapshot_of_another_shape():
    x0 = (20.5, 20.8, 19.5, 20.1)
    small = SimplexEngine(build_thermostat_mpc(x0, OFF, 5))
    assert small.solve(warm=False).status is LpStatus.OPTIMAL
    eng = SimplexEngine(build_thermostat_mpc(x0, OFF, 10))
    want = eng.solve(warm=False)
    snap, own = small.snapshot_basis(), eng.snapshot_basis()
    for bad in (snap, Basis(own.basis, snap.vstat), Basis(snap.basis, own.vstat)):
        with pytest.raises(ValueError) as err:
            eng.load_basis(bad)
        for shape in (bad.basis.shape, bad.vstat.shape, own.basis.shape, own.vstat.shape):
            assert str(shape) in str(err.value)
    # nothing was loaded: the engine still holds its own optimal basis
    again = eng.solve()
    assert again.iterations == 0
    assert again.objective == pytest.approx(want.objective, rel=1e-12)


def pinned(prob, col, val):
    """The problem's bounds with column ``col`` fixed at ``val``."""
    lb, ub = prob.lb.copy(), prob.ub.copy()
    lb[col] = ub[col] = val
    return lb, ub


def carried_snapshot():
    """An N=5 hull problem, and an engine with a snapshot of its warm
    re-solve, taken on a fresh factorization with a non-empty eta file."""
    prob = build_thermostat_mpc((20.5, 20.8, 19.5, 20.1), OFF, 5)
    eng = SimplexEngine(prob)
    assert eng.solve(warm=False).status is LpStatus.OPTIMAL
    assert eng.solve(*pinned(prob, np.flatnonzero(prob.is_int)[3], 0.0)).iterations > 0
    snap = eng.snapshot_basis()
    assert snap.factor is not None and snap.factor.P.size == eng._factor.k > 0
    return prob, eng, snap


def test_snapshot_resumes_its_factorization_only_in_its_own_engine(monkeypatch):
    prob, eng, snap = carried_snapshot()
    child = pinned(prob, np.flatnonzero(prob.is_int)[6], 1.0)
    refactors = []
    real_refactor = _Factor.refactor

    def refactor(cls, *args):
        refactors.append(args)
        return real_refactor(*args)

    monkeypatch.setattr(_Factor, "refactor", classmethod(refactor))

    def resolve(engine, start):
        """Solve ``child`` from ``start``; the result and the refactor count."""
        engine.load_basis(start)
        refactors.clear()
        res = engine.solve(*child)
        assert res.status is LpStatus.OPTIMAL
        assert_certified(engine)
        return res, len(refactors)

    eng.solve(*pinned(prob, np.flatnonzero(prob.is_int)[5], 1.0))  # move away
    resumed, n_resumed = resolve(eng, snap)
    fresh, n_fresh = resolve(eng, Basis(snap.basis, snap.vstat))
    assert (n_resumed, n_fresh) == (0, 1)
    assert resumed.objective == pytest.approx(fresh.objective, rel=1e-9, abs=0.0)
    # another engine has other factors, and a cold start changes K's signs
    assert resolve(SimplexEngine(prob), snap)[1] == 1
    eng.solve(warm=False)
    assert resolve(eng, snap)[1] == 1


def test_warm_solve_retries_fresh_before_going_cold(monkeypatch):
    prob, eng, snap = carried_snapshot()
    child = pinned(prob, np.flatnonzero(prob.is_int)[6], 1.0)
    fresh = SimplexEngine(prob)
    fresh.load_basis(Basis(snap.basis, snap.vstat))
    want = fresh.solve(*child)
    real_dual, real_cold = SimplexEngine._dual_solve, SimplexEngine._cold_solve
    starts, colds = [], []

    def dual_solve(self):
        f = self._factor
        starts.append((f is not None, f.k if f else 0,
                       self.basis.copy(), self.vstat.copy()))
        res = real_dual(self)
        starts[-1] += (self._iters,)
        return None if len(starts) == 1 else res  # the first try gives up

    def cold_solve(self):
        colds.append(self)
        return real_cold(self)

    monkeypatch.setattr(SimplexEngine, "_dual_solve", dual_solve)
    monkeypatch.setattr(SimplexEngine, "_cold_solve", cold_solve)
    eng.load_basis(snap)
    res = eng.solve(*child)
    assert len(starts) == 2 and not colds
    (fresh0, k0, basis0, vstat0, iters0), (fresh1, _, basis1, vstat1, _) = starts
    assert fresh0 and k0 > 0  # the first try ran on the carried etas
    assert not fresh1  # the retry refactors the basis the first one started from
    np.testing.assert_array_equal(basis1, basis0)
    np.testing.assert_array_equal(vstat1, vstat0)
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(want.objective, rel=1e-9, abs=0.0)
    assert res.iterations == iters0 + want.iterations  # both tries count

    # a retry that gives up too goes cold; a start that refactors anyway
    # is not retried
    monkeypatch.setattr(SimplexEngine, "_dual_solve", lambda self: starts.append(None))
    for start, tries in ((snap, 2), (Basis(snap.basis, snap.vstat), 1)):
        starts.clear()
        colds.clear()
        eng.load_basis(start)
        assert eng.solve(*child).objective == pytest.approx(want.objective, rel=1e-9)
        assert (len(starts), len(colds)) == (tries, 1)


def test_determinism_same_pivot_sequence():
    rng = np.random.default_rng(3)
    lp = make_lp(rng.standard_normal(8),
                 rng.standard_normal((5, 8)),
                 [Relation.LE] * 5,
                 rng.standard_normal(5) + 2.0,
                 np.full(8, -4.0), np.full(8, 4.0))
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert a.status is b.status
    assert a.iterations == b.iterations
    np.testing.assert_array_equal(a.point, b.point)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=99_999))
def test_random_lps_match_scipy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 6))
    relations = rng.choice(
        [int(Relation.LE), int(Relation.EQ)], size=m, p=[0.8, 0.2]
    )
    lp = make_lp(
        rng.standard_normal(n),
        rng.standard_normal((m, n)),
        relations,
        rng.standard_normal(m),
        np.round(-rng.uniform(0.0, 5.0, n), 2),
        np.round(rng.uniform(0.0, 5.0, n), 2),
    )
    eng = SimplexEngine(lp)
    mine = eng.solve(warm=False)
    ref = highs(lp)
    if ref.status is LpStatus.INFEASIBLE:
        assert mine.status is LpStatus.INFEASIBLE
    elif ref.status is LpStatus.OPTIMAL:
        assert mine.status is LpStatus.OPTIMAL
        assert mine.objective == pytest.approx(ref.objective, abs=1e-6, rel=1e-6)
        assert check_point(lp, mine.point) <= 1e-7
        assert_certified(eng)


def thermostat_n3():
    return build_thermostat_mpc((20.5, 20.8, 19.5, 20.1), OFF, 3, variant="hull")


def test_eta_file_matches_dense_basis_solves():
    prob = thermostat_n3()
    eng = SimplexEngine(prob)
    assert eng.solve(warm=False).status is LpStatus.OPTIMAL
    # pin binaries one at a time; etas pile up across the warm re-solves
    # until a refactorization (which empties the file) or 20 are stacked
    for col in np.flatnonzero(prob.is_int):
        for val in (0.0, 1.0):
            if eng._factor.k >= 20:
                break
            lb, ub = prob.lb.copy(), prob.ub.copy()
            lb[col] = ub[col] = val
            eng.solve(lb=lb, ub=ub)
    f = eng._factor
    k = f.k
    assert k >= 20
    rows = f.P[:k]
    assert np.unique(rows).size < k  # some row was pivoted on twice

    B = np.column_stack([eng._column(int(j)) for j in eng.basis])
    rng = np.random.default_rng(0)
    for _ in range(3):
        v = rng.standard_normal(eng.m)
        for got, want in ((f.ftran(v), np.linalg.solve(B, v)),
                          (f.btran(v), np.linalg.solve(B.T, v))):
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    f = _Factor.refactor(eng.K, eng.basis, None, _Factor.buffers(eng.m))
    assert f.k == 0
    v = rng.standard_normal(eng.m)
    np.testing.assert_allclose(f.ftran(v), np.linalg.solve(B, v), rtol=1e-9, atol=1e-9)


def test_singular_refactor_in_dual_loop_falls_back_cold(monkeypatch):
    prob = thermostat_n3()
    lb, ub = prob.lb.copy(), prob.ub.copy()
    col = np.flatnonzero(prob.is_int)[3]
    lb[col] = ub[col] = 0.0
    cold = SimplexEngine(prob).solve(lb=lb, ub=ub, warm=False)

    eng = SimplexEngine(prob)
    assert eng.solve(warm=False).status is LpStatus.OPTIMAL
    real_splu = dmpc.simplex.splu
    calls = []

    def flaky_splu(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("Factor is exactly singular")
        return real_splu(*args, **kwargs)

    # a short eta file forces refactorizations inside the dual loop
    monkeypatch.setattr(dmpc.simplex, "ETA_MAX", 2)
    monkeypatch.setattr(dmpc.simplex, "splu", flaky_splu)
    warm = eng.solve(lb=lb, ub=ub)
    assert len(calls) >= 3  # the second call raised; the cold solve ran after it
    assert warm.status is LpStatus.OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, rel=1e-9)


def test_structurally_singular_basis_falls_back_cold_before_splu(monkeypatch):
    prob = thermostat_n3()
    eng = SimplexEngine(prob)
    assert eng.solve(warm=False).status is LpStatus.OPTIMAL
    want = highs(relaxed(prob)).objective
    snap = eng.snapshot_basis(carry=False)
    n, m = eng.n, eng.m
    repeated = snap.basis.copy()
    repeated[1] = repeated[0]  # shape-valid, but column basis[0] is in it twice
    # the logicals of all rows but t and u, then q1, which covers t and u,
    # and q2, which covers neither: every row is covered and no column
    # repeats, yet q2 and the logicals of its rows cannot all take a row
    K = eng.K
    rows = [K.indices[K.indptr[j] : K.indptr[j + 1]] for j in range(n)]
    q1 = next(j for j in range(n) if rows[j].size >= 2)
    t, u = rows[q1][:2]
    q2 = next(j for j in range(n) if rows[j].size and not np.isin((t, u), rows[j]).any())
    singular = np.arange(n, n + m)
    singular[t], singular[u] = q1, q2
    B = K[:, singular]
    assert np.all(np.diff(B.tocsr().indptr) > 0) and np.unique(singular).size == m
    assert structural_rank(B) < m
    factored = []
    real_splu = dmpc.simplex.splu

    def splu_spy(B, *args, **kwargs):
        factored.append(B.copy())
        return real_splu(B, *args, **kwargs)

    monkeypatch.setattr(dmpc.simplex, "splu", splu_spy)
    for basis in (repeated, singular):
        factored.clear()
        eng.load_basis(Basis(basis, snap.vstat))
        res = eng.solve()
        assert res.status is LpStatus.OPTIMAL
        assert res.objective == pytest.approx(want, rel=1e-9)
        assert factored  # the cold solve factored its own bases
        for B in factored:  # none had an empty row, a repeated column or a rank gap
            assert np.all(np.diff(B.tocsr().indptr) > 0)
            assert np.unique(B.toarray(), axis=1).shape[1] == B.shape[1]
            assert structural_rank(B) == m


@pytest.mark.slow
def test_long_bigm_search_hands_splu_no_structurally_singular_basis():
    # around its 4,379th LP this search once passed SuperLU a structurally
    # singular basis, which killed the process; in a child, a crash fails
    # the test instead of ending pytest
    probe = textwrap.dedent("""
        import dmpc.simplex
        from scipy.sparse.csgraph import structural_rank
        from dmpc.bnb import SolveOptions, solve
        from dmpc.thermostat import build_thermostat_mpc

        engine = dmpc.simplex.SimplexEngine
        real_splu, real_solve, singular, lps = dmpc.simplex.splu, engine.solve, [], []

        def splu(B, *args, **kwargs):
            singular.append(structural_rank(B) < B.shape[0])
            return real_splu(B, *args, **kwargs)

        def lp(self, *args, **kwargs):
            lps.append(None)
            return real_solve(self, *args, **kwargs)

        dmpc.simplex.splu, engine.solve = splu, lp
        prob = build_thermostat_mpc((20.6, 21.4, 20.2, 20.16), 0, 30, variant="gdp_bigm")
        solve(prob, SolveOptions(node_limit=4500))
        print(len(lps), sum(singular))
    """)
    src = str(Path(dmpc.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-X", "faulthandler", "-c", probe],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=600)
    assert out.returncode == 0, out.stderr[-2000:]
    lps, singular = map(int, out.stdout.split())
    assert lps > 4379 and singular == 0


def test_singular_refactor_in_cold_loop_ends_at_iteration_limit(monkeypatch):
    prob = thermostat_n3()
    want = SimplexEngine(prob).solve(warm=False)
    real_splu = dmpc.simplex.splu
    calls = []

    def flaky_splu(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("Factor is exactly singular")
        return real_splu(*args, **kwargs)

    # the first call factors the artificial start; the second, forced by a
    # short eta file, is the primal loop's own refactorization
    monkeypatch.setattr(dmpc.simplex, "ETA_MAX", 2)
    monkeypatch.setattr(dmpc.simplex, "splu", flaky_splu)
    eng = SimplexEngine(prob)
    assert eng.solve(warm=False).status is LpStatus.ITERATION_LIMIT
    assert len(calls) == 2
    again = eng.solve(warm=False)
    assert again.status is LpStatus.OPTIMAL
    assert again.objective == pytest.approx(want.objective, rel=1e-9)


def test_phase_one_without_a_step_ends_at_iteration_limit(monkeypatch):
    # a ratio test that finds no step on a fresh factorization ends the
    # solve; retrying would repeat the same step forever
    calls = []

    def no_step(self, q, t_dir, w):
        calls.append(self._factor.k)
        if len(calls) > 50:
            pytest.fail("phase one retried a step it cannot take")
        return None

    monkeypatch.setattr(SimplexEngine, "_ratio_and_pivot", no_step)
    res = SimplexEngine(thermostat_n3()).solve(warm=False)
    assert res.status is LpStatus.ITERATION_LIMIT
    assert calls == [0]


def warm_pin_one():
    """An N=3 hull engine after its cold solve, and the bounds of a re-solve
    with its first binary pinned to 1 (the warm dual takes 7 pivots)."""
    prob = thermostat_n3()
    eng = SimplexEngine(prob)
    assert eng.solve(warm=False).status is LpStatus.OPTIMAL
    return eng, pinned(prob, np.flatnonzero(prob.is_int)[0], 1.0)


def test_stalled_warm_dual_falls_back_cold(monkeypatch):
    eng, child = warm_pin_one()
    want = eng.solve(*child)
    assert (want.status, want.iterations) == (LpStatus.OPTIMAL, 7)
    real_cold = SimplexEngine._cold_solve
    colds = []

    def cold_solve(self):
        colds.append(None)
        return real_cold(self)

    # a pivot that leaves the total infeasibility where it was now gives up
    monkeypatch.setattr(dmpc.simplex, "DUAL_STALL_AFTER", 1)
    monkeypatch.setattr(SimplexEngine, "_cold_solve", cold_solve)
    eng, child = warm_pin_one()
    colds.clear()
    res = eng.solve(*child)
    assert len(colds) == 1
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(want.objective, rel=1e-9, abs=0.0)


def test_spent_warm_budget_ends_at_iteration_limit_without_a_point(monkeypatch):
    # the dual's budget is half of MAX_ITER: it gives up after 2 pivots, is
    # not retried on a spent budget, and the cold run it falls back to stops
    # at 4 in phase one
    eng, child = warm_pin_one()
    monkeypatch.setattr(dmpc.simplex, "MAX_ITER", 4)
    real_dual = SimplexEngine._dual_solve
    tries = []

    def dual_solve(self):
        start = self._iters
        res = real_dual(self)
        tries.append((start, self._iters))
        return res

    monkeypatch.setattr(SimplexEngine, "_dual_solve", dual_solve)
    res = eng.solve(*child)
    assert res.status is LpStatus.ITERATION_LIMIT
    assert res.point is None and res.objective is None
    assert res.iterations == 4
    assert tries == [(0, 2)]


def test_bland_ratio_test_takes_the_largest_tied_pivot(monkeypatch, lp_log):
    # on this root LP the lowest basic index among Bland's tied rows is a
    # 1.1e-8 pivot against a column maximum of 215, which left the basis
    # singular; the largest tied pivot closes the B&B at the optimum that
    # the default rule finds, and every node LP agrees with HiGHS
    monkeypatch.setattr(dmpc.simplex, "BLAND_AFTER", 3)
    prob = build_thermostat_mpc((20.5, 20.8, 19.5, 20.1), OFF, 5)
    res = bnb_solve(prob, SolveOptions(node_limit=30))
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(5029.264997, abs=1e-6)
    assert_agree_with_highs(lp_log)
    ints = np.round(res.point[prob.is_int])
    lb, ub = prob.lb.copy(), prob.ub.copy()
    lb[prob.is_int] = ub[prob.is_int] = ints
    pinned = highs(dataclasses.replace(prob, lb=lb, ub=ub))
    assert res.objective == pytest.approx(pinned.objective, abs=1e-6, rel=1e-6)


def random_lp_with_open_bounds(rng):
    """A small LP whose columns may be free or unbounded on one side."""
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, 7))
    lb = np.round(-rng.uniform(0.0, 5.0, n), 2)
    ub = np.round(rng.uniform(0.0, 5.0, n), 2)
    kind = rng.choice(4, size=n, p=[0.7, 0.1, 0.1, 0.1])
    lb[(kind == 1) | (kind == 3)] = -np.inf
    ub[(kind == 2) | (kind == 3)] = np.inf
    relations = rng.choice([int(Relation.LE), int(Relation.EQ)], size=m, p=[0.8, 0.2])
    return make_lp(rng.standard_normal(n), rng.standard_normal((m, n)), relations,
                   rng.standard_normal(m), lb, ub)


def lp_digest(log):
    """(count, sha256) over the results of an ``lp_log``."""
    h = hashlib.sha256()
    for _, r in log:
        h.update(repr((r.status.value, r.objective, r.iterations)).encode())
        h.update(b"" if r.point is None else r.point.tobytes())
    return len(log), h.hexdigest()


def assert_agree_with_highs(log):
    for lp, r in log:
        ref = highs(relaxed(lp))
        assert r.status is ref.status
        if r.status is LpStatus.OPTIMAL:
            assert r.objective == pytest.approx(ref.objective, abs=1e-6, rel=1e-6)


# lp_digest of the SimplexEngine.solve results of each group of runs below:
# node-limited B&B on the hull models, the same on the big-M models, and 60
# random LPs with 4 warm re-solves each. A change that keeps every pivot
# keeps each digest; a change to one lowering moves only its own.
LP_RESULTS = {
    "hull": (86, "8ed6bb479ee507c3ae2c1ce9d11fcb72f55f9afc2a9ca287cf2262154d6459b0"),
    "bigm": (111, "17212b9efe4ad331e9f6392f4325b081909b691e7954725b7293d6906f86ed35"),
    "random": (300, "2a01374cc484ecc4ab70f1196fdc58eed47072a455088737039c08815e2ac4a2"),
}


def test_lp_results_pin(lp_log):
    got = {}
    for variant in ("hull", "bigm"):
        for N in (5, 10):
            for s0 in (OFF, ON):
                prob = build_thermostat_mpc((20.5, 20.8, 19.5, 20.1), s0, N,
                                            variant=variant)
                bnb_solve(prob, SolveOptions(node_limit=30))
        got[variant] = lp_digest(lp_log)
        lp_log.clear()
    for seed in range(60):
        rng = np.random.default_rng(seed)
        lp = random_lp_with_open_bounds(rng)
        eng = SimplexEngine(lp)
        eng.solve(warm=False)
        for _ in range(4):
            lb, ub = lp.lb.copy(), lp.ub.copy()
            j = int(rng.integers(lp.n_vars))
            v = float(np.round(rng.uniform(-3.0, 3.0), 2))
            if rng.random() < 0.5:
                ub[j] = v
            else:
                lb[j] = v
            eng.solve(lb=lb, ub=ub)
    assert_agree_with_highs(lp_log)
    got["random"] = lp_digest(lp_log)
    assert got == LP_RESULTS


def test_lp_results_pin_under_bland(monkeypatch, lp_log):
    # the runs above never reach Bland's rule; here it switches on after
    # three degenerate pivots of the cold primal, its only user, and takes
    # 55 steps in these big-M runs (an N=5 hull run is tested in
    # test_bland_ratio_test_takes_the_largest_tied_pivot)
    monkeypatch.setattr(dmpc.simplex, "BLAND_AFTER", 3)
    for N in (5, 10):
        for s0 in (OFF, ON):
            prob = build_thermostat_mpc((20.5, 20.8, 19.5, 20.1), s0, N,
                                        variant="bigm")
            bnb_solve(prob, SolveOptions(node_limit=30))
    assert_agree_with_highs(lp_log)
    assert lp_digest(lp_log) == (
        115, "5302a2b4c0adcb1bc87f4f342d25ec7dbac3f409c2dc21b6788ebff52df63f21")
