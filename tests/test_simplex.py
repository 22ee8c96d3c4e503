"""LP engine against closed-form answers and the scipy oracle."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dmpc.simplex
from dmpc.bnb import SolveOptions, SolveStatus
from dmpc.bnb import solve as bnb_solve
from dmpc.cli import highs_lp
from dmpc.milp import MilpProblem, Relation
from dmpc.simplex import (
    Basis,
    LpStatus,
    SimplexEngine,
    check_point,
    solve_lp,
)
from dmpc.thermostat import OFF, ON, build_thermostat_mpc

from conftest import assert_certified


def make_lp(c, A, relations, b, lb, ub):
    n = len(c)
    return MilpProblem(
        c=np.asarray(c, dtype=float),
        obj_const=0.0,
        A=np.asarray(A, dtype=float).reshape(-1, n),
        relations=np.asarray(relations, dtype=np.int8),
        b=np.asarray(b, dtype=float),
        lb=np.asarray(lb, dtype=float),
        ub=np.asarray(ub, dtype=float),
        is_int=np.zeros(n, dtype=bool),
    )


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
    ref = highs_lp(lp)
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
            if eng._k >= 20:
                break
            lb, ub = prob.lb.copy(), prob.ub.copy()
            lb[col] = ub[col] = val
            eng.solve(lb=lb, ub=ub)
    k = eng._k
    assert k >= 20
    rows = eng._P[:k]
    assert np.unique(rows).size < k  # some row was pivoted on twice

    B = np.column_stack([eng._column(int(j)) for j in eng.basis])
    rng = np.random.default_rng(0)
    for _ in range(3):
        v = rng.standard_normal(eng.m)
        for got, want in ((eng._ftran(v), np.linalg.solve(B, v)),
                          (eng._btran(v), np.linalg.solve(B.T, v))):
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    eng._refactor()
    assert eng._k == 0
    v = rng.standard_normal(eng.m)
    np.testing.assert_allclose(eng._ftran(v), np.linalg.solve(B, v), rtol=1e-9, atol=1e-9)


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
        calls.append(self._k)
        if len(calls) > 50:
            pytest.fail("phase one retried a step it cannot take")
        return None

    monkeypatch.setattr(SimplexEngine, "_ratio_and_pivot", no_step)
    res = SimplexEngine(thermostat_n3()).solve(warm=False)
    assert res.status is LpStatus.ITERATION_LIMIT
    assert calls == [0]


def test_singular_bland_pivot_in_cold_path_stops_bnb_cleanly(monkeypatch):
    # Bland's ratio test takes a near-zero pivot here and the next
    # refactorization finds the basis singular; the root LP gives up
    monkeypatch.setattr(dmpc.simplex, "BLAND_AFTER", 3)
    prob = build_thermostat_mpc((20.5, 20.8, 19.5, 20.1), OFF, 5)
    res = bnb_solve(prob, SolveOptions(node_limit=30))
    assert res.status is SolveStatus.FEASIBLE_LIMIT
    assert res.objective is None
    assert res.nodes_explored == 1


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
        ref = highs_lp(lp)
        assert r.status is ref.status
        if r.status is LpStatus.OPTIMAL:
            assert r.objective == pytest.approx(ref.objective, abs=1e-6, rel=1e-6)


# lp_digest of the SimplexEngine.solve results of each group of runs below:
# node-limited B&B on the hull models, the same on the big-M models, and 60
# random LPs with 4 warm re-solves each. A change that keeps every pivot
# keeps each digest; a change to one lowering moves only its own.
LP_RESULTS = {
    "hull": (89, "d2b0ec89b1e1e6823281c045bb6b6c965bd2fdea14e7366efc3bf6d9eb777c34"),
    "bigm": (108, "63a2e3ebd7eaa84d066feebd1d2087d3019b8c62ae9d8ce9e81a6079adf87bb1"),
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
    # 48 steps in the big-M runs (the hull root LPs end at the iteration
    # limit, tested above)
    monkeypatch.setattr(dmpc.simplex, "BLAND_AFTER", 3)
    for N in (5, 10):
        for s0 in (OFF, ON):
            prob = build_thermostat_mpc((20.5, 20.8, 19.5, 20.1), s0, N,
                                        variant="bigm")
            bnb_solve(prob, SolveOptions(node_limit=30))
    assert_agree_with_highs(lp_log)
    assert lp_digest(lp_log) == (
        110, "e0254d836983a5a4545badc64116e0d3932ee15674ab03756e0ec1811183036d")
