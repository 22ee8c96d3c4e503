"""Branch and bound on small MILPs, cross-checked against scipy's HiGHS."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmpc.bnb import SolveOptions, SolveStatus, relaxation_bound, solve
from dmpc.milp import Relation
from dmpc.simplex import LpStatus, SimplexEngine
from dmpc.thermostat import OFF, build_thermostat_mpc

from conftest import highs_milp, make_milp


def knapsack():
    # max 5a + 4b + 3c st 2a + 3b + c <= 5, binary
    return make_milp([-5.0, -4.0, -3.0], [[2.0, 3.0, 1.0]], [Relation.LE],
                     [5.0], [0.0] * 3, [1.0] * 3, [True] * 3)


def test_knapsack_optimum():
    res = solve(knapsack())
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(-9.0)
    np.testing.assert_allclose(res.point, [1.0, 1.0, 0.0], atol=1e-9)


def test_root_bound_below_optimum():
    prob = knapsack()
    root = relaxation_bound(prob)
    res = solve(prob)
    assert root <= res.objective + 1e-9


def test_gap_closes_at_optimality():
    res = solve(knapsack())
    assert res.gap_percent == pytest.approx(0.0, abs=1e-9)


def test_node_limit_reports_partial_result():
    prob = knapsack()
    res = solve(prob, SolveOptions(node_limit=1))
    assert res.nodes_explored == 1
    assert res.best_bound <= -9.0 + 1e-9
    if res.objective is not None:
        assert res.gap_percent >= 0.0


def test_time_limit_stops_with_open_nodes(monkeypatch):
    # a clock that ticks once per read: t0 = 0, and the check before node
    # k reads k, so a 2.5 s limit admits exactly two nodes
    ticks = iter(range(100))
    monkeypatch.setattr("dmpc.bnb.time", SimpleNamespace(monotonic=lambda: next(ticks)))
    prob = knapsack()  # its root LP is fractional, so the root branches
    res = solve(prob, SolveOptions(time_limit=2.5))
    assert res.nodes_explored == 2
    assert res.status is SolveStatus.FEASIBLE_LIMIT
    # the open sibling carries the root's LP value, below any incumbent
    assert res.best_bound == pytest.approx(relaxation_bound(prob), abs=1e-9)
    assert res.objective is None or res.best_bound < res.objective


def test_unbounded_milp():
    # a free column with negative cost; the one row only caps the binary
    prob = make_milp([-1.0, 0.0], [[0.0, 1.0]], [Relation.LE], [1.0],
                     [-np.inf, 0.0], [np.inf, 1.0], [False, True])
    res = solve(prob)
    assert res.status is SolveStatus.UNBOUNDED
    assert res.best_bound == -np.inf
    assert relaxation_bound(prob) == -np.inf


def test_infeasible_milp():
    prob = make_milp([1.0], [[1.0], [-1.0]], [Relation.LE, Relation.LE],
                     [0.2, -0.8], [0.0], [1.0], [True])  # 0.8 <= x <= 0.2
    assert solve(prob).status is SolveStatus.INFEASIBLE


def test_continuous_subset_stays_continuous():
    # one binary, one continuous; optimum needs the fractional part
    prob = make_milp([-1.0, -1.0], [[1.0, 1.0]], [Relation.LE], [1.5],
                     [0.0, 0.0], [1.0, 2.0], [True, False])
    res = solve(prob)
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(-1.5)
    assert res.point[0] == pytest.approx(round(res.point[0]), abs=1e-6)


def test_determinism_identical_reruns():
    prob = knapsack()
    a = solve(prob)
    b = solve(prob)
    assert a.nodes_explored == b.nodes_explored
    assert a.best_bound == b.best_bound
    np.testing.assert_array_equal(a.point, b.point)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=99_999))
def test_random_milps_match_scipy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    m = int(rng.integers(1, 5))
    is_int = rng.random(n) < 0.7
    prob = make_milp(
        np.round(rng.standard_normal(n), 3),
        np.round(rng.standard_normal((m, n)), 3),
        rng.choice([int(Relation.LE), int(Relation.EQ)], size=m,
                   p=[0.85, 0.15]),
        np.round(rng.standard_normal(m) + 1.0, 3),
        np.zeros(n),
        np.where(is_int, 1.0, float(rng.integers(1, 4))),
        is_int,
    )
    mine = solve(prob)
    ref = highs_milp(prob)
    if ref.status == 2:
        assert mine.status is SolveStatus.INFEASIBLE
    elif ref.status == 0:
        assert mine.status is SolveStatus.OPTIMAL
        assert mine.objective == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)


@pytest.mark.parametrize("variant", ["hull", "bigm"])
def test_node_lps_certify_optimality(lp_log, variant):
    # lp_log certifies every OPTIMAL node LP from its final basis
    prob = build_thermostat_mpc((20.5, 20.8, 19.5, 20.1), OFF, 5, variant=variant)
    solve(prob, SolveOptions(node_limit=40))
    assert sum(r.status is LpStatus.OPTIMAL for _, r in lp_log) >= 10


# exact results of two N=8 hull solves; the node-limited one stops with an
# open node below the incumbent (it first has one at node 20), the other
# closes the gap on a popped node
@pytest.mark.parametrize("x0, node_limit, expected", [
    ((21.14, 21.19, 20.27, 20.01), 32,
     (SolveStatus.FEASIBLE_LIMIT, 8841.97916655218, 6184.553458101736, 32,
      30.054647928860415)),
    ((20.5, 20.8, 19.5, 20.1), None,
     (SolveStatus.OPTIMAL, 9162.175608963877, 9162.175608963877, 65, 0.0)),
])
def test_exit_rule_pins(x0, node_limit, expected):
    res = solve(build_thermostat_mpc(x0, OFF, 8), SolveOptions(node_limit=node_limit))
    assert (res.status, res.objective, res.best_bound, res.nodes_explored,
            res.gap_percent) == expected


def test_nodes_start_from_parent_basis(monkeypatch):
    # every node LP but the root starts from its parent's optimal basis,
    # also after a pinned re-solve has moved the engine's basis. A pinned
    # re-solve fixes every binary inside the box of the node before it; a
    # node's parent is the one earlier node whose box holds its own and
    # differs from it in exactly one column
    calls = []
    real_solve = SimplexEngine.solve

    def solve_logged(self, lb=None, ub=None, warm=True):
        start = (self.basis.copy(), self.vstat.copy())
        res = real_solve(self, lb=lb, ub=ub, warm=warm)
        calls.append((lb.copy(), ub.copy(), start, (self.basis.copy(), self.vstat.copy())))
        return res

    monkeypatch.setattr(SimplexEngine, "solve", solve_logged)
    prob = build_thermostat_mpc((21.14, 21.19, 20.27, 20.01), OFF, 8)
    res = solve(prob, SolveOptions(node_limit=32))

    def pinned(lb, ub, prev):
        plb, pub = prev[:2]
        return (np.all(lb[prob.is_int] == ub[prob.is_int])
                and np.all((lb >= plb) & (ub <= pub))
                and np.count_nonzero((lb != plb) | (ub != pub)) > 1)

    nodes = [calls[0]] + [c for prev, c in zip(calls, calls[1:]) if not pinned(*c[:2], prev)]
    assert len(nodes) == res.nodes_explored == 32
    assert len(calls) > len(nodes)  # the run makes pinned re-solves
    for i, (lb, ub, start, _) in enumerate(nodes[1:], 1):
        parents = [end for plb, pub, _, end in nodes[:i]
                   if np.all((plb <= lb) & (ub <= pub))
                   and np.count_nonzero((plb != lb) | (pub != ub)) == 1]
        assert len(parents) == 1
        np.testing.assert_array_equal(start[0], parents[0][0])
        np.testing.assert_array_equal(start[1], parents[0][1])


def test_bigm_n10_pivot_count(lp_log):
    # starting each node from its parent's basis took this solve from
    # 10,540 pivots to 1,537; deterministic, so the cap is a hard one
    res = solve(build_thermostat_mpc((20.5, 20.8, 19.5, 20.1), OFF, 10, variant="gdp_bigm"))
    assert res.status is SolveStatus.OPTIMAL
    assert sum(r.iterations for _, r in lp_log) < 5000
