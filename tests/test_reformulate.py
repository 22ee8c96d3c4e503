"""Big-M and hull reformulations against the brute-force oracle."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmpc.bnb import SolveStatus, relaxation_bound, solve
from dmpc.gdp import (
    AffineExpr,
    Disjunction,
    LinConstraint,
    Variable,
    brute_force_solve,
)
from dmpc.instances import random_gdp
from dmpc.milp import Relation
from dmpc.reformulate import (
    BigMStrategy,
    cnf_to_linear,
    indicator_columns,
    selection_from_point,
    to_bigm,
    to_hull,
)
from dmpc.simplex import LpResult, LpStatus
from dmpc.thermostat import OFF, ON, build_thermostat_gdp, build_thermostat_mpc

from conftest import scipy_reference, two_box_model


def test_bigm_solves_two_box():
    res = solve(to_bigm(two_box_model()))
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(1.0, abs=1e-8)


def test_hull_solves_two_box():
    res = solve(to_hull(two_box_model()))
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(1.0, abs=1e-8)


def test_hull_root_at_least_bigm_root():
    m = two_box_model()
    hull_root = relaxation_bound(to_hull(m))
    bigm_root = relaxation_bound(to_bigm(m, BigMStrategy.fixed(1e4)))
    assert hull_root >= bigm_root - 1e-9 * max(1.0, abs(bigm_root))


def test_indicator_columns_cover_all_disjuncts():
    prob = to_hull(two_box_model())
    cols = indicator_columns(prob)
    assert len(cols) == 2
    assert {ref.disjunction for ref in cols} == {0}
    for col in cols.values():
        assert prob.is_int[col]


def test_selection_from_point_reads_binaries():
    prob = to_bigm(two_box_model())
    res = solve(prob)
    assert selection_from_point(prob, res.point) == (0,)
    assert selection_from_point(prob, res.point) == brute_force_solve(
        two_box_model()).selection


def test_cnf_rows_cut_off_forbidden_selection():
    from dmpc.gdp import CnfClause, IndicatorRef

    clause = CnfClause(literals=((IndicatorRef(0, 0), False),))
    cols = {IndicatorRef(0, 0): 3, IndicatorRef(0, 1): 4}
    rows = cnf_to_linear([clause], cols)
    assert len(rows) == 1
    coeffs, rhs = rows[0]
    # not-s[0,0]: (1 - s3) >= 1, normalized as s3 <= 0
    s = np.zeros(5)
    s[3] = 1.0
    assert sum(c * s[j] for j, c in coeffs.items()) > rhs + 1e-12
    s[3] = 0.0
    assert sum(c * s[j] for j, c in coeffs.items()) <= rhs + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_reformulations_match_oracle(seed):
    model = random_gdp(np.random.default_rng(seed))
    ref = brute_force_solve(model)
    for reform in (to_bigm, to_hull):
        res = solve(reform(model))
        if ref.status is SolveStatus.INFEASIBLE:
            assert res.status is SolveStatus.INFEASIBLE
        else:
            assert res.status is SolveStatus.OPTIMAL
            assert res.objective == pytest.approx(ref.objective, abs=1e-6)


def highs_lp(problem) -> LpResult:
    """``brute_force_solve``'s LP callback on scipy's HiGHS, so the oracle
    shares no code with the simplex under test."""
    res = scipy_reference(problem)
    if res.status != 0:
        status = {2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}.get(
            res.status, LpStatus.ITERATION_LIMIT)
        return LpResult(status, None, None, res.nit)
    # selection_lp carries the selected disjuncts' fixed costs in obj_const
    return LpResult(LpStatus.OPTIMAL, res.x, res.fun + problem.obj_const,
                    res.nit)


def test_reformulations_match_highs_oracle():
    rng = np.random.default_rng(2001)
    mismatches, feasible = [], 0
    for idx in range(60):
        model = random_gdp(rng)
        ref = brute_force_solve(model, lp=highs_lp)
        feasible += ref.status is SolveStatus.OPTIMAL
        for reform in (to_bigm, to_hull):
            res = solve(reform(model))
            if ref.status is SolveStatus.INFEASIBLE:
                ok = res.status is SolveStatus.INFEASIBLE
            else:
                ok = (res.status is SolveStatus.OPTIMAL
                      and abs(res.objective - ref.objective) <= 1e-6)
            if not ok:
                mismatches.append((idx, reform.__name__, ref.objective,
                                   res.objective))
    assert mismatches == []
    assert feasible >= 30  # the comparison is mostly about optima


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_hull_never_weaker_at_the_root(seed):
    model = random_gdp(np.random.default_rng(seed))
    hull_root = relaxation_bound(to_hull(model))
    bigm_root = relaxation_bound(to_bigm(model, BigMStrategy.fixed(1e4)))
    if np.isfinite(hull_root) and np.isfinite(bigm_root):
        assert hull_root >= bigm_root - 1e-9 * max(1.0, abs(bigm_root))


def test_hull_disaggregated_point_recovers_selection():
    model = two_box_model(costs=(10.0, 3.0))
    prob = to_hull(model)
    res = solve(prob)
    assert res.status is SolveStatus.OPTIMAL
    assert selection_from_point(prob, res.point) == (1,)


def with_pinned_variable(model, rng, split: bool):
    """``model`` plus a variable ``p`` that each disjunct of disjunction 0
    pins by one row ``a p + k = 0``, some pins outside ``p``'s box.

    ``split`` writes each pin as an LE row and a GE row instead, which the
    hull lowering cannot fold, so it disaggregates ``p`` as it does any
    other variable.
    """
    j = model.n_vars
    lo = float(np.round(rng.uniform(-3.0, 0.0), 2))
    hi = lo + float(np.round(rng.uniform(1.0, 4.0), 2))
    dis = model.disjunctions[0]
    disjuncts = []
    for dj in dis.disjuncts:
        a = float(rng.choice([1.0, -2.0, 0.5]))
        pin = float(np.round(rng.uniform(lo - 1.0, hi + 1.0), 2))
        expr = AffineExpr.of({j: a}, -a * pin)
        rows = ((LinConstraint(expr, Relation.LE), LinConstraint(expr, Relation.GE))
                if split else (LinConstraint(expr, Relation.EQ),))
        disjuncts.append(dataclasses.replace(
            dj, local_constraints=dj.local_constraints + rows))
    # couple p to the model: it is priced and shares a global row with v0
    w = float(np.round(rng.uniform(-1.0, 1.0), 2))
    objective = dict(model.objective.terms)
    objective[j] = float(np.round(rng.uniform(-2.0, 2.0), 2))
    lb0 = model.variables[0].lb
    coupling = LinConstraint(
        AffineExpr.of({0: 1.0, j: w}, -(lb0 + abs(w) * max(abs(lo), abs(hi)))))
    return dataclasses.replace(
        model,
        variables=model.variables + (Variable("p", lo, hi),),
        objective=AffineExpr.of(objective, model.objective.constant),
        global_constraints=model.global_constraints + (coupling,),
        disjunctions=(Disjunction(tuple(disjuncts)),) + model.disjunctions[1:],
    )


def test_pinned_variable_hull_matches_disaggregated_hull():
    out_of_box = 0
    for seed in range(60):
        model = random_gdp(np.random.default_rng(seed))
        pinned = with_pinned_variable(model, np.random.default_rng([seed, 1]), False)
        compact = to_hull(pinned)
        full = to_hull(with_pinned_variable(model, np.random.default_rng([seed, 1]), True))
        assert compact.n_vars < full.n_vars
        out_of_box += int(np.sum(compact.ub[compact.is_int] == 0.0))
        root, ref_root = relaxation_bound(compact), relaxation_bound(full)
        if math.isfinite(ref_root):
            assert abs(root - ref_root) <= 1e-9 * max(1.0, abs(ref_root))
        else:
            assert root == ref_root
        ref = brute_force_solve(pinned)
        res = solve(compact)
        if ref.status is SolveStatus.INFEASIBLE:
            assert res.status is SolveStatus.INFEASIBLE
        else:
            assert res.status is SolveStatus.OPTIMAL
            assert res.objective == pytest.approx(ref.objective, abs=1e-6)
    assert out_of_box > 0  # some pins fell outside the box and fixed s_i = 0


def test_thermostat_hull_has_no_heat_input_copies():
    prob = build_thermostat_mpc((20.5, 20.8, 19.5, 20.1), OFF, 10)
    assert prob.A.shape == (275, 195)
    assert not [label for label in prob.labels
                if label.startswith("u[") and "@d" in label]


def _lowering_digest() -> str:
    """sha256 over every array (bytes and shape), ``obj_const``, ``labels``
    and ``row_labels`` of 924 lowerings: 300 random models and the N = 1,
    3, 10, 30 thermostat at both relay states, each under hull, fixed
    big-M and from-bounds big-M."""
    h = hashlib.sha256()
    rng = np.random.default_rng(924)
    models = [random_gdp(rng) for _ in range(300)]
    models += [build_thermostat_gdp(np.array([20.5, 20.8, 19.5, 20.1]), s0, N)
               for N in (1, 3, 10, 30) for s0 in (OFF, ON)]
    for model in models:
        for prob in (to_hull(model), to_bigm(model, BigMStrategy.fixed(1e4)),
                     to_bigm(model, BigMStrategy.from_bounds())):
            for arr in (prob.c, prob.A, prob.relations, prob.b, prob.lb,
                        prob.ub, prob.is_int):
                h.update(repr((arr.dtype.str, arr.shape)).encode())
                h.update(np.ascontiguousarray(arr).tobytes())
            h.update(repr((prob.obj_const, prob.labels,
                           prob.row_labels)).encode())
    return h.hexdigest()


# recorded before `_lower` became the one owner of the columns; a refactor
# of the lowerings that leaves every model alone keeps it
LOWERING_SHA256 = "059d9bc987b0f560e2db231be9e9e3421b78093362d1c97ba9f826f99b2c472e"


def test_lowerings_pin():
    assert _lowering_digest() == LOWERING_SHA256
