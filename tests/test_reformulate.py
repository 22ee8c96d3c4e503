"""Big-M and hull reformulations against the brute-force oracle."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmpc.bnb import SolveStatus, relaxation_bound, solve
from dmpc.cli import highs
from dmpc.gdp import (
    AffineExpr,
    CnfClause,
    Disjunct,
    Disjunction,
    GdpModel,
    IndicatorRef,
    LinConstraint,
    Variable,
    brute_force_solve,
    validate,
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
from dmpc.thermostat import (
    OFF,
    ON,
    OPERATING_MODES,
    build_thermostat_gdp,
    build_thermostat_mpc,
)

from conftest import assert_same_lowering, relaxed, two_box_model


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


def test_unit_clauses_lower_to_indicator_bounds():
    # three copies of the two-box disjunction; s[0,1] is ruled out, s[1,0]
    # forced, and one two-literal clause couples s[2,0] and s[0,0]
    base = two_box_model()
    model = dataclasses.replace(
        base,
        disjunctions=base.disjunctions * 3,
        propositions=(
            CnfClause(((IndicatorRef(0, 1), False),)),
            CnfClause(((IndicatorRef(1, 0), True),)),
            CnfClause(((IndicatorRef(2, 0), True), (IndicatorRef(0, 0), False))),
        ),
    )
    for prob in (to_bigm(model), to_hull(model)):
        cols = indicator_columns(prob)
        assert prob.ub[cols[IndicatorRef(0, 1)]] == 0.0
        assert prob.lb[cols[IndicatorRef(1, 0)]] == 1.0
        untouched = [c for ref, c in cols.items()
                     if ref not in (IndicatorRef(0, 1), IndicatorRef(1, 0))]
        assert np.all(prob.lb[untouched] == 0.0) and np.all(prob.ub[untouched] == 1.0)
        cnf = [i for i, label in enumerate(prob.row_labels) if label.startswith("cnf")]
        assert [prob.row_labels[i] for i in cnf] == ["cnf[0]"]
        (coeffs, rhs), = cnf_to_linear(model.propositions[2:], cols)
        want = np.zeros(prob.n_vars)
        want[list(coeffs)] = list(coeffs.values())
        np.testing.assert_array_equal(prob.A[cnf[0]], want)
        assert prob.b[cnf[0]] == rhs and prob.relations[cnf[0]] == Relation.LE
        assert solve(prob).objective == pytest.approx(brute_force_solve(model).objective)


def test_contradicted_unit_clause_stays_a_row():
    # s[0,1] and not s[0,1]: the second clause cannot become a bound, so the
    # MILP stays valid and is infeasible, as the model is
    model = dataclasses.replace(two_box_model(), propositions=(
        CnfClause(((IndicatorRef(0, 1), False),)),
        CnfClause(((IndicatorRef(0, 1), True),)),
    ))
    assert brute_force_solve(model).status is SolveStatus.INFEASIBLE
    for prob in (to_bigm(model), to_hull(model)):
        assert prob.validate() == []
        assert prob.row_labels[-1] == "cnf[0]"
        assert solve(prob).status is SolveStatus.INFEASIBLE


@pytest.mark.parametrize("M", [math.inf, math.nan, 0.0, -1.0])
def test_fixed_bigm_must_be_finite_and_positive(M):
    # M = inf lowered to rows that the MILP's own validate() rejects
    with pytest.raises(ValueError, match="finite M > 0"):
        BigMStrategy.fixed(M)


@pytest.mark.parametrize("variant", ["hull", "bigm"])
def test_relay_bounds_keep_the_root_bound(variant):
    # the relay state as ub = 0 on the two ruled-out modes relaxes to the
    # same LP as the clause row over the two admitted modes that it replaced
    for N in (5, 10, 30):
        for s0 in (OFF, ON):
            for x0 in ((20.5, 20.8, 19.5, 20.1), (21.14, 21.19, 20.27, 20.01)):
                prob = build_thermostat_mpc(x0, s0, N, variant=variant)
                cols = indicator_columns(prob)
                admitted = [cols[IndicatorRef(0, i)] for i, mode in enumerate(OPERATING_MODES)
                            if mode.s_now == s0]
                barred = [cols[IndicatorRef(0, i)] for i, mode in enumerate(OPERATING_MODES)
                          if mode.s_now != s0]
                assert np.all(prob.ub[barred] == 0.0)
                row = np.zeros(prob.n_vars)
                row[admitted] = -1.0  # s + s' >= 1
                ub = prob.ub.copy()
                ub[barred] = 1.0
                old = dataclasses.replace(
                    prob, A=np.vstack([prob.A, row]), b=np.append(prob.b, -1.0),
                    relations=np.append(prob.relations, Relation.LE), ub=ub,
                    row_labels=prob.row_labels + ["cnf[0]"])
                got, want = highs(relaxed(prob)).objective, highs(relaxed(old)).objective
                assert abs(got - want) <= 1e-12 * abs(want)


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


def test_reformulations_match_highs_oracle():
    rng = np.random.default_rng(2001)
    mismatches, feasible = [], 0
    for idx in range(60):
        model = random_gdp(rng)
        ref = brute_force_solve(model, lp=highs)
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


def zero_term_model(a_rows):
    """x, y in [0, 5]; disjunct ``a`` has the rows ``a_rows`` and ``b`` the
    one row ``x >= 2``, so no nonzero term of the disjunction names y."""
    return GdpModel(
        variables=(Variable("x", 0.0, 5.0), Variable("y", 0.0, 5.0)),
        objective=AffineExpr.of({0: 1.0, 1: 1.0}),
        disjunctions=(Disjunction((
            Disjunct("a", tuple(a_rows)),
            Disjunct("b", (LinConstraint(AffineExpr.of({0: -1.0}, 2.0)),)),
        )),),
    )


@pytest.mark.parametrize("relation", [Relation.LE, Relation.GE, Relation.EQ])
@pytest.mark.parametrize("lower", [
    to_hull,
    lambda m: to_bigm(m, BigMStrategy.fixed(1e4)),
    lambda m: to_bigm(m, BigMStrategy.from_bounds()),
], ids=["hull", "bigm_fixed", "bigm_bounds"])
def test_explicit_zero_coefficients_lower_as_absent(lower, relation):
    # a 0.0 coefficient on y, which validate accepts, lowers as AffineExpr.of
    # leaves it: absent (the hull once raised KeyError on it)
    terms = ((0, 1.0), (1, 0.0))
    model = zero_term_model([LinConstraint(AffineExpr(terms, -1.0), relation)])
    rebuilt = zero_term_model([LinConstraint(AffineExpr.of(dict(terms), -1.0), relation)])
    assert validate(model) == []
    assert rebuilt.disjunctions[0].disjuncts[0].local_constraints[0].expr.terms == ((0, 1.0),)
    assert_same_lowering(lower(model), lower(rebuilt))


def test_thermostat_hull_has_no_heat_input_copies():
    prob = build_thermostat_mpc((20.5, 20.8, 19.5, 20.1), OFF, 10)
    assert prob.A.shape == (274, 195)
    assert not [label for label in prob.labels
                if label.startswith("u[") and "@d" in label]


@pytest.fixture(scope="module")
def lowering_digests() -> dict:
    """sha256 over every array (bytes and shape), ``obj_const``, ``labels``
    and ``row_labels`` of 924 lowerings: 300 random models and the N = 1,
    3, 10, 30 thermostat at both relay states, each under hull, fixed
    big-M and from-bounds big-M; and the same over the random models'
    900 alone."""
    h = hashlib.sha256()
    rng = np.random.default_rng(924)
    models = [random_gdp(rng) for _ in range(300)]
    models += [build_thermostat_gdp(np.array([20.5, 20.8, 19.5, 20.1]), s0, N)
               for N in (1, 3, 10, 30) for s0 in (OFF, ON)]
    digests = {}
    for k, model in enumerate(models):
        if k == 300:
            digests["random"] = h.hexdigest()
        for prob in (to_hull(model), to_bigm(model, BigMStrategy.fixed(1e4)),
                     to_bigm(model, BigMStrategy.from_bounds())):
            for arr in (prob.c, prob.A, prob.relations, prob.b, prob.lb,
                        prob.ub, prob.is_int):
                h.update(repr((arr.dtype.str, arr.shape)).encode())
                h.update(np.ascontiguousarray(arr).tobytes())
            h.update(repr((prob.obj_const, prob.labels,
                           prob.row_labels)).encode())
    digests["all"] = h.hexdigest()
    return digests


# recorded when the relay state became indicator bounds; a refactor of the
# lowerings that leaves every model alone keeps it
LOWERING_SHA256 = "9b3b37028625be701e48adbd5059dd613c8ad461f6c1c575a75406b4709a7aa0"
# the random models alone, unchanged since before `_lower` became the one
# owner of the columns: they have no unit clauses
RANDOM_LOWERING_SHA256 = "08d0582fc9845ae3dc4c6b6d9d36cc99564c9737f3c8d8864ab35768310ca2b4"


def test_lowerings_pin(lowering_digests):
    assert lowering_digests["all"] == LOWERING_SHA256


def test_random_lowerings_pin(lowering_digests):
    assert lowering_digests["random"] == RANDOM_LOWERING_SHA256
