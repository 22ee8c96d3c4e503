"""Model layer: construction, validation, evaluation, brute force."""

import dataclasses
import math

import numpy as np
import pytest

from dmpc.bnb import SolveStatus
from dmpc.gdp import (
    BRUTE_FORCE_CAP,
    AffineExpr,
    CnfClause,
    Disjunct,
    Disjunction,
    GdpModel,
    IndicatorRef,
    LinConstraint,
    Variable,
    brute_force_solve,
    evaluate_assignment,
    selection_lp,
    validate,
)
from dmpc.milp import Relation
from dmpc.simplex import LpStatus, solve_lp

from conftest import two_box_model


def test_validate_clean_model():
    assert validate(two_box_model()) == []


def test_validate_flags_unbounded_variable():
    m = dataclasses.replace(
        two_box_model(), variables=(Variable("x", -np.inf, np.inf),)
    )
    assert any("bound" in p.lower() for p in validate(m))


def test_validate_flags_out_of_range_slot():
    bad = LinConstraint(AffineExpr.of({5: 1.0}))
    m = two_box_model(extra_global=(bad,))
    assert validate(m) != []


def _with(**changes):
    return dataclasses.replace(two_box_model(), **changes)


def _disjunction(*disjuncts):
    return (Disjunction(tuple(disjuncts)),)


def _clause(*refs):
    return (CnfClause(tuple((IndicatorRef(d, i), True) for d, i in refs)),)


# one malformed model per diagnostic of validate, in the order it checks
@pytest.mark.parametrize("model, message", [
    (_with(variables=(Variable("x", -math.inf, 10.0),)),
     "variable 'x' (index 0): unbounded variable forbids hull reformulation"),
    (_with(variables=(Variable("x", 5.0, 1.0),)),
     "variable 'x' (index 0): lower bound above upper"),
    (_with(objective=AffineExpr(((3, 1.0),))),
     "objective: undeclared variable index 3 of 1"),
    (_with(objective=AffineExpr(((0, 1.0), (0, 2.0)))),
     "objective: variable index 0 appears twice"),
    (two_box_model(extra_global=(LinConstraint(AffineExpr(((0, math.nan),))),)),
     "global constraint 0: non-finite coefficient on index 0"),
    (_with(disjunctions=_disjunction(
        Disjunct("low", (LinConstraint(AffineExpr.of({0: 1.0}, -1.0)),
                         LinConstraint(AffineExpr(((0, 1.0),), math.inf)))),
        Disjunct("high"))),
     "disjunction 0, disjunct 0, row 1: non-finite constant"),
    (_with(disjunctions=two_box_model().disjunctions + (Disjunction(()),)),
     "disjunction 1: empty"),
    (_with(disjunctions=_disjunction(Disjunct("a"), Disjunct("a"))),
     "disjunction 0: duplicate indicator names"),
    (_with(disjunctions=_disjunction(Disjunct("low", fixed_cost=math.inf),
                                     Disjunct("high"))),
     "disjunction 0, disjunct 0: non-finite fixed cost"),
    (_with(propositions=(CnfClause(()),)),
     "proposition 0: empty clause"),
    (_with(propositions=_clause((0, 1), (0, 1))),
     "proposition 0: duplicate literal IndicatorRef(disjunction=0, disjunct=1)"),
    (_with(propositions=_clause((3, 0))),
     "proposition 0: unknown disjunction 3"),
    (_with(propositions=_clause((0, 5))),
     "proposition 0: unknown disjunct 5 in disjunction 0"),
    (_with(objective=AffineExpr(((0.5, 1.0),))),
     "objective: variable index 0.5 is not an integer"),
])
def test_validate_names_each_defect(model, message):
    assert validate(model) == [message]


def test_validate_lists_every_defect_in_model_order():
    # one array pass finds the defects and the per-expression loop writes
    # their messages: the list is the one the loop alone always wrote
    nan, inf = math.nan, math.inf
    model = GdpModel(
        variables=(Variable("x", 0.0, 10.0), Variable("w", -inf, 1.0), Variable("v", 3.0, 2.0)),
        objective=AffineExpr(((0, 1.0), (4, 2.0), (0, 0.5)), inf),
        global_constraints=(
            LinConstraint(AffineExpr(((0, 1.0),), -1.0)),
            LinConstraint(AffineExpr(((1, nan), (-1, 1.0)), 0.0), Relation.GE),
        ),
        disjunctions=(
            Disjunction((
                Disjunct("a", (LinConstraint(AffineExpr(((2, 1.0), (2, inf)), 1.0)),), nan),
                Disjunct("a", (LinConstraint(AffineExpr(((0, 1.0),))),
                               LinConstraint(AffineExpr(((3, 1.0), (1, 1.0)), nan), Relation.EQ))),
            )),
            Disjunction(()),
            Disjunction((Disjunct("c"), Disjunct("d", fixed_cost=-inf))),
        ),
        propositions=(
            CnfClause(()),
            CnfClause(((IndicatorRef(0, 1), True), (IndicatorRef(0, 1), False))),
            CnfClause(((IndicatorRef(5, 0), True), (IndicatorRef(2, 7), False),
                       (IndicatorRef(-1, 0), True))),
        ),
    )
    assert validate(model) == [
        "variable 'w' (index 1): unbounded variable forbids hull reformulation",
        "variable 'v' (index 2): lower bound above upper",
        "objective: undeclared variable index 4 of 3",
        "objective: variable index 0 appears twice",
        "objective: non-finite constant",
        "global constraint 1: non-finite coefficient on index 1",
        "global constraint 1: undeclared variable index -1 of 3",
        "disjunction 0: duplicate indicator names",
        "disjunction 0, disjunct 0: non-finite fixed cost",
        "disjunction 0, disjunct 0, row 0: variable index 2 appears twice",
        "disjunction 0, disjunct 0, row 0: non-finite coefficient on index 2",
        "disjunction 0, disjunct 1, row 1: undeclared variable index 3 of 3",
        "disjunction 0, disjunct 1, row 1: non-finite constant",
        "disjunction 1: empty",
        "disjunction 2, disjunct 1: non-finite fixed cost",
        "proposition 0: empty clause",
        "proposition 1: duplicate literal IndicatorRef(disjunction=0, disjunct=1)",
        "proposition 2: unknown disjunction 5",
        "proposition 2: unknown disjunct 7 in disjunction 2",
        "proposition 2: unknown disjunction -1",
    ]


# each model accepts one (selection, point) and rejects another, for the one
# reason named
@pytest.mark.parametrize("model, accepted, rejected", [
    # outside the box [0, 10], though inside the low disjunct's x <= 1
    (two_box_model(), ((0,), 0.5), ((0,), -1.0)),
    # a violated global GE row, x >= 0.5
    (two_box_model(extra_global=(
        LinConstraint(AffineExpr.of({0: 1.0}, -0.5), Relation.GE),)),
     ((0,), 0.5), ((0,), 0.2)),
    # a violated global EQ row, x = 0.7
    (two_box_model(extra_global=(
        LinConstraint(AffineExpr.of({0: 1.0}, -0.7), Relation.EQ),)),
     ((0,), 0.7), ((0,), 0.2)),
    # a violated clause: the high disjunct must be selected
    (_with(propositions=_clause((0, 1))), ((1,), 4.5), ((0,), 0.5)),
])
def test_evaluate_assignment_rejections(model, accepted, rejected):
    selection, x = accepted
    assert evaluate_assignment(model, selection, np.array([x])).feasible
    selection, x = rejected
    res = evaluate_assignment(model, selection, np.array([x]))
    assert not res.feasible and res.objective is None


def test_evaluate_assignment_uses_selected_constraints():
    m = two_box_model()
    ok = evaluate_assignment(m, (0,), np.array([0.5]))
    assert ok.feasible
    assert ok.objective == pytest.approx(0.5 + 1.0)
    # same point fails under the high box
    assert not evaluate_assignment(m, (1,), np.array([0.5])).feasible


def test_brute_force_picks_cheaper_disjunct():
    res = brute_force_solve(two_box_model())
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(1.0)  # x = 0 plus fixed cost 1
    assert res.selection == (0,)


def test_brute_force_respects_fixed_costs():
    # low box expensive enough that the high box wins despite larger x
    res = brute_force_solve(two_box_model(costs=(10.0, 3.0)))
    assert res.objective == pytest.approx(4.0 + 3.0)
    assert res.selection == (1,)


def test_brute_force_honours_propositions():
    m = two_box_model()
    # clause satisfied only when the low disjunct is NOT selected
    veto = CnfClause(literals=((IndicatorRef(0, 0), False),))
    m = dataclasses.replace(m, propositions=(veto,))
    res = brute_force_solve(m)
    assert res.selection == (1,)


def test_brute_force_refuses_more_selections_than_its_cap():
    k = BRUTE_FORCE_CAP.bit_length()  # 2**k > BRUTE_FORCE_CAP
    m = _with(disjunctions=two_box_model().disjunctions * k)
    with pytest.raises(ValueError, match=f"{2**k} selection combinations exceed cap"):
        brute_force_solve(m)


def test_selection_lp_restricts_to_chosen_disjunct():
    lp = selection_lp(two_box_model(), (1,))
    res = solve_lp(lp)
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(4.0 + 3.0)


def test_infeasible_selection_vs_whole_model():
    # global cap x <= 0.5 kills the high box but not the low one
    cap = LinConstraint(AffineExpr.of({0: 1.0}, -0.5))
    m = two_box_model(extra_global=(cap,))
    res = solve_lp(selection_lp(m, (1,)))
    assert res.status is LpStatus.INFEASIBLE
    full = brute_force_solve(m)
    assert full.status is SolveStatus.OPTIMAL
    assert full.selection == (0,)


def test_brute_force_reports_infeasible_model():
    # cap below both boxes' reach is impossible under either disjunct
    cap = LinConstraint(AffineExpr.of({0: -1.0}, 2.0), Relation.LE)  # x >= 2
    cap2 = LinConstraint(AffineExpr.of({0: 1.0}, -3.0))              # x <= 3
    m = two_box_model(extra_global=(cap, cap2))
    res = brute_force_solve(m)
    assert res.status is SolveStatus.INFEASIBLE
    assert res.objective is None


def test_cnf_clause_satisfied():
    cl = CnfClause(literals=((IndicatorRef(0, 0), True),
                             (IndicatorRef(1, 1), False)))
    assert cl.satisfied((0, 0))
    assert cl.satisfied((1, 0))
    assert not cl.satisfied((1, 1))


def test_affine_expr_merges_and_drops_zeros():
    e = AffineExpr.of({0: 1.0, 1: 0.0, 2: -2.0}, 5.0)
    assert e.terms == ((0, 1.0), (2, -2.0))
    with pytest.raises(TypeError):
        AffineExpr.of({2: 1.0, 2.5: 2.0})  # would lose a coefficient
    assert e.evaluate(np.array([1.0, 99.0, 0.5])) == pytest.approx(5.0)
