"""The array lowerings against the per-row oracle, byte for byte.

``lowering_reference`` keeps ``to_hull`` and ``to_bigm`` as they were when
they lowered one row at a time. Under the hull, big-M with a fixed M and
big-M with M from the bounds, every model here must lower to the same
arrays, labels, constant and bound-site record under both: random models,
random models with a pinned variable, the thermostat, and hand-made edge
cases. The thermostat at N = 120 and 200 is marked ``slow``.
"""

import numpy as np
import pytest

import lowering_reference as reference
from dmpc.gdp import (
    AffineExpr,
    CnfClause,
    Disjunct,
    Disjunction,
    GdpModel,
    IndicatorRef,
    LinConstraint,
    Variable,
)
from dmpc.instances import random_gdp
from dmpc.milp import Relation
from dmpc.reformulate import BigMStrategy, to_bigm, to_hull
from dmpc.thermostat import OFF, ON, build_thermostat_gdp

from conftest import assert_same_lowering
from test_reformulate import with_pinned_variable

LOWERINGS = {
    "hull": (to_hull, reference.to_hull),
    "bigm_fixed": (lambda m: to_bigm(m, BigMStrategy.fixed(1e4)),
                   lambda m: reference.to_bigm(m, BigMStrategy.fixed(1e4))),
    "bigm_bounds": (lambda m: to_bigm(m, BigMStrategy.from_bounds()),
                    lambda m: reference.to_bigm(m, BigMStrategy.from_bounds())),
}


def assert_lowers_as_reference(model, lowering):
    lower, oracle = LOWERINGS[lowering]
    assert_same_lowering(lower(model), oracle(model))


@pytest.mark.parametrize("lowering", LOWERINGS)
def test_random_models(lowering):
    for seed in range(150):
        assert_lowers_as_reference(random_gdp(np.random.default_rng(seed)), lowering)


@pytest.mark.parametrize("lowering", LOWERINGS)
def test_random_models_with_a_pinned_variable(lowering):
    for seed in range(40):
        model = random_gdp(np.random.default_rng(seed))
        for split in (False, True):
            pinned = with_pinned_variable(model, np.random.default_rng([seed, 1]), split)
            assert_lowers_as_reference(pinned, lowering)


@pytest.mark.parametrize("lowering", LOWERINGS)
@pytest.mark.parametrize("s0", [OFF, ON])
@pytest.mark.parametrize("N", [1, 3, 10, 30, pytest.param(120, marks=pytest.mark.slow),
                               pytest.param(200, marks=pytest.mark.slow)])
def test_thermostat(N, s0, lowering):
    model = build_thermostat_gdp(np.array([20.5, 20.8, 19.5, 20.1]), s0, N)
    assert_lowers_as_reference(model, lowering)


def edge_model(disjuncts, variables=None, propositions=()):
    """Over x in [-2, 3], y in [0, 5], z in [0, 0] and p in [1, 2], with one
    global row, the disjunction ``disjuncts`` and a two-box disjunction."""
    variables = variables or (Variable("x", -2.0, 3.0), Variable("y", 0.0, 5.0),
                              Variable("z", 0.0, 0.0), Variable("p", 1.0, 2.0))
    return GdpModel(
        variables=variables,
        objective=AffineExpr(((1, 1.0), (0, -0.5)), 2.0),
        global_constraints=(
            LinConstraint(AffineExpr(((2, 1.0), (1, 1.0), (0, 1.0)), -6.0), Relation.GE),),
        disjunctions=(
            Disjunction(tuple(disjuncts)),
            Disjunction((
                Disjunct("low", (LinConstraint(AffineExpr(((0, 1.0),), -1.0)),), 1.0),
                Disjunct("high", (LinConstraint(AffineExpr(((0, -1.0),), 2.0)),), 3.0),
            )),
        ),
        propositions=tuple(propositions),
    )


def pin(j, a, value):
    """The single-term equation ``a v_j - a value = 0``."""
    return LinConstraint(AffineExpr(((j, a),), -a * value), Relation.EQ)


EDGE_MODELS = {
    # terms out of column order: the big-M constant from the box sums in
    # the order the row lists them
    "unsorted terms": edge_model([
        Disjunct("a", (LinConstraint(AffineExpr(((1, 0.7), (0, -1.3)), 0.1)),
                       LinConstraint(AffineExpr(((3, 2.0), (1, -1.0), (0, 0.3)), -0.2),
                                     Relation.GE))),
        Disjunct("b", (LinConstraint(AffineExpr(((3, -1.0), (0, 1.1)), 0.4), Relation.EQ),)),
    ]),
    "empty disjunct": edge_model([
        Disjunct("idle"),
        Disjunct("a", (LinConstraint(AffineExpr(((0, 1.0), (1, 1.0)), -4.0)),), 0.5),
    ]),
    # no bound row on either side of z's copies
    "fixed at zero": edge_model([
        Disjunct("a", (LinConstraint(AffineExpr(((1, 1.0), (2, 2.0)), -4.0)),)),
        Disjunct("b", (LinConstraint(AffineExpr(((2, -1.0), (0, 1.0)), 1.0), Relation.GE),)),
    ]),
    # p pinned at 1.5, 4 and 0: the last two indicators are fixed at 0
    "pinned out of the box": edge_model([
        Disjunct("a", (pin(3, 1.0, 1.5), LinConstraint(AffineExpr(((0, 1.0),), -1.0)))),
        Disjunct("b", (pin(3, -2.0, 4.0),)),
        Disjunct("c", (pin(3, 0.5, 0.0), LinConstraint(AffineExpr(((1, 1.0),), -2.0)))),
    ]),
    # s[0,1] is fixed at 0 by its pin, so the unit clause forcing it is out
    # of range and stays a row; the clause against s[1,0] becomes a bound
    "out-of-range unit clause": edge_model(
        [Disjunct("a", (pin(3, 1.0, 1.0),)), Disjunct("b", (pin(3, 1.0, 9.0),))],
        propositions=[CnfClause(((IndicatorRef(0, 1), True),)),
                      CnfClause(((IndicatorRef(1, 0), False),)),
                      CnfClause(((IndicatorRef(0, 0), True), (IndicatorRef(1, 1), False)))],
    ),
}


@pytest.mark.parametrize("lowering", LOWERINGS)
@pytest.mark.parametrize("name", EDGE_MODELS)
def test_edge_models(name, lowering):
    assert_lowers_as_reference(EDGE_MODELS[name], lowering)
