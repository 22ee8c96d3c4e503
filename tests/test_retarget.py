"""Re-targeted lowerings against fresh ones, array for array.

``build_thermostat_mpc`` keeps each structure's lowering and re-targets it
to a new x0 through ``reformulate.retarget``. Every case here compares its
output with a fresh ``to_hull``/``to_bigm`` of ``build_thermostat_gdp``'s
model, bit for bit. The grid is N in {1, 5, 10, 30, 60} x both lowerings x
both relay states x default and custom (params, building, M); three of its
points run in tier-1, the rest are marked ``slow``.
"""

import dataclasses
import io
import itertools
import math

import numpy as np
import pytest

import dmpc.thermostat as thermostat
from dmpc.gdp import Variable
from dmpc.instances import random_gdp
from dmpc.mps import export_mps, read_mps
from dmpc.reformulate import BigMStrategy, retarget, to_bigm, to_hull
from dmpc.thermostat import (
    OFF,
    ON,
    TEMP_MAX,
    BuildingModel,
    ThermostatParams,
    build_thermostat_gdp,
    build_thermostat_mpc,
    default_building,
)

from conftest import assert_same_lowering

CUSTOM = {
    "params": ThermostatParams(T_set=20.0, theta=0.5, gamma=0.75, u_max=3000.0,
                               alpha=2.0, beta=5e4),
    "building": BuildingModel(default_building().A * 0.999,
                              default_building().B * 1.5),
    "M": 5e3,
}


def fresh(x0, s0, N, variant, params=None, building=None, M=1e4):
    model = build_thermostat_gdp(x0, s0, N, params, building)
    return to_hull(model) if variant == "gdp_hull" else to_bigm(model, BigMStrategy.fixed(M))


@pytest.fixture
def lowerings(monkeypatch):
    """An empty store, and the list of lowerings build_thermostat_mpc runs."""
    monkeypatch.setattr(thermostat, "_lowered", None)
    calls = []
    for name in ("to_hull", "to_bigm"):
        original = getattr(thermostat, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(_original.__name__)
            return _original(*args, **kwargs)

        monkeypatch.setattr(thermostat, name, counted)
    return calls


def x0_sequence(seed):
    """Random states, then the edges: x0[3] = 0 and back, TEMP_MAX entries."""
    rng = np.random.default_rng(seed)
    xs = [rng.uniform(0.0, TEMP_MAX, 4) for _ in range(3)]
    xs.append(np.array([xs[0][0], 21.0, 19.5, 0.0]))
    xs.append(np.array([xs[1][0], 20.0, 0.0, 0.0]))
    xs.append(np.array([TEMP_MAX, 20.5, TEMP_MAX, TEMP_MAX]))
    xs.append(rng.uniform(19.0, 23.0, 4))
    return xs


TIER1 = {(5, "gdp_hull", OFF, True), (10, "gdp_bigm", ON, False),
         (1, "gdp_hull", ON, False)}
GRID = [
    pytest.param(*case, marks=() if case in TIER1 else pytest.mark.slow)
    for case in itertools.product((1, 5, 10, 30, 60), ("gdp_hull", "gdp_bigm"),
                                  (OFF, ON), (False, True))
]


@pytest.mark.parametrize("N, variant, s0, custom", GRID)
def test_retargeted_build_equals_a_fresh_one(N, variant, s0, custom, lowerings):
    kw = CUSTOM if custom else {}
    xs = x0_sequence(N)
    for x0 in xs:
        got = build_thermostat_mpc(x0, s0, N, variant=variant, **kw)
        assert_same_lowering(got, fresh(x0, s0, N, variant, **kw))
    # the hull lowers afresh exactly when x0[3] turns zero or nonzero, since
    # its bound rows on the copies of x[0,3] vanish or appear; big-M never
    zero = [x0[3] == 0.0 for x0 in xs]
    flips = sum(a != b for a, b in zip(zero, zero[1:]))
    assert len(lowerings) == (1 + flips if variant == "gdp_hull" else 1)


def test_returned_arrays_are_the_callers_own(lowerings):
    x0s = [(20.5, 20.8, 19.5, 20.1), (21.5, 20.0, 19.0, 22.3), (22.0, 21.0, 20.0, 19.5)]
    for x0 in x0s:  # the first call lowers, the others re-target
        got = build_thermostat_mpc(x0, OFF, 5)
        for arr in (got.A_csr.data, got.A_csr.indices, got.A_csr.indptr,
                    got.c, got.b, got.lb, got.ub, got.relations):
            arr[:] = 0
        got.is_int[:] = True
        got.labels[:] = ["?"] * len(got.labels)
        got.row_labels.clear()
    assert len(lowerings) == 1
    assert_same_lowering(build_thermostat_mpc(x0s[1], OFF, 5), fresh(x0s[1], OFF, 5, "gdp_hull"))


def test_every_structural_input_has_its_own_entry(lowerings):
    x0 = (20.5, 20.8, 19.5, 20.1)
    building = BuildingModel(default_building().A, default_building().B, dt_minutes=0.5)
    cases = [
        ({}, "gdp_hull"),
        ({"building": CUSTOM["building"]}, "gdp_hull"),
        ({"building": building}, "gdp_hull"),
        ({"params": CUSTOM["params"]}, "gdp_hull"),
        ({"params": ThermostatParams(theta=1.5)}, "gdp_hull"),
        ({}, "gdp_bigm"),
        ({"M": 5e3}, "gdp_bigm"),
    ]
    for kw, variant in cases:
        got = build_thermostat_mpc(x0, OFF, 3, variant=variant, **kw)
        assert_same_lowering(got, fresh(x0, OFF, 3, variant, **kw))
    assert len(lowerings) == len(cases)
    # equal inputs find their entries; the hull does not read M
    build_thermostat_mpc(x0, OFF, 3, ThermostatParams(), "hull", 123.0, default_building())
    build_thermostat_mpc(x0, OFF, 3, variant="bigm", M=5000)
    assert len(lowerings) == len(cases)
    assert len(thermostat._lowered) == len(cases)


def test_store_keeps_the_most_recent_structures(lowerings):
    x0 = (20.5, 20.8, 19.5, 20.1)
    for N in range(1, thermostat.LOWERED_KEPT + 2):
        build_thermostat_mpc(x0, OFF, N)
    assert len(thermostat._lowered) == thermostat.LOWERED_KEPT
    build_thermostat_mpc(x0, OFF, thermostat.LOWERED_KEPT + 1)  # kept
    build_thermostat_mpc(x0, OFF, 1)  # dropped first, lowered again
    assert len(lowerings) == thermostat.LOWERED_KEPT + 2


def test_bad_input_still_raises_on_a_known_structure(lowerings):
    build_thermostat_mpc((20.5, 20.8, 19.5, 20.1), OFF, 3)
    with pytest.raises(ValueError, match="temperature bounds"):
        build_thermostat_mpc((20.5, 20.8, 19.5, 50.0), OFF, 3)
    with pytest.raises(ValueError, match="s0"):
        build_thermostat_mpc((20.5, 20.8, 19.5, 20.1), 2, 3)
    with pytest.raises(TypeError):
        build_thermostat_mpc((20.5, 20.8, 19.5, 20.1), OFF, 3.0)


def test_infinite_bigm_is_rejected_and_not_stored(lowerings):
    with pytest.raises(ValueError, match="finite M > 0"):
        build_thermostat_mpc((20.5, 20.8, 19.5, 20.1), OFF, 3, variant="bigm", M=math.inf)
    assert not thermostat._lowered


def with_bounds(model, lb, ub):
    return dataclasses.replace(model, variables=tuple(
        Variable(v.name, float(lo), float(hi))
        for v, lo, hi in zip(model.variables, lb, ub)))


@pytest.mark.parametrize("lower, least", [
    (to_hull, 20),
    (lambda m: to_bigm(m, BigMStrategy.fixed(50.0)), 60),  # every one
    (to_bigm, 1),  # from_bounds: a moved bound of a local row's variable declines
], ids=["hull", "bigm_fixed", "bigm_from_bounds"])
def test_retarget_on_random_models(lower, least):
    rng = np.random.default_rng(25)
    retargeted = 0
    for _ in range(60):
        model = random_gdp(rng)
        lb0, ub0 = model.bounds()
        moved = rng.random((2, lb0.size)) < 0.5
        lb = np.where(moved[0], np.round(lb0 - rng.uniform(0, 2, lb0.size), 2), lb0)
        ub = np.where(moved[1], np.round(ub0 + rng.uniform(0, 2, ub0.size), 2), ub0)
        lb[rng.random(lb.size) < 0.15] = 0.0  # a side turning zero drops a hull bound row
        ub = np.maximum(ub, lb)
        got = retarget(lower(model), lb, ub)
        if got is not None:
            retargeted += 1
            assert_same_lowering(got, lower(with_bounds(model, lb, ub)))
            # a re-targeted problem re-targets again, back to where it began
            assert_same_lowering(retarget(got, lb0, ub0), lower(model))
    assert retargeted >= least


def test_retarget_declines_what_it_cannot_place():
    model = build_thermostat_gdp((20.5, 20.8, 19.5, 20.1), OFF, 3)
    lb, ub = model.bounds()

    def moved(j, lo, hi):
        out = lb.copy(), ub.copy()
        out[0][j], out[1][j] = lo, hi
        return out

    hull = to_hull(model)
    assert retarget(hull, *moved(3, 20.0, 20.0)) is not None
    # the hull's bound rows on the copies of x[0,3] would vanish
    assert retarget(hull, *moved(3, 0.0, 0.0)) is None
    assert retarget(hull, *moved(3, -0.0, -0.0)) is None
    assert retarget(hull, *moved(5, 30.0, 20.0)) is None  # lb > ub: rejected
    # u[t] is pinned by every mode: its box decides which indicators are fixed
    u0 = thermostat.ThermostatLayout(3).u_index(0)
    assert retarget(hull, *moved(u0, 0.0, 5000.0)) is None
    # from_bounds takes M from the box of each row's variables
    assert retarget(to_bigm(model), *moved(3, 20.0, 20.0)) is None
    assert retarget(to_bigm(model, BigMStrategy.fixed(1e4)), *moved(3, 20.0, 20.0)) is not None
    buf = io.StringIO()
    export_mps(hull, buf)
    buf.seek(0)
    assert retarget(read_mps(buf), lb, ub) is None  # no lowering's record
