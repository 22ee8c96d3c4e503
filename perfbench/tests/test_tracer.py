"""Span arithmetic, layer wrapping, and restoring every patched name."""

import itertools
import sys

import pytest

import dmpc
import dmpc.simplex
from perfbench.tracer import Patcher, Tracer, covered_length, install_layers


def bindings():
    """Every attribute of every loaded dmpc module, and the engine's methods."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "dmpc" or name.startswith("dmpc.")):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
    for attr, value in vars(dmpc.simplex.SimplexEngine).items():
        out[("SimplexEngine", attr)] = value
    return out


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0.0, 10.0) == 5.0
    assert covered_length([(-2, 1), (9, 12)], 0.0, 10.0) == 2.0
    assert covered_length([(1, 9), (2, 3)], 0.0, 10.0) == 8.0


def test_self_time_is_duration_minus_children():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("root"):              # 0 .. 9
        with tracer.span("child"):         # 1 .. 6
            with tracer.span("grandchild"):  # 2 .. 3
                pass
            with tracer.span("grandchild"):  # 4 .. 5
                pass
        with tracer.span("child"):         # 7 .. 8
            pass
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1, 0]
    assert tracer.self_times() == [9 - 5 - 1, 5 - 2, 1, 1, 1]
    totals = tracer.totals()
    assert totals["child"] == [2, 6.0, 4.0]
    assert sum(own for _, _, own in totals.values()) == 9.0


def test_spans_must_close_in_order():
    tracer = Tracer()
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_uninstall_restores_every_patched_name():
    before = bindings()
    patches = install_layers(Tracer())
    during = bindings()
    changed = {k for k in before if during.get(k) is not before[k]}
    # every import site of a wrapped function, not only its home module
    for key in [("dmpc.simulate", "solve"), ("dmpc.gapstudy", "solve"), ("dmpc", "solve"),
                ("dmpc.thermostat", "to_hull"), ("dmpc.simulate", "build_thermostat_mpc"),
                ("dmpc.bnb", "export_mps"), ("SimplexEngine", "solve"),
                ("SimplexEngine", "__init__"), ("SimplexEngine", "load_basis")]:
        assert key in changed
    patches.restore()
    after = bindings()
    assert all(after[k] is before[k] for k in before)


def test_patcher_refuses_a_function_bound_nowhere():
    with pytest.raises(LookupError):
        Patcher().replace_function(lambda: None, lambda: None)


def test_layers_count_warm_and_cold_solves():
    problem = dmpc.build_thermostat_mpc((20.5, 20.8, 19.5, 20.1), dmpc.OFF, 3)
    tracer = Tracer()
    patches = install_layers(tracer)
    try:
        engine = dmpc.SimplexEngine(problem)
        engine.solve(warm=True)   # never solved, no basis: runs cold
        engine.solve(warm=True)   # now warm
        result = dmpc.solve(problem, engine=engine)
    finally:
        patches.restore()
    counts = tracer.counts
    assert counts["lp.cold.calls"] == 1
    # one warm solve per node, plus any pinned re-solve of a near-integral node
    assert counts["lp.warm.calls"] >= 1 + result.nodes_explored
    assert counts["bnb.solves"] == 1
    assert counts["bnb.nodes"] == result.nodes_explored
    names = {s.name for s in tracer.spans}
    assert {"lp.init", "lp.cold", "lp.warm", "bnb"} <= names
    assert all(s.end >= s.start for s in tracer.spans)
