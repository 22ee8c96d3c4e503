"""Spans around the public functions of each dmpc layer, applied from outside.

The package binds names with ``from .x import y``, so one function can be
reachable under several module attributes (``dmpc.simulate.solve``,
``dmpc.gapstudy.solve``, ``dmpc.solve``, ...). :class:`Patcher` replaces
every such binding in the loaded ``dmpc`` modules, and the engine's
methods on the class itself; :meth:`Patcher.restore` puts every original
back. :func:`install_layers` uses it to wrap each layer in a span of a
:class:`Tracer`, which keeps the spans in memory and derives self times.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

PACKAGE = "dmpc"


def _package_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Patcher:
    """Replaces names in the dmpc modules and classes, and restores them."""

    def __init__(self):
        self._saved: list = []  # (owner, attribute, original), in patch order

    def replace_function(self, original, wrapper, modules=None) -> int:
        """Bind ``wrapper`` wherever ``original`` is bound in ``modules``.

        ``modules`` defaults to every loaded module of the package. Raises
        ``LookupError`` if the function is bound nowhere, so a renamed layer
        fails the benchmark instead of going unmeasured.
        """
        hits = 0
        for mod in modules if modules is not None else _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
                    hits += 1
        if not hits:
            raise LookupError(f"{original.__qualname__} is bound in no module")
        return hits

    def replace_method(self, cls, attr: str, wrapper):
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    run_lo = run_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


class Tracer:
    """In-memory spans (name, start, end, parent) plus counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: Counter = Counter()
        self._open: list = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int):
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")
        self._open.pop()
        self.spans[index].end = self.clock()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._open)

    def self_times(self) -> list:
        """Each span's duration minus the part its child spans cover."""
        children: list = [[] for _ in self.spans]
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        return [
            (s.end - s.start) - covered_length(children[i], s.start, s.end)
            for i, s in enumerate(self.spans)
        ]

    def totals(self) -> dict:
        """Per span name: [calls, total seconds, self seconds]."""
        out: dict = {}
        for s, own in zip(self.spans, self.self_times()):
            entry = out.setdefault(s.name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += s.end - s.start
            entry[2] += own
        return out

    def dump(self) -> list:
        return [[s.name, s.start, s.end, s.parent] for s in self.spans]


def _timed(tracer: Tracer, name, fn, after=None):
    """Wrap ``fn`` in a span; ``name`` may be a function of the call."""
    sig = inspect.signature(fn) if callable(name) else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(sig.bind(*args, **kwargs).arguments) if sig else name
        index = tracer.begin(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(label, result, args, kwargs)
        return result

    return wrapper


def install_layers(tracer: Tracer) -> Patcher:
    """Wrap every layer's public functions in spans; returns the patches.

    Span names: ``build`` (``build_thermostat_mpc``) with children
    ``build.gdp`` and ``build.lower``; ``mps.export``, ``mps.read``;
    ``lp.init`` (engine construction), ``lp.warm`` and ``lp.cold``;
    ``bnb``; ``simulate`` and ``pwa.step``; ``gapstudy``; ``trace`` for the
    tracer's own counting.
    """
    import dmpc.bnb
    import dmpc.gapstudy
    import dmpc.mps
    import dmpc.pwa
    import dmpc.reformulate
    import dmpc.simplex
    import dmpc.simulate
    import dmpc.thermostat

    counts = tracer.counts
    patcher = Patcher()
    engine_cls = dmpc.simplex.SimplexEngine
    ITERATION_LIMIT = dmpc.simplex.LpStatus.ITERATION_LIMIT
    FEASIBLE_LIMIT = dmpc.bnb.SolveStatus.FEASIBLE_LIMIT
    # engines that solved or loaded a basis, as the wrappers saw them
    history: weakref.WeakSet = weakref.WeakSet()

    def on_lower(label, problem, args, kwargs):
        # counting a dense A takes 0.1 s at N=200: keep it out of build's self time
        with tracer.span("trace"):
            counts["build.calls"] += 1
            counts["build.a_bytes"] += problem.A.nbytes
            counts["build.nnz"] += int(np.count_nonzero(problem.A))

    def export_span(original):
        @functools.wraps(original)
        def wrapper(problem, destination):
            start = destination.tell() if hasattr(destination, "tell") else None
            with tracer.span("mps.export"):
                original(problem, destination)
            if start is not None:  # MPS is ASCII: characters are bytes
                counts["mps.bytes"] += destination.tell() - start
        return wrapper

    def lp_kind(arguments):
        warm = arguments.get("warm", True) and arguments["self"] in history
        return "lp.warm" if warm else "lp.cold"

    def on_lp(label, result, args, kwargs):
        history.add(args[0])
        counts[label + ".calls"] += 1
        counts[label + ".pivots"] += result.iterations
        if result.status is ITERATION_LIMIT:
            counts["lp.iteration_limit"] += 1
        if tracer.inside("bnb"):
            counts["bnb.pivots"] += result.iterations

    def load_basis_seen(original):
        @functools.wraps(original)
        def wrapper(self, snap):
            history.add(self)
            return original(self, snap)
        return wrapper

    def on_bnb(label, result, args, kwargs):
        counts["bnb.solves"] += 1
        counts["bnb.nodes"] += result.nodes_explored
        if result.status is FEASIBLE_LIMIT:
            counts["bnb.feasible_limit"] += 1
        if result.objective is None:
            counts["bnb.no_incumbent"] += 1

    def on_step(label, result, args, kwargs):
        counts["pwa.steps"] += 1

    def on_study(label, report, args, kwargs):
        rows = report["instances"]
        counts["gap.instances"] += len(rows)
        counts["gap.excluded"] += sum(1 for r in rows if r["excluded"])
        counts["gap.reference_solves"] += sum(
            1 for r in rows if r["reference_nodes"] is not None
        )

    try:
        for fn, name, after in (
            (dmpc.thermostat.build_thermostat_mpc, "build", None),
            (dmpc.thermostat.build_thermostat_gdp, "build.gdp", None),
            (dmpc.reformulate.to_hull, "build.lower", on_lower),
            (dmpc.reformulate.to_bigm, "build.lower", on_lower),
            (dmpc.mps.read_mps, "mps.read", None),
            (dmpc.bnb.solve, "bnb", on_bnb),
            (dmpc.simulate.simulate_dmpc, "simulate", None),
            (dmpc.pwa.simulate_pwa_step, "pwa.step", on_step),
            (dmpc.gapstudy.run_gap_study, "gapstudy", on_study),
        ):
            patcher.replace_function(fn, _timed(tracer, name, fn, after))
        patcher.replace_function(dmpc.mps.export_mps, export_span(dmpc.mps.export_mps))
        patcher.replace_method(
            engine_cls, "__init__", _timed(tracer, "lp.init", engine_cls.__init__)
        )
        patcher.replace_method(
            engine_cls, "solve", _timed(tracer, lp_kind, engine_cls.solve, on_lp)
        )
        patcher.replace_method(
            engine_cls, "load_basis", load_basis_seen(engine_cls.load_basis)
        )
    except BaseException:
        patcher.restore()
        raise
    return patcher
