"""Span-and-count wrappers installed around the program's public functions.

Nothing under ``src/`` knows about this module.  A :class:`Patcher`
replaces a function at every place it is looked up -- the attribute of
each loaded module that holds it, or the class that defines it -- and
puts the originals back on :meth:`Patcher.restore`.

Two users share it:

* :class:`Probe` is installed on every run, traced or not.  It wraps
  only ``build_and_converge`` (CPU time of set-up, and the built world
  whose counters the benchmark reads) and
  ``ConvergenceMonitor.run_until_quiet`` (whether the control plane went
  quiet).  That is two or three calls per item, so it costs nothing
  measurable.
* :class:`Tracer` is installed on the traced run only.  Each wrapped
  call is a span.  Its *self* time is its duration minus the spans of
  the wrapped calls it made, and minus a calibrated cost of each child
  wrapper, so the wrappers' own overhead does not land on the caller.

Span clock: ``time.perf_counter_ns`` (the benchmark is one thread; a
CPU clock costs a system call per read, which would swamp per-frame
spans).  Per-frame functions run millions of times per item, so only
coarse spans are kept as records (:data:`RECORDED`); the per-frame ones
are kept as (count, total, self) per item.  Both stay in memory until
:meth:`Tracer.write` at the end of the run.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.bfd.session import BfdSession
from repro.bgp import encoding as bgp_encoding
from repro.bgp.messages import BgpMessage
from repro.harness import convergence, digest
from repro.harness import experiments
from repro.harness.convergence import ConvergenceMonitor
from repro.harness.deploy import BgpDeployment, MtpDeployment
from repro.iputil.tcp import TcpConnection
from repro.net.interface import Interface
from repro.net.link import Link
from repro.net.node import Node
from repro.resilience.invariants import InvariantMonitor
from repro.routing.table import RoutingTable
from repro.scenario import compiler as scenario_compiler
from repro.scenario.compiler import CompiledScenario
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer, Timer
from repro.stack.ethernet import ETHERTYPE_IPV4, ETHERTYPE_MTP, EthernetFrame
from repro.stacks.base import StackDefinition
from repro.topology import registry as topology_registry
from repro.workload import fluid, synth
from repro.workload.engine import FluidWorkload


class Patcher:
    """Replace attributes and remember the originals."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def patch_function(self, original: Callable,
                       make: Callable[[Callable], Callable]) -> None:
        """Replace ``original`` in every loaded module that holds it
        (``from x import f`` copies the reference, so each importer is a
        look-up site of its own)."""
        wrapper = make(original)
        sites = [(module, name) for module in list(sys.modules.values())
                 for name, value in list(getattr(module, "__dict__",
                                                 {}).items())
                 if value is original]
        if not sites:
            raise LookupError(f"{original.__qualname__} is not loaded")
        for module, name in sites:
            self._saved.append((module, name, original))
            setattr(module, name, wrapper)

    def patch_method(self, cls: type, name: str,
                     make: Callable[[Callable], Callable]) -> None:
        """Replace a method or a property getter defined on ``cls``."""
        original = cls.__dict__[name]
        self._saved.append((cls, name, original))
        if isinstance(original, property):
            setattr(cls, name, property(make(original.fget)))
        else:
            setattr(cls, name, make(original))

    def restore(self) -> None:
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()


# ----------------------------------------------------------------------
# the probe: set-up time, quiescence, the built world
# ----------------------------------------------------------------------
class Probe:
    """Per-item facts every run needs, traced or not."""

    def __init__(self) -> None:
        self._patcher = Patcher()
        self.reset()

    def reset(self) -> None:
        self.setup_cpu_s = 0.0
        self.quiet_results: list[bool] = []
        self.worlds: list[Any] = []

    def install(self) -> None:
        def make_build(fn):
            def build_and_converge(*args, **kwargs):
                c0 = time.process_time()
                built = fn(*args, **kwargs)
                self.setup_cpu_s += time.process_time() - c0
                self.worlds.append(built[0])
                return built
            return build_and_converge

        def make_quiet(fn):
            def run_until_quiet(monitor, *args, **kwargs):
                quiet = fn(monitor, *args, **kwargs)
                self.quiet_results.append(bool(quiet))
                return quiet
            return run_until_quiet

        self._patcher.patch_function(experiments.build_and_converge,
                                     make_build)
        self._patcher.patch_method(ConvergenceMonitor, "run_until_quiet",
                                   make_quiet)

    def restore(self) -> None:
        self._patcher.restore()


# ----------------------------------------------------------------------
# the tracer: spans and counts per layer
# ----------------------------------------------------------------------
#: span name -> the public functions it wraps.  Keyed spans pick their
#: name from the call's arguments (frame handling, by ethertype).
FUNCTION_SPANS = {
    "harness.converge": (convergence.converge_from_cold,),
    "harness.digest": (digest.run_digest,),
    "topology.build": (topology_registry.build_topology,),
    "bgp.encode": (bgp_encoding.encode_message,),
    "workload.synth": (synth.synthesize,),
    "workload.solve": (fluid.max_min_rates,),
    "scenario.compile": (scenario_compiler.compile_scenario,),
}
METHOD_SPANS = {
    "harness.reconverge": ((ConvergenceMonitor, "run_until_quiet"),),
    "stacks.deploy": ((StackDefinition, "build"),
                      (BgpDeployment, "start"), (MtpDeployment, "start")),
    "sim.dispatch": ((Simulator, "run"),),
    "net.transmit": ((Interface, "send"), (Link, "transmit"),
                     (Interface, "deliver")),
    "wire.size": ((EthernetFrame, "wire_size"), (BgpMessage, "wire_size")),
    "iputil.tcp": ((TcpConnection, "handle_segment"),),
    "bfd.handle": ((BfdSession, "handle_packet"),),
    "routing.lookup": ((RoutingTable, "lookup"),),
    "workload.resolve": ((FluidWorkload, "start"),
                         (FluidWorkload, "mark_epoch")),
    "workload.settle": ((FluidWorkload, "finish"),),
    "resilience.check": ((InvariantMonitor, "check"),),
    "scenario.execute": ((CompiledScenario, "execute"),),
}
_ETHERTYPE_SPANS = {ETHERTYPE_MTP: "proto.mtp", ETHERTYPE_IPV4: "proto.ipv4"}
FRAME_SPANS = ("proto.mtp", "proto.ipv4", "proto.other")
#: code the engine calls back -- timer fires and scheduled events --
#: named by the package it enters.  Without these spans every hello,
#: keepalive and update flush would count as engine dispatch.
_CALLBACK_SPANS = {"repro.bgp": "bgp.callback", "repro.bfd": "bfd.callback",
                   "repro.core": "proto.mtp.callback",
                   "repro.iputil": "iputil.callback"}
CALLBACK_SPANS = tuple(_CALLBACK_SPANS.values())

#: spans kept as records; the rest run per frame and are aggregated
RECORDED = frozenset({
    "harness.converge", "harness.reconverge", "harness.digest",
    "topology.build", "stacks.deploy", "workload.synth", "workload.resolve",
    "workload.solve", "workload.settle", "resilience.check",
    "scenario.compile", "scenario.execute",
})

SPAN_NAMES = (tuple(FUNCTION_SPANS) + tuple(METHOD_SPANS) + FRAME_SPANS
              + ("sim.schedule", "trace.wrap") + CALLBACK_SPANS)


@dataclass
class SpanRecord:
    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int
    item: int


class Tracer:
    """Installs the span wrappers; holds spans and per-item stats."""

    def __init__(self) -> None:
        self.clock = time.perf_counter_ns
        self.overhead_ns = 0
        self.spans: list[SpanRecord] = []
        #: item id -> span name -> [calls, total_ns, self_ns]
        self.item_stats: dict[int, dict[str, list[int]]] = {}
        self._totals = {name: [0, 0, 0] for name in SPAN_NAMES}
        self._item_start: dict[str, list[int]] = {}
        self._stack: list[list[int]] = [[0]]
        self._span_stack: list[int] = [0]
        self._ids = itertools.count(1)
        self._item = 0
        self._root: Optional[SpanRecord] = None
        self._patcher = Patcher()

    # -- items ---------------------------------------------------------
    def begin_item(self, item: int, name: str) -> None:
        """Open the root span of one item; every span until
        :meth:`end_item` carries ``item``."""
        self._item = item
        self._item_start = {k: list(v) for k, v in self._totals.items()}
        root = next(self._ids)
        self._stack[:] = [[0]]
        self._span_stack[:] = [root]
        self._root = SpanRecord(root, f"item:{name}", self.clock(), 0, 0,
                                item)

    def end_item(self) -> dict[str, list[int]]:
        """Close the item; its per-span [calls, total_ns, self_ns]."""
        self._root.end_ns = self.clock()
        self.spans.append(self._root)
        stats = {name: [now - before for now, before
                        in zip(total, self._item_start[name])]
                 for name, total in self._totals.items()}
        self.item_stats[self._item] = stats
        return stats

    # -- wrappers ------------------------------------------------------
    def _make(self, name: Optional[str], overhead_ns: int,
              key: Optional[Callable[..., str]] = None,
              totals: Optional[dict[str, list[int]]] = None):
        """A wrapper factory for span ``name``, or for the span that
        ``key(*args)`` names."""
        clock, stack = self.clock, self._stack
        span_stack, spans, ids = self._span_stack, self.spans, self._ids
        totals = self._totals if totals is None else totals
        fixed = totals[name] if key is None else None
        recorded = name in RECORDED

        def make(fn):
            def wrapper(*args, **kwargs):
                frame = [0]
                stack.append(frame)
                if recorded:
                    span_id = next(ids)
                    span_stack.append(span_id)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    elapsed = t1 - t0
                    stat = fixed if key is None else totals[key(*args)]
                    stat[0] += 1
                    stat[1] += elapsed
                    stat[2] += elapsed - frame[0]
                    stack[-1][0] += elapsed + overhead_ns
                    if recorded:
                        span_stack.pop()
                        spans.append(SpanRecord(span_id, name, t0, t1,
                                                span_stack[-1], self._item))
            wrapper.__wrapped__ = fn
            return wrapper
        return make

    def install(self) -> None:
        self.overhead_ns = overhead = self._calibrate()
        for name, functions in FUNCTION_SPANS.items():
            for fn in functions:
                self._patcher.patch_function(fn, self._make(name, overhead))
        for name, methods in METHOD_SPANS.items():
            for cls, attr in methods:
                self._patcher.patch_method(cls, attr,
                                           self._make(name, overhead))
        self._patcher.patch_method(
            Node, "handle_frame", self._make(None, overhead, key=_frame_span))
        for attr in ("schedule_at", "schedule_after"):
            self._patcher.patch_method(Simulator, attr,
                                       self._make_schedule(overhead))

    def _make_schedule(self, overhead_ns: int):
        """A wrapper factory for ``Simulator.schedule_*``: a
        ``sim.schedule`` span that also wraps the scheduled callback in
        a span named by the package the callback enters.  The wrapping
        is timed as a ``trace.wrap`` child, so its cost lands on neither
        ``sim.schedule`` nor the code that scheduled the event."""
        timed = self._make("sim.schedule", overhead_ns)
        callbacks = {package: self._make(span, overhead_ns)
                     for package, span in _CALLBACK_SPANS.items()}
        clock, stack, wrap = self.clock, self._stack, self._totals["trace.wrap"]

        def make(fn):
            def schedule(sim, when, callback, *args, **kwargs):
                t0 = clock()
                target = callback
                if isinstance(getattr(callback, "__self__", None),
                              (Timer, PeriodicTimer)):
                    target = callback.__self__.callback
                target = getattr(target, "__func__", target)
                package = ".".join(
                    getattr(target, "__module__", "").split(".")[:2])
                if package in callbacks:
                    callback = callbacks[package](callback)
                elapsed = clock() - t0
                wrap[0] += 1
                wrap[1] += elapsed
                wrap[2] += elapsed
                stack[-1][0] += elapsed
                return fn(sim, when, callback, *args, **kwargs)
            return timed(schedule)
        return make

    def restore(self) -> None:
        self._patcher.restore()

    def _calibrate(self, calls: int = 20_000, trials: int = 5) -> int:
        """Wrapper cost outside its own timed window, per call: what a
        parent span must not count as its own work."""
        stat = {"calibrate": [0, 0, 0]}
        noop = self._make("calibrate", 0, totals=stat)(_noop)
        samples = []
        for _ in range(trials):
            stat["calibrate"][1] = 0
            t0 = self.clock()
            for _ in range(calls):
                _noop()
            bare = self.clock() - t0
            t0 = self.clock()
            for _ in range(calls):
                noop()
            wrapped = self.clock() - t0
            inner = stat["calibrate"][1]
            samples.append(max(0, (wrapped - bare - inner) // calls))
        self._stack[:] = [[0]]
        return int(statistics.median(samples))

    # -- output --------------------------------------------------------
    def write(self, path, info: dict) -> None:
        """Write every span record and per-item stat as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"info": info,
                                  "overhead_ns": self.overhead_ns}) + "\n")
            for span in self.spans:
                out.write(json.dumps({
                    "id": span.span_id, "name": span.name,
                    "start_ns": span.start_ns, "end_ns": span.end_ns,
                    "parent": span.parent, "item": span.item}) + "\n")
            for item, stats in self.item_stats.items():
                out.write(json.dumps({
                    "item": item,
                    "stats": {name: {"calls": s[0], "total_ns": s[1],
                                     "self_ns": s[2]}
                              for name, s in stats.items() if s[0]}}) + "\n")


def _noop() -> None:
    return None


def _frame_span(node, iface, frame, *rest) -> str:
    return _ETHERTYPE_SPANS.get(frame.ethertype, "proto.other")

