"""Layer-attributed wall time for the traced run.

:class:`LayerTracer` wraps each layer's entry points — installed by the
benchmark in the traced process only, and removed again afterwards — so
every call records a span (layer, start, end, parent span) in compact
in-memory arrays. Spans are recorded only while the tracer is enabled (the
measured phase); the measured phase itself is the root span.

A span's self time is its duration minus the durations of its direct
children, so the per-layer self times plus the root's own self time
(``unattributed_s``: the scheduler loop and callbacks no wrapper covers)
sum to the traced wall time exactly, up to float rounding.
"""

from __future__ import annotations

import json
import os
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from repro.composition.manager import ConfigurationManager
from repro.composition.resolver import QueryResolver
from repro.entities.entity import BaseComponent, ContextEntity
from repro.entities.sensors import DoorSensorCE, TemperatureSensorCE
from repro.events.mediator import EventMediator
from repro.events.stream import StreamReassembler
from repro.ledger.ledger import ContextLedger
from repro.location.service import LocationService
from repro.mobility.detection import BoundaryMonitor
from repro.mobility.handoff import HandoffCoordinator
from repro.mobility.world import World
from repro.net.rpc import RequestManager
from repro.net.transport import Network, Process
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.obs.profiling import SchedulerProfiler
from repro.obs.tracing import Tracer
from repro.overlay.node import OverlayNode
from repro.query.model import Query
from repro.query.selection import WhichClause
from repro.server.context_server import ContextServer
from repro.server.profile_manager import ProfileManager
from repro.server.range_service import RangeService
from repro.server.registrar import Registrar

from probes import BenchApp

#: layer -> the (class, method) entry points attributed to it. Private
#: names appear only where they are a layer's timer entry point (a
#: periodic or scheduled callback no public method covers).
ENTRY_POINTS: Dict[str, List[Tuple[type, str]]] = {
    "net": [(Network, "send"), (Process, "deliver"),
            (RequestManager, "request"), (RequestManager, "dispatch_reply")],
    "overlay": [(OverlayNode, "on_message"), (OverlayNode, "lookup_place")],
    "server.range_service": [(RangeService, "on_message"),
                             (RangeService, "offer_to_host")],
    "server.registrar": [(Registrar, "on_message"), (Registrar, "remove"),
                         (Registrar, "register_record"),
                         (Registrar, "_sweep_leases")],
    "server.profile_manager": [(ProfileManager, "on_message"),
                               (ProfileManager, "add"),
                               (ProfileManager, "remove"),
                               (ProfileManager, "get"),
                               (ProfileManager, "update_attributes")],
    "server.context_server": [(ContextServer, "on_message"),
                              (ContextServer, "accept_query"),
                              (ContextServer, "execute_query"),
                              (ContextServer, "admit_host"),
                              (ContextServer, "expel_entity"),
                              (ContextServer, "_sweep_expired_queries")],
    "composition.resolver": [(QueryResolver, "resolve"),
                             (QueryResolver, "note_profile_added"),
                             (QueryResolver, "note_profile_removed")],
    "composition.manager": [(ConfigurationManager, "deliver"),
                            (ConfigurationManager, "teardown"),
                            (ConfigurationManager, "cancel_query"),
                            (ConfigurationManager, "handle_entity_departure")],
    "events": [(EventMediator, "on_message"), (EventMediator, "publish"),
               (EventMediator, "add_subscription"),
               (EventMediator, "remove_subscription"),
               (EventMediator, "remove_subscriber"),
               (EventMediator, "remove_subscriptions_of"),
               (StreamReassembler, "offer")],
    "query": [(Query, "from_wire"), (Query, "to_wire"),
              (WhichClause, "select")],
    "ledger": [(ContextLedger, "append")],
    "obs": [(Counter, "inc"), (Gauge, "set"), (Gauge, "inc"), (Gauge, "dec"),
            (Histogram, "observe"), (SchedulerProfiler, "record"),
            (Tracer, "start"), (Tracer, "end"), (Tracer, "leave"),
            (Tracer, "current_context"), (Tracer, "push_remote"),
            (Tracer, "pop_remote")],
    "entities": [(BaseComponent, "on_message"), (BenchApp, "on_message"),
                 (BaseComponent, "start"), (BaseComponent, "stop"),
                 (BaseComponent, "crash"), (ContextEntity, "publish"),
                 (DoorSensorCE, "detect"), (TemperatureSensorCE, "read")],
    "location": [(LocationService, "on_message"), (LocationService, "update"),
                 (LocationService, "locate"),
                 (LocationService, "resolve_rooms"),
                 (LocationService, "resolve_point")],
    "mobility": [(World, "walk_to"), (World, "teleport"),
                 (World, "_cross_door"), (World, "_reach_centre"),
                 (BoundaryMonitor, "scan"), (HandoffCoordinator, "carry")],
}

LAYERS = tuple(ENTRY_POINTS)
ROOT = "run"


class LayerTracer:
    """Span recorder plus the class patches that feed it."""

    def __init__(self) -> None:
        self.names = (ROOT,) + LAYERS
        self.layer_of_span = array("b")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self.enabled = False
        self._patches: List[Tuple[type, str, object]] = []
        #: component-up arrivals: all, and those a Range Service handled
        self.component_up = 0
        self.component_up_useful = 0

    # -- recording ---------------------------------------------------------------

    def _open(self, layer: int) -> int:
        index = len(self.start)
        self.layer_of_span.append(layer)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def root(self, fn: Callable[[], object]) -> float:
        """Run ``fn`` as the root span with recording on; returns its wall."""
        self.enabled = True
        index = self._open(0)
        try:
            fn()
        finally:
            self._close(index)
            self.enabled = False
        return self.end[index] - self.start[index]

    def _wrap(self, layer: int, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = tracer._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _wrap_deliver(self, layer: int, fn: Callable) -> Callable:
        """``Process.deliver`` also counts useful discovery broadcasts."""
        traced = self._wrap(layer, fn)
        tracer = self

        def deliver(process, message):
            if tracer.enabled and message.kind == "component-up":
                tracer.component_up += 1
                if isinstance(process, RangeService):
                    tracer.component_up_useful += 1
            return traced(process, message)

        return deliver

    # -- installation --------------------------------------------------------------

    def install(self) -> None:
        """Patch every entry point. Call before the deployment is built:
        periodic timers capture bound methods when they are armed."""
        for layer_index, layer in enumerate(LAYERS, start=1):
            for cls, name in ENTRY_POINTS[layer]:
                raw = cls.__dict__[name]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(layer_index, raw.__func__))
                elif cls is Process and name == "deliver":
                    patched = self._wrap_deliver(layer_index, raw)
                else:
                    patched = self._wrap(layer_index, raw)
                self._patches.append((cls, name, raw))
                setattr(cls, name, patched)

    def uninstall(self) -> None:
        for cls, name, raw in reversed(self._patches):
            setattr(cls, name, raw)
        self._patches.clear()

    # -- results --------------------------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int], float]:
        """(self seconds per layer, calls per layer, root wall seconds)."""
        count = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        parent = self.parent
        for i in range(count):
            if parent[i] >= 0:
                child[parent[i]] += duration[i]
        self_s = dict.fromkeys(self.names, 0.0)
        calls = dict.fromkeys(self.names, 0)
        total = 0.0
        for i in range(count):
            name = self.names[self.layer_of_span[i]]
            self_s[name] += duration[i] - child[i]
            calls[name] += 1
            if parent[i] < 0:
                total += duration[i]
        return self_s, calls, total

    def write(self, path: str) -> None:
        """Write every span: a JSON header line, then the raw arrays."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        header = {
            "schema": "bench_e2e.spans/1",
            "layers": list(self.names),
            "spans": len(self.start),
            "arrays": [["layer", "b"], ["parent", "l"], ["start", "d"],
                       ["end", "d"]],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode("utf-8") + b"\n")
            for data in (self.layer_of_span, self.parent, self.start,
                         self.end):
                data.tofile(out)
