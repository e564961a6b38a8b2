"""Per-layer tracing for the benchmark's traced run.

:class:`LayerTracer` patches the class attributes (and module functions)
of each layer's public entry points, so every caller goes through a
wrapper that opens a span on the repo's own
:class:`~repro.telemetry.tracing.SpanTracer`: host ``perf_counter``
times, the enclosing span as causal parent, the layer as the span's
``source``.  Callbacks handed to an engine's scheduler are wrapped too,
so each dispatched event is a span attributed to the layer that owns the
callback.  Spans stay in memory; a layer's self time is its spans'
duration minus the part covered by their child spans, folded once the
run ends (:meth:`LayerTracer.self_times`).

Nothing under ``src/`` is modified: :meth:`LayerTracer.install` patches
at run time and :meth:`LayerTracer.uninstall` restores every attribute.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional

from repro.core.im import IMPolicy
from repro.core.mm import MMPolicy
from repro.kernel.shard import ShardedKernelService
from repro.network.transport import Network
from repro.runtime import wire
from repro.runtime.timeouts import TimeoutManager
from repro.runtime.transport import UdpTransport
from repro.security.auth import MessageAuthenticator
from repro.service.client import TimeClient
from repro.service.messages import RequestKind, TimeRequest
from repro.service.server import TimeServer
from repro.simulation.engine import PeriodicTask, SimulationEngine
from repro.telemetry.instruments import (
    EngineInstruments,
    ServerTelemetry,
    TelemetrySampler,
)
from repro.telemetry.tracing import SpanTracer

__all__ = ["LayerTracer"]

# ``repro.core`` re-exports the ``marzullo`` function under the module's name.
core_marzullo = importlib.import_module("repro.core.marzullo")

_MODULE_SOURCES = (
    ("repro.simulation.", "simulation"),
    ("repro.network.", "network"),
    ("repro.service.client", "service.client"),
    ("repro.service.", "service.server"),
    ("repro.core.", "core"),
    ("repro.security.", "security"),
    ("repro.telemetry.", "telemetry"),
    ("repro.kernel.", "kernel"),
    ("repro.runtime.wire", "runtime.wire"),
    ("repro.runtime.transport", "runtime.transport"),
    ("repro.runtime.", "runtime.engine"),
)


def _source_of(obj: Any) -> str:
    """The layer that owns an object (by type) or a function (by module)."""
    if isinstance(obj, TimeServer):
        return "service.server"
    if isinstance(obj, TimeClient):
        return "service.client"
    module = obj.__module__ if inspect.isfunction(obj) else type(obj).__module__
    for prefix, source in _MODULE_SOURCES:
        if module.startswith(prefix):
            return source
    return "bench"


def _callback_owner(callback: Callable) -> str:
    """Resolve which layer a scheduled callback belongs to.

    Unwraps a :class:`PeriodicTask` firing to its task callback, then
    prefers the object the callback is bound to (a bound method's
    ``__self__``, or the ``self`` a closure captured — a process's guard,
    a network delivery), and falls back to the defining module.
    """
    for _ in range(4):
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, PeriodicTask):
            callback = owner._callback
            continue
        if owner is not None:
            return _source_of(owner)
        code = getattr(callback, "__code__", None)
        if code is not None and "self" in code.co_freevars:
            cell = callback.__closure__[code.co_freevars.index("self")]
            return _source_of(cell.cell_contents)
        return _source_of(callback)
    return "simulation"


class LayerTracer:
    """Span recorder for one traced repetition of a workload."""

    def __init__(self) -> None:
        self.spans = SpanTracer()
        self.counts: Counter = Counter()
        self.lateness_ms: List[float] = []
        self._stack: List[Optional[Any]] = [None]
        self._patched: List[tuple] = []
        # Wrapper cost by enclosing span id (None: outside every span).
        self._cost: Dict[Optional[int], float] = {}

    # -------------------------------------------------------------- wrapping

    def _spanned(self, fn: Callable, name: str, source: str, after=None) -> Callable:
        """``fn`` run inside a span; ``after(result, *args)`` counts the call.

        The span covers only the call itself.  What the wrapper costs
        around it (opening and closing the span) is charged to the
        parent span's tracer cost, so it is not counted as the parent
        layer's self time.
        """
        start, end = self.spans.start, self.spans.end
        stack, clock, cost = self._stack, time.perf_counter, self._cost

        def call(*args, **kwargs):
            entered = clock()
            parent = stack[-1]
            span = start(entered, name, source, parent)
            stack.append(span)
            span.start = began = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, *args, **kwargs)
                return result
            finally:
                ended = clock()
                stack.pop()
                end(ended, span)
                key = None if parent is None else parent.span_id
                cost[key] = cost.get(key, 0.0) + (clock() - entered) - (ended - began)

        return call

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_method(self, cls: type, attr: str, source: str, after=None) -> None:
        """Route ``cls.attr`` through a span of layer ``source``."""
        original = cls.__dict__[attr]
        wrapped = self._spanned(original, f"{cls.__name__}.{attr}", source, after)
        self._set(cls, attr, functools.wraps(original)(wrapped))

    def patch_function(self, module, attr: str, source: str, after=None) -> None:
        """Route a module function through a span, in every ``repro``
        module that imported it by name."""
        original = getattr(module, attr)
        wrapped = functools.wraps(original)(
            self._spanned(original, attr, source, after)
        )
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name.startswith("repro") and mod.__dict__.get(attr) is original:
                self._set(mod, attr, wrapped)

    def _event(self, callback: Callable, owner: Optional[Callable] = None) -> Callable:
        """Wrap a callback being scheduled as one dispatched-event span.

        The span's layer is that of ``owner`` (default: the callback).
        The wrapping happens inside the scheduling caller's span, so its
        cost is charged to that span's tracer cost.
        """
        entered = time.perf_counter()
        source = _callback_owner(callback if owner is None else owner)
        wrapped = self._spanned(callback, "event", source)
        parent = self._stack[-1]
        key = None if parent is None else parent.span_id
        self._cost[key] = self._cost.get(key, 0.0) + time.perf_counter() - entered
        return wrapped

    # ------------------------------------------------------------- the layers

    def install(self) -> None:
        """Patch every layer's entry points."""
        counts = self.counts
        tracer = self

        sim_schedule = SimulationEngine.__dict__["schedule_at"]

        def schedule_at(engine, when, callback, label=""):
            return sim_schedule(engine, when, tracer._event(callback), label)

        self._set(SimulationEngine, "schedule_at", schedule_at)
        self.patch_method(SimulationEngine, "run", "simulation")
        self.patch_method(ShardedKernelService, "run_until", "kernel")

        live_schedule = TimeoutManager.__dict__["schedule"]

        def schedule(manager, when, callback, label=""):
            due, now, lateness = float(when), manager._time, tracer.lateness_ms

            def timed():
                lateness.append(1e3 * (now() - due))
                return callback()

            return live_schedule(manager, when, tracer._event(timed, callback), label)

        self._set(TimeoutManager, "schedule", schedule)

        def count(name: str) -> Callable[..., None]:
            return lambda *_args, **_kwargs: counts.update((name,))

        def note_poll(_result, _transport, _source, _destination, message):
            if isinstance(message, TimeRequest) and message.kind is RequestKind.POLL:
                counts["service.polls_sent"] += 1

        def note_send(result, *args):
            counts["network.sends"] += 1
            note_poll(result, *args)

        self.patch_method(Network, "send", "network", note_send)
        self.patch_method(UdpTransport, "send", "runtime.transport", note_poll)
        self.patch_method(
            UdpTransport, "_transmit", "runtime.transport",
            count("runtime.datagrams_sent"),
        )
        self.patch_method(
            UdpTransport, "_datagram_received", "runtime.transport",
            count("runtime.datagrams_received"),
        )
        self.patch_function(wire, "encode_message", "runtime.wire")
        self.patch_function(wire, "decode_message", "runtime.wire")

        self.patch_method(TimeServer, "on_message", "service.server")
        self.patch_method(TimeClient, "ask", "service.client")
        self.patch_method(TimeClient, "on_message", "service.client")

        note_core = count("core.calls")
        self.patch_method(MMPolicy, "on_reply", "core", note_core)
        self.patch_method(MMPolicy, "on_round_complete", "core", note_core)
        self.patch_method(IMPolicy, "on_round_complete", "core", note_core)
        for attr in ("marzullo", "intersect_tolerating", "ntp_select"):
            self.patch_function(core_marzullo, attr, "core", note_core)

        def note_verify(verdict, *_args):
            counts["security.verifies"] += 1
            counts["security.rejects"] += verdict != "ok"

        self.patch_method(
            MessageAuthenticator, "sign", "security", count("security.signs")
        )
        self.patch_method(MessageAuthenticator, "verify", "security", note_verify)

        for attr, value in list(ServerTelemetry.__dict__.items()):
            if callable(value) and not attr.startswith("_"):
                self.patch_method(ServerTelemetry, attr, "telemetry")
        self.patch_method(EngineInstruments, "on_event", "telemetry")
        self.patch_method(TelemetrySampler, "on_grid", "telemetry")

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --------------------------------------------------------------- folding

    def self_times(self, spans: Optional[List[Any]] = None) -> Dict[str, float]:
        """Seconds of self time per layer: span time minus child spans.

        The wrappers' own cost inside a span is taken out of the span's
        self time and reported under the ``"tracer"`` key instead.

        Args:
            spans: Restrict the fold to these spans (e.g. those inside
                the run phase); defaults to every recorded span.
        """
        spans = list(self.spans) if spans is None else spans
        child: Dict[int, float] = {}
        for span in spans:
            if span.parent_id is not None:
                child[span.parent_id] = child.get(span.parent_id, 0.0) + span.duration
        totals: Dict[str, float] = {"tracer": 0.0}
        for span in spans:
            cost = self._cost.get(span.span_id, 0.0)
            own = span.duration - child.get(span.span_id, 0.0) - cost
            totals[span.source] = totals.get(span.source, 0.0) + own
            totals["tracer"] += cost
        return totals

    def root_cost(self) -> float:
        """Wrapper cost spent outside every span (around root spans)."""
        return self._cost.get(None, 0.0)

    def timer_lateness_p50_ms(self) -> float:
        return statistics.median(self.lateness_ms) if self.lateness_ms else 0.0
