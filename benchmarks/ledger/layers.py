"""Layer attribution for the ledger's traced runs.

:data:`TABLE` is the one place that says which code belongs to which
layer.  A key is either

- ``module:Class.attr`` — a public entry point.  The traced run
  class-patches it before the world is built, so every call is a span of
  that layer; or
- a module prefix — the owner of callbacks.  A callable handed to
  ``Simulator.schedule_at``, ``Transport.register`` or as a request's
  reply callback runs as a span of the layer of the module defining it
  (longest prefix wins; a ``PeriodicTimer`` tick belongs to its callback).

A layer's self time is its spans' duration minus the time their child
spans cover.  Each measured unit is one root span that belongs to no
layer, so time no table entry claims stays out of every layer and
lowers ``trace.coverage``.  Aggregates are kept per layer; full span
records are kept only for the visits of a few sampled nodes.  Nothing
under ``src/`` changes: the spans wrap calls from outside.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from typing import Any, Callable

from repro.sim.timers import PeriodicTimer

LAYERS = (
    "sim",
    "net",
    "discovery",
    "midas.base",
    "midas.seal",
    "midas.open",
    "midas.receiver",
    "vetting",
    "aop.weave",
    "aop.advice",
    "app",
    "leasing",
    "resilience",
    "faults",
    "telemetry",
    "scenarios",
    "bench",
)

#: The pseudo-layer of each unit's root span: time no entry point claims.
UNATTRIBUTED = "unattributed"

TABLE = {
    # -- callback owners -------------------------------------------------------
    "repro.sim": "sim",
    "repro.net": "net",
    "repro.discovery": "discovery",
    "repro.midas": "midas.base",
    "repro.midas.receiver": "midas.receiver",
    # The hall database is a service of the base station.
    "repro.store": "midas.base",
    "repro.vetting": "vetting",
    "repro.aop": "aop.weave",
    # Extension code off the advice path (flush and settlement timers).
    "repro.extensions": "aop.advice",
    "repro.workloads": "app",
    "repro.leasing": "leasing",
    "repro.resilience": "resilience",
    "repro.faults": "faults",
    "repro.telemetry": "telemetry",
    "repro.scenarios": "scenarios",
    "ledger.app": "app",
    "ledger": "bench",
    # -- public entry points ---------------------------------------------------
    "repro.sim.kernel:Simulator.run": "sim",
    "repro.sim.kernel:Simulator.step": "sim",
    "repro.sim.kernel:Simulator.schedule_at": "sim",  # wraps owned callbacks
    "repro.net.network:Network.transmit": "net",
    "repro.net.transport:Transport.request": "net",
    "repro.net.transport:Transport.notify": "net",
    "repro.net.transport:Transport.broadcast": "net",
    "repro.net.transport:Transport.register": "net",  # wraps owned handlers
    "repro.faults.injector:FaultInjector._judge": "faults",  # network.fault_hook
    "repro.midas.base:ExtensionBase.adapt_node": "midas.base",
    "repro.midas.base:ExtensionBase.offer": "midas.base",
    "repro.midas.base:ExtensionBase.revoke": "midas.base",
    "repro.midas.base:ExtensionBase.revoke_node": "midas.base",
    "repro.midas.base:ExtensionBase.replace_extension": "midas.base",
    "repro.midas.catalog:ExtensionCatalog.seal": "midas.seal",
    "repro.midas.envelope:ExtensionEnvelope.seal": "midas.seal",
    "repro.midas.trust:Signer.sign": "midas.seal",
    "repro.midas.envelope:ExtensionEnvelope.open": "midas.open",
    "repro.midas.trust:TrustStore.verify": "midas.open",
    "repro.vetting.vetter:Vetter.vet_instance": "vetting",
    "repro.midas.envelope:ExtensionEnvelope.verify_vet_report": "vetting",
    "repro.aop.vm:ProseVM.load_class": "aop.weave",
    "repro.aop.vm:ProseVM.insert": "aop.weave",
    "repro.aop.vm:ProseVM.withdraw": "aop.weave",
    "repro.aop.vm:ProseVM.unload_class": "aop.weave",
    "repro.aop.sandbox:AspectSandbox.wrap": "aop.advice",
    "repro.workloads.suite:WorkloadSuite.run_once": "app",
    "ledger.app:App.tick": "app",
    "repro.leasing.table:LeaseTable.grant": "leasing",
    "repro.leasing.table:LeaseTable.renew": "leasing",
    "repro.leasing.table:LeaseTable.cancel": "leasing",
    "repro.leasing.table:LeaseTable._expire": "leasing",  # expiry count only
    "repro.telemetry.registry:MetricsRegistry.count": "telemetry",
    "repro.telemetry.registry:MetricsRegistry.gauge": "telemetry",
    "repro.telemetry.registry:MetricsRegistry.observe": "telemetry",
    "repro.telemetry.registry:MetricsRegistry.event": "telemetry",
    "repro.telemetry.registry:MetricsRegistry.start_span": "telemetry",
}

#: Span records kept for the sampled nodes' visits, at most.
MAX_RECORDS = 20_000


class Tracer:
    """Per-layer self time, per-entry-point counts, sampled span records."""

    def __init__(self, sample_nodes=(), sample_visits: int = 2):
        self.active = False
        self.self_s = dict.fromkeys(LAYERS + (UNATTRIBUTED,), 0.0)
        self.calls = dict.fromkeys(LAYERS + (UNATTRIBUTED,), 0)
        #: ``Class.attr`` -> calls made inside measured units
        self.entries: Counter = Counter()
        #: Counts taken at layer boundaries (offers sent, leases expired ...).
        self.counts: Counter = Counter()
        #: Traced wall: the summed duration of all root spans.
        self.wall = 0.0
        #: node id -> its current visit number, kept by the workload.
        self.visits: dict[str, int] = {}
        self.sample_nodes = frozenset(sample_nodes)
        self.sample_visits = sample_visits
        #: [name, layer, start, end, parent record, trace id]
        self.records: list[list] = []
        self._stack: list[list] = []
        self._origin = time.perf_counter()

    # -- spans -----------------------------------------------------------------

    def begin(self, party: str | None = None) -> None:
        """Open the root span of one measured unit of work."""
        self.active = True
        self.push(UNATTRIBUTED, "unit", self.trace_of(party))

    def end(self) -> None:
        self.wall += self.pop()
        self.active = False

    def push(self, layer: str, name: str, trace=None, cause=None) -> None:
        stack = self._stack
        parent = stack[-1] if stack else None
        if trace is None and parent is not None:
            trace = parent[3]
        record = None
        if trace is not None and len(self.records) < MAX_RECORDS:
            up = parent[4] if parent is not None and parent[4] is not None else cause
            record = len(self.records)
            self.records.append([name, layer, time.perf_counter(), None, up, trace])
        stack.append([layer, time.perf_counter(), 0.0, trace, record])

    def pop(self) -> float:
        layer, start, child, _trace, record = self._stack.pop()
        end = time.perf_counter()
        duration = end - start
        self.self_s[layer] += duration - child
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if record is not None:
            self.records[record][3] = end
        return duration

    def current(self) -> tuple[Any, Any]:
        """The (trace id, record) a callback scheduled now should inherit."""
        if not self._stack:
            return None, None
        frame = self._stack[-1]
        return frame[3], frame[4]

    def trace_of(self, *parties) -> str | None:
        """``node/visit`` for the first sampled node among ``parties``."""
        if not self.sample_nodes or len(self.records) >= MAX_RECORDS:
            return None
        for party in parties:
            if party.__class__ is str and party in self.sample_nodes:
                visit = self.visits.get(party, 0)
                if visit <= self.sample_visits:
                    return f"{party}/{visit}"
        return None

    # -- results -----------------------------------------------------------------

    def coverage(self) -> float:
        """Σ self time of the layers ÷ traced wall: the share some layer claims."""
        if not self.wall:
            return 0.0
        return sum(self.self_s[layer] for layer in LAYERS) / self.wall

    def span_records(self) -> list[dict]:
        origin = self._origin
        return [
            {
                "name": name,
                "layer": layer,
                "start": start - origin,
                "end": None if end is None else end - origin,
                "parent": parent,
                "trace": trace,
            }
            for name, layer, start, end, parent, trace in self.records
        ]


# -- attribution -------------------------------------------------------------------


def _prefixes() -> list[tuple[str, str]]:
    owners = [(key, layer) for key, layer in TABLE.items() if ":" not in key]
    return sorted(owners, key=lambda item: len(item[0]), reverse=True)


_OWNERS = _prefixes()
_layer_cache: dict[str, str | None] = {}


def module_layer(module: str | None) -> str | None:
    if module is None:
        return None
    if module not in _layer_cache:
        _layer_cache[module] = next(
            (
                layer
                for prefix, layer in _OWNERS
                if module == prefix or module.startswith(prefix + ".")
            ),
            None,
        )
    return _layer_cache[module]


def owner_of(fn: Callable) -> tuple[str | None, str]:
    """(layer, name) of a callback: its defining module's layer."""
    target = getattr(fn, "func", fn)  # functools.partial
    owner = getattr(target, "__self__", None)
    if isinstance(owner, PeriodicTimer):
        target = owner.callback
    name = getattr(target, "__qualname__", type(target).__name__)
    return module_layer(getattr(target, "__module__", None)), name


def _callback(tracer: Tracer, fn: Callable, layer: str, name: str, trace, cause):
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.push(layer, name, trace, cause)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.pop()

    return traced


def _wrap_owned(tracer: Tracer, fn, trace=None, cause=None):
    if fn is None:
        return None
    layer, name = owner_of(fn)
    if layer is None:
        return fn
    return _callback(tracer, fn, layer, name, trace, cause)


def _entry(tracer: Tracer, func: Callable, layer: str, name: str) -> Callable:
    entries = tracer.entries

    @functools.wraps(func)
    def traced(*args, **kwargs):
        if not tracer.active:
            return func(*args, **kwargs)
        tracer.push(layer, name, tracer.trace_of(*args[1:]))
        try:
            return func(*args, **kwargs)
        finally:
            tracer.pop()
            entries[name] += 1

    return traced


# -- entry points with more to do than open a span ------------------------------------


def _schedule_at(tracer, func, layer, name):
    """Owned callbacks inherit the scheduling span's trace as their cause."""

    @functools.wraps(func)
    def traced(sim, when, fn, *args, **kwargs):
        trace, cause = tracer.current() if tracer.active else (None, None)
        return func(sim, when, _wrap_owned(tracer, fn, trace, cause), *args, **kwargs)

    return traced


def _register(tracer, func, layer, name):
    """Handlers run as their module's layer, traced by node or sender."""

    @functools.wraps(func)
    def traced(transport, operation, handler):
        owned, handler_name = owner_of(handler)
        if owned is None:
            return func(transport, operation, handler)
        node_id = transport.node.node_id

        def handle(sender, body):
            if not tracer.active:
                return handler(sender, body)
            tracer.push(owned, handler_name, tracer.trace_of(node_id, sender))
            try:
                return handler(sender, body)
            finally:
                tracer.pop()

        return func(transport, operation, handle)

    return traced


def _request(tracer, func, layer, name):
    """A ``net`` span that counts keepalive lease ids and owns its replies."""
    counts = tracer.counts

    @functools.wraps(func)
    def traced(transport, destination, operation, body=None, on_reply=None,
               on_error=None, timeout=None):
        if not tracer.active:
            return func(transport, destination, operation, body, on_reply,
                        on_error, timeout)
        tracer.push(layer, name, tracer.trace_of(transport.node.node_id, destination))
        try:
            if operation == "midas.keepalive":
                counts["keepalive.lease_ids"] += len(body["lease_ids"])
                on_reply = _count_renewed(counts, on_reply)
            trace, cause = tracer.current()
            return func(
                transport,
                destination,
                operation,
                body,
                _wrap_owned(tracer, on_reply, trace, cause),
                _wrap_owned(tracer, on_error, trace, cause),
                timeout,
            )
        finally:
            tracer.pop()
            tracer.entries[name] += 1

    return traced


def _count_renewed(counts: Counter, on_reply):
    # Every keepalive sender passes a reply callback; keep its module so
    # the reply is still attributed to the sender's layer.
    @functools.wraps(on_reply)
    def counted(reply):
        counts["keepalive.renewed"] += len(reply.get("renewed", ()))
        on_reply(reply)

    return counted


def _verify_vet_report(tracer, func, layer, name):
    """Counts installs checked against a shipped verdict vs. unvetted ones."""
    inner = _entry(tracer, func, layer, name)

    @functools.wraps(func)
    def traced(envelope, trust_store):
        report = inner(envelope, trust_store)
        if tracer.active:
            tracer.counts["vetted" if report is not None else "unvetted"] += 1
        return report

    return traced


def _expire(tracer, func, layer, name):
    """Counts leases that actually lapse (stale timers fire too)."""

    @functools.wraps(func)
    def traced(table, lease_id, expected_expiry):
        held = lease_id in table
        func(table, lease_id, expected_expiry)
        if tracer.active and held and lease_id not in table:
            tracer.counts["lease.expired"] += 1

    return traced


def _sandbox_wrap(tracer, func, layer, name):
    """Every advice callback a sandbox wraps runs as an ``aop.advice`` span."""

    @functools.wraps(func)
    def traced(sandbox, callback):
        return _callback(
            tracer, func(sandbox, callback), layer, callback.__qualname__, None, None
        )

    return traced


_SPECIAL = {
    "Simulator.schedule_at": _schedule_at,
    "Transport.register": _register,
    "Transport.request": _request,
    "ExtensionEnvelope.verify_vet_report": _verify_vet_report,
    "LeaseTable._expire": _expire,
    "AspectSandbox.wrap": _sandbox_wrap,
}


def install(tracer: Tracer) -> Callable[[], None]:
    """Class-patch every entry point of :data:`TABLE`; returns the undo."""
    saved = []
    for key, layer in TABLE.items():
        if ":" not in key:
            continue
        module_name, qualname = key.split(":")
        class_name, attr = qualname.split(".")
        cls = getattr(importlib.import_module(module_name), class_name)
        raw = cls.__dict__[attr]
        func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        wrapped = _SPECIAL.get(qualname, _entry)(tracer, func, layer, qualname)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(wrapped)
        saved.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def uninstall() -> None:
        for cls, attr, raw in reversed(saved):
            setattr(cls, attr, raw)

    return uninstall
