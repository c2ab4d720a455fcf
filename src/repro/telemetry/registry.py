"""The metrics registry — the platform's real telemetry recorder.

One :class:`MetricsRegistry` aggregates everything the instrumented
platform emits: counters, gauges, histograms, lifecycle events, and
finished spans.  It is clock-agnostic: give it a
:class:`~repro.util.clock.Clock` (e.g. a simulator's ``SimClock``) and
every timestamp is deterministic virtual time; leave the default
:class:`~repro.util.clock.SystemClock` for wall-clock runs.

Install one globally with :func:`repro.telemetry.runtime.install` to turn
the platform's instrumentation on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.telemetry import runtime
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    LabelKey,
    label_key,
)
from repro.telemetry.recorder import FlightRecorderHub
from repro.telemetry.runtime import Recorder
from repro.telemetry.spans import Span, SpanContext, new_context
from repro.util.clock import Clock, SystemClock

#: Sentinel: "no parent given — use the ambient context".
_AMBIENT = object()

#: Default bound on retained spans/events: enough for any scenario in the
#: repo while keeping week-long simulations from growing without limit.
DEFAULT_RETENTION = 8192

@dataclass(frozen=True)
class TelemetryEvent:
    """One timestamped lifecycle event (install, expiry, timeout, ...)."""

    time: float
    name: str
    fields: Mapping[str, Any] = field(default_factory=dict)

    def to_record(self) -> dict[str, Any]:
        """The exportable (JSONL) form of this event."""
        return {
            "type": "event",
            "time": self.time,
            "name": self.name,
            "fields": dict(self.fields),
        }


class MetricsRegistry(Recorder):
    """Aggregates metrics, events, and spans for one process (or world)."""

    enabled = True

    def __init__(
        self,
        name: str = "telemetry",
        clock: Clock | None = None,
        max_spans: int = DEFAULT_RETENTION,
        max_events: int = DEFAULT_RETENTION,
        default_buckets: Iterable[float] = DEFAULT_BUCKETS,
        flight: FlightRecorderHub | None = None,
    ):
        self.name = name
        self.clock = clock or SystemClock()
        #: Interned label keys: one shared tuple per distinct label set,
        #: however many metric names use it — each (name, labels) pair
        #: otherwise re-allocates the sorted tuple per instrument.
        self._interned_keys: dict[LabelKey, LabelKey] = {}
        #: Optional flight-recorder hub: every lifecycle event this
        #: registry records is also routed to the per-node ring of the
        #: node it names.  ``platform.enable_telemetry()`` attaches one.
        self.flight = flight
        #: Optional health plane (:mod:`repro.telemetry.health`): when
        #: attached, every count/observe/gauge is forwarded with its
        #: interned label key.  ``None`` costs one attribute check per sample.
        self.health = None
        self._counters: dict[tuple[str, LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}
        self._buckets_for: dict[str, tuple[float, ...]] = {}
        self._default_buckets = tuple(default_buckets)
        self.events: deque[TelemetryEvent] = deque(maxlen=max_events)
        self.spans: deque[Span] = deque(maxlen=max_spans)
        #: Events/spans silently evicted past the retention cap — surfaced
        #: by the summary view so "the export looks fine" can't hide
        #: a truncated record of a long run.
        self.dropped_events = 0
        self.dropped_spans = 0
        #: Spans started but not yet ended (kept so exports can show them).
        self._open_spans: dict[str, Span] = {}

    # -- label canonicalization --------------------------------------------------

    def _labels_key(self, labels: Mapping[str, Any]) -> LabelKey:
        """The interned key for ``labels``."""
        key = label_key(labels)
        shared = self._interned_keys.get(key)
        if shared is None:
            shared = self._interned_keys[key] = key
        return shared

    # -- recorder interface ----------------------------------------------------

    def count(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        """Increment counter ``name``/``labels`` by ``amount``."""
        key = (name, self._labels_key(labels))
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter(name, key[1])
        counter.incr(amount)
        if self.health is not None:
            self.health.on_count(self.clock.now(), name, key[1], amount)

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set gauge ``name``/``labels`` to ``value``."""
        key = (name, self._labels_key(labels))
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges[key] = Gauge(name, key[1])
        now = self.clock.now()
        gauge.set(value, now=now)
        if self.health is not None:
            self.health.on_gauge(now, name, key[1], value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record ``value`` in histogram ``name``/``labels``."""
        key = (name, self._labels_key(labels))
        histogram = self._histograms.get(key)
        if histogram is None:
            buckets = self._buckets_for.get(name, self._default_buckets)
            histogram = self._histograms[key] = Histogram(name, key[1], buckets)
        histogram.observe(value)
        if self.health is not None:
            self.health.on_observe(
                self.clock.now(), name, key[1], value, histogram.buckets
            )

    def event(self, name: str, **fields: Any) -> None:
        """Record a lifecycle event stamped with the registry clock.

        When a trace context is ambient (an active span, or a message's
        wire context activated around its delivery), the event carries
        its trace/span ids — so chaos timelines stay connected.  Call
        sites may pass explicit ``trace_id``/``span_id`` to override.
        """
        context = runtime.current_context()
        if context is not None:
            fields.setdefault("trace_id", context.trace_id)
            fields.setdefault("span_id", context.span_id)
        now = self.clock.now()
        if len(self.events) == self.events.maxlen:
            self.dropped_events += 1
        self.events.append(TelemetryEvent(now, name, fields))
        if self.flight is not None:
            self.flight.record(name, fields, time=now)

    def start_span(
        self,
        name: str,
        parent: SpanContext | None | Any = _AMBIENT,
        node: str | None = None,
        **attrs: Any,
    ) -> Span:
        """Start a span; the caller ends it (directly or via ``with``).

        ``parent`` defaults to the ambient context (so spans nest across
        message deliveries); pass ``None`` to force a new root trace, or
        an explicit :class:`SpanContext` to join a stored trace.
        """
        if parent is _AMBIENT:
            parent = runtime.current_context()
        context, parent_id = new_context(parent)
        span = Span(
            name,
            context,
            parent_id,
            start=self.clock.now(),
            attrs=attrs,
            node=node,
            on_end=self._span_ended,
        )
        self._open_spans[context.span_id] = span
        return span

    #: ``with registry.span(...)`` reads better at call sites; the span
    #: object itself is the context manager.
    span = start_span

    # -- instrument access ------------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter for ``name``/``labels`` (created on first use)."""
        key = (name, self._labels_key(labels))
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter(name, key[1])
        return counter

    def counter_value(self, name: str, **labels: Any) -> float:
        """Current value of a counter (0.0 if never incremented)."""
        existing = self._counters.get((name, self._labels_key(labels)))
        return existing.value if existing is not None else 0.0

    def counter_total(self, name: str) -> float:
        """Sum of a counter across all of its label sets."""
        return sum(
            counter.value
            for (counter_name, _), counter in self._counters.items()
            if counter_name == name
        )

    def gauge_value(self, name: str, **labels: Any) -> float | None:
        """Current value of a gauge, or None if never set."""
        existing = self._gauges.get((name, self._labels_key(labels)))
        return existing.value if existing is not None else None

    def histogram(self, name: str, **labels: Any) -> Histogram | None:
        """The histogram for ``name``/``labels``, if any observations exist."""
        return self._histograms.get((name, self._labels_key(labels)))

    def histograms_named(self, name: str) -> list[Histogram]:
        """All histograms sharing ``name`` across label sets."""
        return [
            histogram
            for (histogram_name, _), histogram in self._histograms.items()
            if histogram_name == name
        ]

    def declare_buckets(self, name: str, buckets: Iterable[float]) -> None:
        """Fix custom bucket bounds for histograms named ``name``.

        Must run before the first observation of that name; existing
        histograms keep their bounds.
        """
        self._buckets_for[name] = tuple(sorted(float(b) for b in buckets))

    def finished_spans(self, name: str | None = None) -> list[Span]:
        """Finished spans, optionally filtered by span name."""
        if name is None:
            return list(self.spans)
        return [span for span in self.spans if span.name == name]

    def traces(self) -> dict[str, list[Span]]:
        """Finished spans grouped by trace id, in finish order."""
        grouped: dict[str, list[Span]] = {}
        for span in self.spans:
            grouped.setdefault(span.trace_id, []).append(span)
        return grouped

    # -- export -----------------------------------------------------------------

    def to_records(self) -> list[dict[str, Any]]:
        """Everything recorded, as plain JSON-serializable records.

        The list starts with a ``meta`` record; order within each record
        type is stable (insertion order).  Open spans are exported with
        ``end: null`` so a crash dump still shows what was in flight.
        """
        records: list[dict[str, Any]] = [
            {
                "type": "meta",
                "name": self.name,
                "exported_at": self.clock.now(),
                "dropped_events": self.dropped_events,
                "dropped_spans": self.dropped_spans,
            }
        ]
        records.extend(c.to_record() for c in self._counters.values())
        records.extend(g.to_record() for g in self._gauges.values())
        records.extend(h.to_record() for h in self._histograms.values())
        records.extend(e.to_record() for e in self.events)
        records.extend(s.to_record() for s in self.spans)
        records.extend(s.to_record() for s in self._open_spans.values())
        if self.flight is not None:
            records.extend(self.flight.to_records())
        return records

    # -- plumbing ----------------------------------------------------------------

    def _span_ended(self, span: Span) -> None:
        span.end_time = self.clock.now()
        self._open_spans.pop(span.span_id, None)
        if len(self.spans) == self.spans.maxlen:
            self.dropped_spans += 1
        self.spans.append(span)

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry {self.name!r} counters={len(self._counters)} "
            f"histograms={len(self._histograms)} spans={len(self.spans)}>"
        )
