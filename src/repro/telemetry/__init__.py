"""Telemetry: metrics, spans, and lifecycle tracing for the platform.

The paper's evaluation is all about measured overhead — weaving cost,
interception latency, lease behaviour over a lossy radio.  This package
gives the reproduction a first-class way to observe itself:

- :class:`~repro.telemetry.registry.MetricsRegistry` — counters, gauges,
  and fixed-bucket histograms, stamped by any
  :class:`~repro.util.clock.Clock` (deterministic under simulation);
- :mod:`~repro.telemetry.spans` — spans with parent/child links whose
  context rides on network messages, so one MIDAS offer→install→renew
  chain is a single trace across nodes;
- :mod:`~repro.telemetry.export` — JSONL dumps and text/JSON summaries;
- :mod:`~repro.telemetry.runtime` — the process-global recorder the
  instrumented platform reports to (a no-op unless one is installed);
- :mod:`~repro.telemetry.recorder` — per-node flight-recorder rings of
  lifecycle events, auto-dumped on crash/quarantine;
- :mod:`~repro.telemetry.timeline` / :mod:`~repro.telemetry.query` —
  happens-before-merged causal timelines with a composable query API
  (``timeline.events(kind).on(node).before(other)``);
- :mod:`~repro.telemetry.profiler` — per-(joinpoint, extension) latency
  histograms with exemplar traces, plus VM weave-cost accounting;
- :mod:`~repro.telemetry.health` — the third layer: streaming rollups,
  SLOs with burn-rate alerting, and the health model;
- :mod:`~repro.telemetry.obs` — the run artifact (every layer's records
  plus health, node and run records) and ``python -m repro obs``, the
  one command that renders it: summary, node inspection, the control
  tower and the profile, live or from a saved file.

Quick use::

    from repro.telemetry import MetricsRegistry, runtime, text_summary

    registry = MetricsRegistry(clock=platform.simulator.clock)
    with runtime.recording(registry):
        ...  # run the platform
    print(text_summary(registry))

or simply ``platform.enable_telemetry()``.  See ``docs/observability.md``
for the metric and span naming scheme.
"""

from repro.telemetry.export import (
    json_summary,
    prom_text,
    read_jsonl,
    text_summary,
    write_jsonl,
)
from repro.telemetry.health import (
    BurnPair,
    CounterRatioSLI,
    GaugeThresholdSLI,
    HealthPlane,
    LatencySLI,
    RollupRule,
    SLO,
    scaled_pairs,
)
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
)
from repro.telemetry.profiler import JoinPointProfiler
from repro.telemetry.query import TimelineQuery
from repro.telemetry.recorder import (
    FlightEvent,
    FlightRecorder,
    FlightRecorderHub,
)
from repro.telemetry.registry import MetricsRegistry, TelemetryEvent
from repro.telemetry.runtime import NullRecorder, Recorder, recording
from repro.telemetry.spans import NULL_SPAN, Span, SpanContext
from repro.telemetry.timeline import Timeline
from repro.telemetry import runtime

__all__ = [
    "BurnPair",
    "Counter",
    "CounterRatioSLI",
    "DEFAULT_BUCKETS",
    "FlightEvent",
    "FlightRecorder",
    "FlightRecorderHub",
    "Gauge",
    "GaugeThresholdSLI",
    "HealthPlane",
    "Histogram",
    "JoinPointProfiler",
    "LatencySLI",
    "MetricsRegistry",
    "NULL_SPAN",
    "NullRecorder",
    "Recorder",
    "RollupRule",
    "SLO",
    "Span",
    "SpanContext",
    "TelemetryEvent",
    "Timeline",
    "TimelineQuery",
    "json_summary",
    "prom_text",
    "read_jsonl",
    "recording",
    "runtime",
    "scaled_pairs",
    "text_summary",
    "write_jsonl",
]
