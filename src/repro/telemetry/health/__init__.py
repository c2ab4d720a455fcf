"""The health plane: continuous judgments over the telemetry stream.

Layers 1 and 2 (:mod:`repro.telemetry`) collect raw material — counters,
histograms, spans, flight rings.  This package is the **third
observability layer**: it consumes the same stream a
:class:`~repro.telemetry.registry.MetricsRegistry` records and produces
*judgments* whose cost does not grow with the event count:

- :mod:`~repro.telemetry.health.windows` — fixed-cost sliding-window
  accumulators (ring buffers advanced by timestamps, clock-agnostic);
- :mod:`~repro.telemetry.health.rollups` — streaming rate / error-ratio /
  quantile rollups registered per metric *pattern*, updated incrementally
  so cost is O(windows), never O(events);
- :mod:`~repro.telemetry.health.slo` — SLO objects (availability,
  latency, convergence-lag) evaluated with multi-window burn-rate
  alerting; a burn alert is a first-class telemetry event
  (``slo.burn``) that auto-dumps flight rings exactly like
  ``invariant.violation``;
- :mod:`~repro.telemetry.health.model` — maps alerts plus live
  resilience/supervision state (open breakers, quarantines, pipeline
  shedding) into per-subsystem statuses with explicit cause chains;
- :mod:`~repro.telemetry.health.plane` — the :class:`HealthPlane` that
  ties it together and hangs off a registry (``plane.attach(registry)``).

The control tower, ``python -m repro obs storm|load|PATH --view tower``
(:mod:`repro.telemetry.obs`), renders the plane's records and its
``health`` record: statuses, cause chains, burning SLOs, pipelines and
hot join points, with ``--format json`` for scripts.

Quick use::

    from repro.telemetry.health import HealthPlane, SLO, CounterRatioSLI

    plane = HealthPlane(slos=[
        SLO("install-availability", "midas", target=0.999,
            sli=CounterRatioSLI(good=("midas.pipeline.completed",),
                                bad=("midas.pipeline.shed",
                                     "midas.pipeline.failed")))
    ])
    plane.attach(platform.enable_telemetry())
    plane.start(platform.simulator)       # periodic burn evaluation
    ...                                   # run the scenario
    print(plane.report().overall)         # healthy / degraded / critical
"""

from repro.telemetry.health.model import (
    Cause,
    Condition,
    HealthModel,
    HealthReport,
    STATUSES,
    worst_status,
)
from repro.telemetry.health.plane import HealthPlane
from repro.telemetry.health.rollups import (
    QuantileRollup,
    RateRollup,
    RatioRollup,
    RollupBook,
    RollupRule,
)
from repro.telemetry.health.slo import (
    BurnAlert,
    BurnPair,
    CounterRatioSLI,
    DEFAULT_PAIRS,
    GaugeThresholdSLI,
    LatencySLI,
    SLO,
    SloEngine,
    scaled_pairs,
)
from repro.telemetry.health.windows import WindowedBuckets, WindowedCounts

__all__ = [
    "BurnAlert",
    "BurnPair",
    "Cause",
    "Condition",
    "CounterRatioSLI",
    "DEFAULT_PAIRS",
    "GaugeThresholdSLI",
    "HealthModel",
    "HealthPlane",
    "HealthReport",
    "LatencySLI",
    "QuantileRollup",
    "RateRollup",
    "RatioRollup",
    "RollupBook",
    "RollupRule",
    "SLO",
    "STATUSES",
    "SloEngine",
    "WindowedBuckets",
    "WindowedCounts",
    "scaled_pairs",
    "worst_status",
]
