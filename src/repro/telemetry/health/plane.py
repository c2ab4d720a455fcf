"""The :class:`HealthPlane`: one object tying rollups, SLOs and the model.

Two modes of feeding it:

- **Attached** (the normal one): ``plane.attach(registry)`` sets
  ``registry.health = plane`` and the registry forwards every counter
  increment, histogram observation and gauge set — *after* label
  capping/interning — to :meth:`on_count` / :meth:`on_observe` /
  :meth:`on_gauge`.  A registry with no plane attached pays one
  ``is not None`` check per sample (benchmarked in
  ``benchmarks/bench_o3_health_overhead.py``).

- **Detached**: no registry at all — the caller feeds counters through
  :meth:`ingest_count` with explicit timestamps, and the plane's clock is
  the freshest timestamp its SLO windows have seen.

Burn evaluation happens on :meth:`tick` — run it from a
:class:`~repro.sim.timers.PeriodicTimer` (see :meth:`start`) or call it
manually at sample boundaries.  Newly fired alerts become ``slo.burn``
telemetry events, which the flight-recorder hub auto-dumps exactly like
``invariant.violation`` — so a burning SLO leaves the blamed node's last
N events on disk without anyone asking.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.telemetry.health.model import (
    STATUSES,
    Cause,
    Condition,
    HealthModel,
    HealthReport,
)
from repro.telemetry.health.rollups import RollupBook, RollupRule
from repro.telemetry.health.slo import SLO, BurnAlert, SloEngine
from repro.telemetry.metrics import LabelKey, label_key


class HealthPlane:
    """The third observability layer over one registry's sample stream."""

    def __init__(
        self,
        slos: Iterable[SLO] = (),
        rules: Iterable[RollupRule] = (),
        name: str = "health",
    ):
        self.name = name
        self.engine = SloEngine(slos)
        self.book = RollupBook(list(rules))
        self.model = HealthModel()
        self.registry: Any | None = None
        self._timer: Any | None = None
        self._emitting = False
        #: Metric names neither the book nor the engine routes — the
        #: attached-stream fast path is then one set lookup per sample.
        self._quiet: dict[str, set] = {
            "counter": set(),
            "histogram": set(),
            "gauge": set(),
        }
        self.ticks = 0
        #: The worst report captured at any burn instant — kept so a run
        #: that *recovers* before its final report still shows what the
        #: incident looked like (statuses + cause chains) at its peak.
        self.peak: HealthReport | None = None

    # -- wiring ------------------------------------------------------------------

    def attach(self, registry: Any) -> "HealthPlane":
        """Subscribe to ``registry``'s sample stream (returns self)."""
        registry.health = self
        self.registry = registry
        return self

    def detach(self) -> None:
        if self.registry is not None and self.registry.health is self:
            self.registry.health = None
        self.registry = None

    def add_slo(self, slo: SLO) -> None:
        self.engine.add(slo)
        for quiet in self._quiet.values():
            quiet.clear()

    def add_rule(self, rule: RollupRule) -> None:
        self.book.add_rule(rule)
        for quiet in self._quiet.values():
            quiet.clear()

    def start(self, simulator: Any, interval: float = 1.0) -> "HealthPlane":
        """Evaluate burn every ``interval`` virtual seconds (returns self)."""
        from repro.sim.timers import PeriodicTimer

        self.stop()
        self._timer = PeriodicTimer(
            simulator, interval, self.tick, name=f"{self.name}.tick"
        )
        self._timer.start()
        return self

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()
            self._timer = None

    # -- attached stream (called by MetricsRegistry; labels pre-capped) ---------

    def on_count(self, now: float, name: str, labels: LabelKey, amount: float) -> None:
        quiet = self._quiet["counter"]
        if name in quiet:
            return
        if self._emitting:
            return  # the plane's own alert counters must not feed SLOs
        if not self.book._rules_for(name) and not self.engine._routed(
            "counter", name
        ):
            quiet.add(name)
            return
        self.book.on_count(now, name, labels, amount)
        self.engine.on_count(now, name, labels, amount)

    def on_observe(
        self,
        now: float,
        name: str,
        labels: LabelKey,
        value: float,
        bounds: tuple[float, ...],
    ) -> None:
        quiet = self._quiet["histogram"]
        if name in quiet:
            return
        if self._emitting:
            return
        if not self.book._rules_for(name) and not self.engine._routed(
            "histogram", name
        ):
            quiet.add(name)
            return
        self.book.on_observe(now, name, labels, value, bounds)
        self.engine.on_observe(now, name, labels, value)

    def on_gauge(self, now: float, name: str, labels: LabelKey, value: float) -> None:
        quiet = self._quiet["gauge"]
        if name in quiet:
            return
        if self._emitting:
            return
        if not self.engine._routed("gauge", name):
            quiet.add(name)
            return
        self.engine.on_gauge(now, name, labels, value)

    # -- detached stream (explicit timestamps) -----------------------------------

    def ingest_count(
        self, now: float, name: str, amount: float = 1.0, **labels: Any
    ) -> None:
        key = label_key(labels)
        self.book.on_count(now, name, key, amount)
        self.engine.on_count(now, name, key, amount)

    # -- probes ------------------------------------------------------------------

    def watch_platform(self, platform: Any) -> "HealthPlane":
        """Register the standard resilience/supervision/pipeline probes."""
        self.model.declare_subsystem("resilience", "supervision", "pipeline")
        self.model.add_probe("breakers", lambda: _breaker_probe(platform))
        self.model.add_probe("quarantine", lambda: _quarantine_probe(platform))
        self.model.add_probe("pipeline", lambda: _pipeline_probe(platform))
        return self

    # -- evaluation & reporting --------------------------------------------------

    def tick(self) -> list[BurnAlert]:
        """One burn evaluation; emits ``slo.burn`` events for new fires."""
        now = self._now()
        self.ticks += 1
        fired = self.engine.evaluate(now)
        if fired and self.registry is not None:
            self._emitting = True
            try:
                for alert in fired:
                    fields: dict[str, Any] = {
                        "slo": alert.slo,
                        "subsystem": alert.subsystem,
                        "pair": alert.pair,
                        "severity": alert.severity,
                        "burn_long": round(alert.burn_long, 4),
                        "burn_short": round(alert.burn_short, 4),
                        "threshold": alert.threshold,
                    }
                    # Name the blamed node so the flight hub dumps *its*
                    # ring (the same routing invariant.violation uses).
                    node = alert.worst.get("node")
                    if node:
                        fields["node"] = node
                    self.registry.event("slo.burn", **fields)
                    self.registry.count(
                        "slo.burns", slo=alert.slo, severity=alert.severity
                    )
            finally:
                self._emitting = False
        if fired:
            report = self.report(now)
            if self.peak is None or STATUSES.index(report.overall) >= STATUSES.index(
                self.peak.overall
            ):
                self.peak = report
        return fired

    def _now(self) -> float:
        if self.registry is not None:
            return self.registry.clock.now()
        # Detached: the freshest timestamp any window has seen (callers
        # pass explicit `now`s); fall back to 0 before the first sample.
        best = 0.0
        for slo in self.engine.slos:
            for window in slo._windows.values():
                if window._cursor is not None:
                    best = max(best, window._cursor * window.width)
        return best

    def report(self, now: float | None = None) -> HealthReport:
        """The full health verdict (conditions, statuses, SLO snapshots)."""
        at = self._now() if now is None else now
        return self.model.evaluate(at, self.engine)

    def to_records(self, now: float | None = None) -> list[dict[str, Any]]:
        """Rollup series + SLO snapshots as JSONL-ready records."""
        at = self._now() if now is None else now
        records = self.book.to_records(at)
        records.extend(
            {"type": "slo", **snap} for snap in self.engine.snapshot(at)
        )
        records.extend(
            {"type": "slo_alert", **alert.to_dict()} for alert in self.engine.alerts
        )
        return records

    def __repr__(self) -> str:
        return (
            f"<HealthPlane {self.name!r} slos={len(self.engine.slos)} "
            f"firing={len(self.engine.active())} ticks={self.ticks}>"
        )


# -- standard probes -------------------------------------------------------------


def _breaker_probe(platform: Any) -> list[Condition]:
    """Open circuit breakers degrade the resilience subsystem."""
    conditions: list[Condition] = []
    for owner_id, client in _resilient_clients(platform):
        for peer, breaker in sorted(client.breakers().items()):
            state = breaker.state.value
            if state == "closed":
                continue
            conditions.append(
                Condition(
                    subsystem="resilience",
                    status="degraded",
                    summary=f"breaker {owner_id} -> {peer} is {state}",
                    cause=Cause(
                        "breaker." + state,
                        f"{owner_id}->{peer}",
                        f"failures={breaker.failures}, "
                        f"opened {breaker.times_opened}x",
                    ),
                )
            )
    return conditions


def _quarantine_probe(platform: Any) -> list[Condition]:
    """Quarantined extensions degrade the supervision subsystem."""
    conditions: list[Condition] = []
    for node_id, mobile in sorted(platform.mobile_nodes.items()):
        supervisor = getattr(mobile, "supervisor", None)
        if supervisor is None:
            continue
        for health in supervisor.quarantined():
            info = health.as_dict()
            conditions.append(
                Condition(
                    subsystem="supervision",
                    status="degraded",
                    summary=(
                        f"extension {info['extension']} quarantined on {node_id}"
                    ),
                    cause=Cause(
                        "supervision.quarantined",
                        f"{node_id}:{info['extension']}",
                        f"contained {info['contained']} fault(s) "
                        f"at t={info['quarantined_at']:.3f}",
                    ),
                )
            )
    return conditions


def _pipeline_probe(platform: Any) -> list[Condition]:
    """A shedding accept-queue degrades (or criticals) the pipeline."""
    conditions: list[Condition] = []
    for base_id, station in sorted(platform.base_stations.items()):
        pipeline = getattr(station.extension_base, "pipeline", None)
        if pipeline is None:
            continue
        stats = pipeline.stats()
        shed = stats.get("shed", 0)
        submitted = stats.get("submitted", 0)
        if not shed:
            continue
        shed_frac = shed / submitted if submitted else 1.0
        conditions.append(
            Condition(
                subsystem="pipeline",
                status="critical" if shed_frac > 0.10 else "degraded",
                summary=(
                    f"{base_id} pipeline shed {shed}/{submitted} "
                    f"({shed_frac:.1%}) — queue depth {stats.get('depth', 0)}"
                ),
                cause=Cause(
                    "pipeline.shed",
                    base_id,
                    f"shed={shed} submitted={submitted} "
                    f"depth={stats.get('depth', 0)} "
                    f"in_service={stats.get('in_service', 0)}",
                ),
            )
        )
    return conditions


def _resilient_clients(platform: Any) -> list[tuple[str, Any]]:
    out: list[tuple[str, Any]] = []
    for node_id, mobile in sorted(platform.mobile_nodes.items()):
        client = getattr(mobile.discovery, "resilient_client", None)
        if client is not None:
            out.append((node_id, client))
    for base_id, station in sorted(platform.base_stations.items()):
        client = getattr(station.extension_base, "resilient_client", None)
        if client is not None:
            out.append((base_id, client))
    return out
