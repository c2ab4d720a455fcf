"""The HealthPlane: attach/detach wiring, the quiet-set fast path, burn
events reaching the flight recorder, peak-incident capture, and the
model's status reduction."""

from __future__ import annotations

import pytest

from repro.telemetry import MetricsRegistry, runtime
from repro.telemetry.health import (
    BurnPair,
    Cause,
    Condition,
    CounterRatioSLI,
    HealthPlane,
    RollupRule,
    SLO,
)
from repro.telemetry.health.model import HealthModel, worst_status
from repro.telemetry.recorder import DUMP_KINDS, FlightRecorderHub, read_flight_jsonl

ONE_PAIR = (BurnPair("only", long_window=10.0, short_window=10.0, threshold=2.0),)


def _plane() -> HealthPlane:
    return HealthPlane(
        slos=[
            SLO(
                "renewals",
                "midas",
                target=0.9,
                sli=CounterRatioSLI(
                    good=("midas.renewals",), bad=("midas.failures",)
                ),
                pairs=ONE_PAIR,
                min_samples=1,
            )
        ],
        rules=[RollupRule("rate", "midas.*", "rate", window=10.0)],
    )


class TestWiring:
    def test_attach_detach(self, registry):
        plane = _plane().attach(registry)
        assert registry.health is plane
        registry.count("midas.renewals")
        assert plane.engine.slos[0].good_total == 1.0
        plane.detach()
        assert registry.health is None
        registry.count("midas.renewals")
        assert plane.engine.slos[0].good_total == 1.0

    def test_detached_ingest_uses_explicit_timestamps(self):
        plane = _plane()
        plane.ingest_count(5.0, "midas.failures", 3.0, node="n1")
        slo = plane.engine.slos[0]
        assert slo.bad_total == 3.0
        assert slo.last_bad == {"node": "n1"}
        # _now falls back to the freshest window cursor in detached mode.
        assert plane._now() > 0.0

    def test_timer_ticks_on_the_simulator(self, sim, registry):
        plane = _plane().attach(registry).start(sim, interval=1.0)
        sim.run_for(5.0)
        assert plane.ticks >= 4
        plane.stop()


class TestQuietFastPath:
    def test_unrouted_metric_goes_quiet(self, registry):
        plane = _plane().attach(registry)
        registry.count("unrelated.metric")
        assert "unrelated.metric" in plane._quiet["counter"]
        # Routed metrics never enter the quiet set.
        registry.count("midas.renewals")
        assert "midas.renewals" not in plane._quiet["counter"]

    def test_add_rule_invalidates_quiet_set(self, registry):
        plane = _plane().attach(registry)
        registry.count("fleet.sweep")  # goes quiet under current rules
        plane.add_rule(RollupRule("sweeps", "fleet.*", "rate", window=10.0))
        assert plane._quiet["counter"] == set()
        registry.count("fleet.sweep")
        assert len(plane.book.series("sweeps")) == 1

    def test_add_slo_invalidates_quiet_set(self, registry):
        plane = _plane().attach(registry)
        registry.count("fleet.expired")
        plane.add_slo(
            SLO(
                "leases",
                "fleet",
                target=0.9,
                sli=CounterRatioSLI(good=("fleet.renewed",), bad=("fleet.expired",)),
                pairs=ONE_PAIR,
                min_samples=1,
            )
        )
        registry.count("fleet.expired")
        assert plane.engine.slos[-1].bad_total == 1.0


class TestBurnEvents:
    def test_slo_burn_is_a_black_box_kind(self):
        assert "slo.burn" in DUMP_KINDS

    def test_fire_emits_event_and_dumps_blamed_ring(self, sim, tmp_path):
        hub = FlightRecorderHub(clock=sim.clock, dump_dir=tmp_path)
        registry = MetricsRegistry(clock=sim.clock, flight=hub)
        runtime.install(registry)
        plane = _plane().attach(registry)
        registry.event("midas.installed", node="pda-1")  # ring context
        for _ in range(4):
            registry.count("midas.failures", node="pda-1")
        fired = plane.tick()
        assert [alert.slo for alert in fired] == ["renewals"]
        burn_events = [e for e in registry.events if e.name == "slo.burn"]
        assert len(burn_events) == 1
        assert burn_events[0].fields["node"] == "pda-1"
        # The blamed node's ring hit disk the moment the alert fired.
        dumped = read_flight_jsonl(tmp_path / "flight-pda-1.jsonl")
        assert [event.kind for event in dumped] == ["midas.installed", "slo.burn"]

    def test_emitting_guard_keeps_own_counters_out(self, registry):
        plane = HealthPlane(
            slos=[
                SLO(
                    "meta",
                    "health",
                    target=0.5,
                    # An SLO that would match the plane's own alert counter.
                    sli=CounterRatioSLI(good=("noop",), bad=("slo.burns",)),
                    pairs=ONE_PAIR,
                    min_samples=1,
                ),
                _plane().engine.slos[0],
            ]
        ).attach(registry)
        for _ in range(4):
            registry.count("midas.failures", node="n1")
        plane.tick()
        # The renewals alert emitted slo.burns; the meta SLO saw nothing.
        meta = next(s for s in plane.engine.slos if s.name == "meta")
        assert meta.bad_total == 0.0

    def test_peak_survives_recovery(self, registry, sim):
        plane = _plane().attach(registry)
        for _ in range(4):
            registry.count("midas.failures", node="n1")
        plane.tick()
        assert plane.peak is not None and plane.peak.overall == "critical"
        sim.run_for(60.0)  # windows roll clean
        plane.tick()
        assert plane.report().overall == "healthy"
        # The incident snapshot is still there for the post-mortem.
        assert plane.peak.overall == "critical"
        assert plane.peak.conditions


class TestModel:
    def test_worst_status_ordering(self):
        assert worst_status([]) == "healthy"
        assert worst_status(["healthy", "degraded"]) == "degraded"
        assert worst_status(["degraded", "critical", "healthy"]) == "critical"

    def test_probe_conditions_reduce_to_statuses(self):
        model = HealthModel()
        model.declare_subsystem("resilience", "pipeline")
        model.add_probe(
            "breakers",
            lambda: [
                Condition(
                    subsystem="resilience",
                    status="degraded",
                    summary="breaker open",
                    cause=Cause("breaker.open", "n1->base"),
                )
            ],
        )
        report = model.evaluate(1.0)
        assert report.overall == "degraded"
        assert report.subsystems == {"resilience": "degraded", "pipeline": "healthy"}
        assert not report.healthy

    def test_burn_condition_carries_cause_chain(self, registry):
        plane = _plane().attach(registry)
        for _ in range(4):
            registry.count("midas.failures", node="n3")
        plane.tick()
        report = plane.report()
        burn = next(c for c in report.conditions if c.cause.kind == "slo.burn")
        assert burn.subsystem == "midas"
        assert burn.status == "critical"  # page severity
        (sample,) = burn.cause.causes
        assert sample.kind == "sample" and sample.subject == "n3"

    def test_report_render_mentions_the_problem(self, registry):
        plane = _plane().attach(registry)
        for _ in range(4):
            registry.count("midas.failures", node="n3")
        plane.tick()
        from repro.telemetry.obs import health_records, render_tower, tower_view

        text = render_tower(tower_view(health_records(plane)))
        assert "CRITICAL" in text
        assert "slo.burn[renewals]" in text
        assert "sample[n3]" in text

    def test_to_records_merges_rollups_and_slos(self, registry):
        plane = _plane().attach(registry)
        registry.count("midas.renewals", node="n1")
        records = plane.to_records()
        kinds = {record["type"] for record in records}
        assert kinds == {"rollup", "slo"}
