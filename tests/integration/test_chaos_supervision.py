"""Chaos: a hostile extension under full platform supervision.

One hall distributes two extensions to one robot: a well-behaved tracer
and a saboteur that raises on every 3rd interception.  The supervisor
must contain every misbehaviour (the application never sees an advice
exception), strike the saboteur out within the window, withdraw it, and
report back to the hall — which stops re-offering that version to the
robot's node class.  The whole sequence hangs off one connected trace
and replays identically on a fixed seed.
"""

from __future__ import annotations

import pytest

from repro.core.platform import ProactivePlatform
from repro.faults import FaultyExtension
from repro.net.geometry import Position
from repro.supervision import STRIKE_ERROR, SupervisionPolicy
from repro.telemetry import Timeline

from tests.support import Engine, TraceAspect, export_artifacts, fresh_class

SEEDS = [7, 21, 99]

WORKLOAD_CALLS = 40  # strikes land at interceptions 3, 6 and 9


def build_world(seed: int):
    platform = ProactivePlatform(
        seed=seed,
        supervision=SupervisionPolicy(max_strikes=3, strike_window=30.0),
    )
    registry = platform.enable_telemetry()
    hall = platform.create_base_station("hall", Position(0, 0))
    hall.add_extension(
        "saboteur", lambda: FaultyExtension(every=3, method_pattern="throttle")
    )
    hall.add_extension("tracer", TraceAspect)
    robot = platform.create_mobile_node(
        "robot", Position(5, 0), attributes={"class": "robot"}
    )
    return platform, registry, hall, robot


def run_chaos(seed: int) -> dict:
    """Run the scenario and return a determinism fingerprint."""
    platform, registry, hall, robot = build_world(seed)
    try:
        quarantines = []
        robot.supervisor.on_quarantine.connect(
            # The supervisor knows the aspect, not the catalog name (the
            # receiver maps one to the other, and its auto-generated
            # aspect name is not stable across runs in one process).
            lambda aspect, health: quarantines.append(
                (platform.now, tuple(strike.kind for strike in health.strikes))
            )
        )
        withdrawn = []
        robot.adaptation.on_withdrawn.connect(
            lambda installed, reason: withdrawn.append((installed.name, reason))
        )

        platform.run_for(10.0)
        assert set(robot.extensions()) == {"saboteur", "tracer"}

        engine = robot.load_class(fresh_class(Engine))()
        # Zero uncaught advice exceptions: every misbehaviour is
        # contained, so the workload itself must run to completion.
        for _ in range(WORKLOAD_CALLS):
            engine.throttle(1)
        assert engine.rpm == WORKLOAD_CALLS

        # Struck out within the window: three error strikes, quarantined,
        # withdrawn — while the innocent tracer keeps running.
        assert quarantines == [(platform.now, (STRIKE_ERROR,) * 3)]
        assert ("saboteur", "quarantined") in withdrawn
        assert "saboteur" not in robot.extensions()
        assert "tracer" in robot.extensions()
        assert registry.counter_total("supervision.contained") == 3

        # The health report reaches the hall, which holds the bad
        # version back from this node class on every later reconcile.
        platform.run_for(60.0)
        assert "saboteur" not in robot.extensions()
        assert "tracer" in robot.extensions()
        assert not hall.extension_base.catalog.is_healthy("saboteur", "robot")
        assert registry.counter_total("midas.quarantines") == 1
        assert registry.counter_total("midas.offers_suppressed") > 0

        # One connected trace covers the whole arc: the offer that
        # delivered the saboteur, its install, and its quarantine.
        for spans in registry.traces().values():
            names = {span.name for span in spans}
            if "midas.quarantine" in names:
                assert "midas.install" in names
                assert "midas.offer" in names
                break
        else:
            pytest.fail("no trace connects offer, install and quarantine")

        # The same arc, as a causal invariant on the merged timeline:
        # three contained strikes on the robot, then the quarantine, then
        # the withdrawal it forces, then the health report on the hall.
        timeline = Timeline.from_hub(registry.flight)
        strikes = timeline.events("supervision.contained").on("robot")
        quarantine = timeline.events("supervision.quarantined").on("robot")
        withdrawal = (
            timeline.events("midas.withdrawn").on("robot").where(reason="quarantined")
        )
        report = timeline.events("midas.quarantine_reported").on("hall")
        assert strikes.count() == 3
        assert quarantine.count() == 1
        assert strikes.precedes(quarantine)
        assert quarantine.precedes(withdrawal)
        assert withdrawal.precedes(report)
        # The report rides the install's trace: the hall can walk from
        # the misbehaviour straight back to the offer that shipped it.
        install = (
            timeline.events("midas.installed").on("robot").where(extension="saboteur")
        )
        assert install.exists
        assert report.trace_ids() <= install.trace_ids()

        return {
            "quarantines": quarantines,
            "withdrawn": withdrawn,
            "extensions": sorted(robot.extensions()),
            "contained": registry.counter_total("supervision.contained"),
            "suppressed": registry.counter_total("midas.offers_suppressed"),
            "delivered": platform.network.messages_delivered,
            "rpm": engine.rpm,
            # Node/kind/time of every flight event must replay (trace
            # ids are process-global and excluded on purpose).
            "flight": [(e.node, e.kind, e.time) for e in timeline],
        }
    finally:
        export_artifacts(
            f"chaos-supervision-{seed}",
            lambda: platform.to_records() + registry.to_records(),
        )
        platform.disable_telemetry()


class TestChaosSupervision:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_saboteur_quarantined_workload_unharmed(self, seed):
        fingerprint = run_chaos(seed)
        assert fingerprint["extensions"] == ["tracer"]
        assert fingerprint["contained"] == 3

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chaos_supervision_is_deterministic(self, seed):
        assert run_chaos(seed) == run_chaos(seed)
