"""Chaos: the full extension lifecycle under planned faults.

One base station distributes one extension to one robot while a
:class:`FaultPlan` eats 20% of all traffic and crashes the base mid-run
(volatile state lost, durable state kept).  The platform must converge
to exactly one installed copy, clean up completely on revocation, and —
because every fault draws from the same seeded RNG — do all of it
identically on every run of the same seed.
"""

import pytest

from repro.core.platform import ProactivePlatform
from repro.faults import FaultPlan
from repro.net.geometry import Position
from repro.resilience import RetryPolicy
from repro.telemetry import Timeline

from tests.support import TraceAspect, export_artifacts

SEEDS = [7, 21, 99]

#: Chaos window: loss for the first 40 s, one base crash at 12 s that
#: heals at 18 s.  After t=40 the radio is clean and the protocols can
#: finish converging.
def chaos_plan() -> FaultPlan:
    return (
        FaultPlan()
        .drop(probability=0.2, between=(0.0, 40.0))
        .crash("hall", at=12.0, down_for=6.0)
    )


def build_world(seed: int):
    platform = ProactivePlatform(
        seed=seed,
        lease_duration=8.0,
        retry_policy=RetryPolicy(max_attempts=4, initial_backoff=0.25),
    )
    registry = platform.enable_telemetry()
    hall = platform.create_base_station("hall", Position(0, 0))
    hall.add_extension("trace", TraceAspect)
    robot = platform.create_mobile_node("robot", Position(5, 0))
    return platform, registry, hall, robot


def run_lifecycle(seed: int):
    """Run the chaos scenario and return a summary of what happened."""
    platform, registry, hall, robot = build_world(seed)
    try:
        installs = []
        live = set()

        def on_installed(installed):
            # At-most-once: a second live copy of the same extension
            # would double advice on every intercepted call.
            assert installed.name not in live, "duplicate concurrent install"
            live.add(installed.name)
            installs.append((platform.now, installed.name))

        robot.adaptation.on_installed.connect(on_installed)
        robot.adaptation.on_withdrawn.connect(
            lambda installed, reason: live.discard(installed.name)
        )

        injector = platform.install_faults(chaos_plan())
        platform.run_for(60.0)

        # Converged: exactly the one extension, installed exactly once
        # at a time, despite loss and the crash.
        assert robot.extensions() == ["trace"]
        assert hall.extension_base.adapted_nodes() == ["robot"]

        # The faults really happened, and the causal timeline orders
        # them: the hall crashed, then restarted, and the copy that
        # survived to the end was installed on the robot's ring.
        assert injector.faults_injected > 0
        assert registry.counter_total("faults.injected") > 0
        timeline = Timeline.from_hub(registry.flight)
        crash = timeline.events("fault.crash").on("hall")
        restart = timeline.events("fault.restart").on("hall")
        assert crash.count() == 1 and restart.count() == 1
        assert crash.precedes(restart)
        installs_seen = timeline.events("midas.installed").on("robot")
        assert installs_seen.exists

        # Clean retirement on a clean radio: the hall drops the policy
        # (else the reconciler would re-offer it) and revokes; both
        # sides forget the lease and nothing resurrects it.
        injector.uninstall()
        hall.extension_base.catalog.remove("trace")
        hall.extension_base.revoke_node("robot")
        platform.run_for(30.0)
        assert robot.extensions() == []
        assert hall.extension_base.adapted_nodes() == []
        assert robot.adaptation._leases.active() == []

        # Retirement is causally ordered too: every install strictly
        # precedes the revocation withdrawal on the robot's own ring.
        final = Timeline.from_hub(registry.flight)
        revoked = final.events("midas.withdrawn").on("robot").where(reason="revoked")
        assert revoked.exists
        assert final.events("midas.installed").on("robot").precedes(revoked)

        return {
            "installs": installs,
            "faults": injector.faults_injected,
            "delivered": platform.network.messages_delivered,
            "dropped": platform.network.messages_dropped,
            # The flight timeline itself must replay identically — node,
            # kind and virtual time only (trace ids are process-global).
            "flight": [(e.node, e.kind, e.time) for e in final],
        }
    finally:
        export_artifacts(
            f"chaos-lifecycle-{seed}",
            lambda: platform.to_records() + registry.to_records(),
        )
        platform.disable_telemetry()


class TestChaosLifecycle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_lifecycle_converges_under_chaos(self, seed):
        summary = run_lifecycle(seed)
        # The extension went in at least once; reinstalls after the
        # crash are fine, duplicates were asserted against inline.
        assert summary["installs"]
        assert summary["faults"] > 0
        assert summary["dropped"] > 0

    def test_chaos_run_is_deterministic(self):
        first = run_lifecycle(SEEDS[0])
        second = run_lifecycle(SEEDS[0])
        assert first == second

    def test_crash_loses_volatile_state_only(self):
        """At the moment of the crash the base forgets who it adapted
        (volatile), but its catalog survives (durable) — so after the
        restart it re-offers and the robot converges again."""
        platform, registry, hall, robot = build_world(seed=5)
        try:
            platform.run_for(5.0)
            assert robot.extensions() == ["trace"]

            platform.install_faults(FaultPlan().crash("hall", at=6.0, down_for=4.0))
            platform.run_for(2.0)  # t = 7, hall is down
            assert hall.extension_base.adapted_nodes() == []
            assert "trace" in hall.extension_base.catalog

            platform.run_for(53.0)
            assert robot.extensions() == ["trace"]
            assert hall.extension_base.adapted_nodes() == ["robot"]
        finally:
            platform.disable_telemetry()
