"""Epoch-stamped ROAMED: idempotence, ordering, refusal, anti-entropy.

PR 8 hardened federated roaming: announcements carry the arrival's roam
epoch ``(time, base)``, duplicates and reordered stale announcements are
ignored, announcements for *unknown* nodes are recorded so a late
re-adapt is refused, lost announcements are retried (with telemetry when
retries exhaust), and a periodic anti-entropy digest exchange converges
the bases even when every announcement was eaten.
"""

from __future__ import annotations

import pytest

from repro.core.platform import ProactivePlatform
from repro.extensions.call_logging import CallLogging
from repro.faults.plan import FaultPlan
from repro.midas.base import DEFAULT_ROAM_SYNC_INTERVAL, ROAMED
from repro.midas.pipeline import PipelineConfig
from repro.midas.receiver import OFFER
from repro.net.geometry import ORIGIN
from repro.net.node import NetworkNode
from repro.net.transport import RemoteError, Transport
from repro.resilience.policy import RetryPolicy
from repro.scenarios.nodes import StormNode


def build_platform(
    retry: bool = True,
    sync: float = DEFAULT_ROAM_SYNC_INTERVAL,
    pipeline: PipelineConfig | None = None,
):
    """Two linked bases, each with one extension, telemetry on."""
    platform = ProactivePlatform(
        seed=5,
        lease_duration=6.0,
        retry_policy=(
            RetryPolicy(max_attempts=3, initial_backoff=0.5, jitter=0.0)
            if retry
            else None
        ),
        roam_sync_interval=sync,
        pipeline=pipeline,
    )
    registry = platform.enable_telemetry()
    stations = [
        platform.create_base_station("base-a", ORIGIN),
        platform.create_base_station("base-b", ORIGIN),
    ]
    for station in stations:
        station.add_extension("roam-ext", lambda: CallLogging(type_pattern="X"))
    return platform, registry, stations[0].extension_base, stations[1].extension_base


def storm_node(platform, index: int) -> StormNode:
    device = platform.network.attach(NetworkNode(f"dev-{index}", ORIGIN))
    return StormNode(
        index, Transport(device, platform.simulator), platform.simulator, "class-a", 30.0
    )


def build_world(retry: bool = True, sync: float = DEFAULT_ROAM_SYNC_INTERVAL):
    """Two linked bases + one storm node, telemetry on."""
    platform, registry, base_a, base_b = build_platform(retry, sync)
    return platform, registry, base_a, base_b, storm_node(platform, 1)


def tracks(base, node_id: str) -> bool:
    return any(node == node_id for (node, _name) in base._adapted)


# -- epoch ordering (pure unit: announcements applied directly) -------------------


def test_roamed_for_unknown_node_is_recorded():
    platform, registry, base_a, base_b, node = build_world()
    base_a._serve_roamed("base-b", {"node_id": "ghost", "epoch": [5.0, "base-b"]})
    assert base_a._roam_epochs["ghost"] == (5.0, "base-b")
    kinds = [e.kind for e in registry.flight.events("base-a")]
    assert "midas.roam.recorded" in kinds


def test_duplicate_roamed_is_ignored():
    platform, registry, base_a, _base_b, _node = build_world()
    body = {"node_id": "ghost", "epoch": [5.0, "base-b"]}
    base_a._serve_roamed("base-b", body)
    base_a._serve_roamed("base-b", dict(body))
    assert registry.counter_total("midas.roam.stale_ignored") == 1
    assert base_a._roam_epochs["ghost"] == (5.0, "base-b")


def test_reordered_stale_roamed_loses_to_newer_epoch():
    platform, registry, base_a, _base_b, _node = build_world()
    # The *newer* arrival (at base-c) is delivered first ...
    base_a._serve_roamed("base-c", {"node_id": "ghost", "epoch": [9.0, "base-c"]})
    # ... and the older one (base-b) straggles in afterwards: ignored.
    base_a._serve_roamed("base-b", {"node_id": "ghost", "epoch": [4.0, "base-b"]})
    assert base_a._roam_epochs["ghost"] == (9.0, "base-c")
    assert registry.counter_total("midas.roam.stale_ignored") == 1
    # A genuinely newer arrival still wins.
    base_a._serve_roamed("base-d", {"node_id": "ghost", "epoch": [11.0, "base-d"]})
    assert base_a._roam_epochs["ghost"] == (11.0, "base-d")


def test_recorded_roam_refuses_late_nonfresh_adapt():
    platform, registry, base_a, _base_b, _node = build_world()
    base_a._serve_roamed("base-b", {"node_id": "ghost", "epoch": [5.0, "base-b"]})
    # A late reconcile pass (non-fresh sighting) must not resurrect it ...
    base_a.adapt_node("ghost")
    assert not tracks(base_a, "ghost")
    assert registry.counter_total("midas.roam.stale_refused") == 1
    # ... but a genuine re-registration here — necessarily *after* the
    # recorded arrival — overrides the record (newest epoch wins).
    platform.run_for(6.0)
    base_a.adapt_node("ghost", fresh=True)
    assert base_a._roam_epochs["ghost"][1] == "base-a"


def test_roamed_without_epoch_is_refused_with_an_error_reply():
    platform, registry, base_a, base_b, node = build_world()
    node.join("base-a")
    platform.run_for(3.0)
    arrival = base_a._roam_epochs["dev-1"]
    errors = []
    for node_id in ("dev-1", "ghost"):
        base_b.transport.request(
            "base-a",
            ROAMED,
            {"node_id": node_id},
            on_reply=lambda body: pytest.fail(f"acknowledged: {body}"),
            on_error=errors.append,
        )
    platform.run_for(1.0)
    assert [type(error) for error in errors] == [RemoteError, RemoteError]
    # An announcement that cannot be ordered changes nothing.
    assert tracks(base_a, "dev-1")
    assert base_a._roam_epochs["dev-1"] == arrival
    assert "ghost" not in base_a._roam_epochs


# -- the live announcement path ---------------------------------------------------


@pytest.mark.parametrize("retry", [True, False])
def test_migration_announcement_drops_old_home(retry):
    platform, registry, base_a, base_b, node = build_world(retry=retry)
    node.join("base-a")
    platform.run_for(3.0)
    assert tracks(base_a, "dev-1") and not tracks(base_b, "dev-1")
    node.migrate("base-b")
    platform.run_for(3.0)
    assert tracks(base_b, "dev-1")
    assert not tracks(base_a, "dev-1")
    assert registry.counter_total("midas.roam.announced") >= 1


def test_exhausted_announce_retries_count_telemetry():
    platform, registry, base_a, base_b, node = build_world(retry=True)
    node.join("base-a")
    platform.run_for(3.0)
    # Sever the base backbone only: the device can still reach base-b.
    platform.network.partition("base-a", "base-b")
    node.migrate("base-b")
    platform.run_for(20.0)
    assert tracks(base_a, "dev-1"), "without the announcement base-a keeps it"
    assert registry.counter_total("midas.roam.announce_failed") >= 1
    kinds = [e.kind for e in registry.flight.events("base-b")]
    assert "midas.roam.announce_failed" in kinds


def test_anti_entropy_converges_when_announcements_are_eaten():
    platform, registry, base_a, base_b, node = build_world(retry=True, sync=2.0)
    platform.install_faults(FaultPlan().drop(operation=ROAMED))
    node.join("base-a")
    platform.run_for(3.0)
    node.migrate("base-b")
    platform.run_for(15.0)
    assert tracks(base_b, "dev-1")
    assert not tracks(base_a, "dev-1"), "anti-entropy must reconcile the lost ROAMED"
    assert registry.counter_total("midas.roam.reconciled") >= 1
    assert registry.counter_total("midas.roam.sync_sent") >= 1


def test_roam_sync_resolves_conflict_toward_newest_epoch():
    platform, registry, base_a, base_b, _node = build_world()
    base_a._roam_epochs["ghost"] = (9.0, "base-a")
    # base-b claims an older arrival: the serving side reports a conflict.
    reply = base_a._serve_roam_sync("base-b", {"adapted": {"ghost": [4.0, "base-b"]}})
    assert reply["conflicts"] == {"ghost": [9.0, "base-a"]}
    # A newer claim is learned instead.
    reply = base_a._serve_roam_sync("base-b", {"adapted": {"ghost": [12.0, "base-b"]}})
    assert reply["conflicts"] == {}
    assert base_a._roam_epochs["ghost"] == (12.0, "base-b")


def test_anti_entropy_is_not_stalled_by_circuits_lost_announcements_opened():
    """Lost announcements open the announcer's circuit to its peer; the
    anti-entropy exchange with that peer must still get through."""
    platform, registry, base_a, base_b = build_platform(sync=4.0)
    platform.install_faults(FaultPlan().drop(operation=ROAMED))
    nodes = [storm_node(platform, index) for index in range(1, 13)]
    for position, node in enumerate(nodes):
        node.join("base-a" if position % 2 == 0 else "base-b")
    platform.run_for(4.5)
    for node in nodes:
        node.migrate("base-b" if node.home == "base-a" else "base-a")
    platform.run_for(6.0)
    assert base_a.resilient_client.breaker("base-b").times_opened >= 1
    assert base_b.resilient_client.breaker("base-a").times_opened >= 1
    for base in (base_a, base_b):
        assert base.adapted_nodes() == sorted(
            node.node_id for node in nodes if node.home == base.node_id
        )


def test_shed_announcement_counts_as_failed():
    """A ROAMED the peer's pipeline sheds is answered ``accepted: False``:
    the announcer must count it failed, not delivered."""
    platform, registry, base_a, base_b = build_platform(
        sync=1000.0,  # anti-entropy out of the picture
        pipeline=PipelineConfig(workers=1, queue_capacity=1, service_time=0.2),
    )
    nodes = [storm_node(platform, index) for index in range(1, 13)]
    for position, node in enumerate(nodes):
        node.join("base-a" if position % 2 == 0 else "base-b")
    platform.run_for(4.5)
    for node in nodes:
        node.migrate("base-b" if node.home == "base-a" else "base-a")
    platform.run_for(8.0)
    shed = sum(
        registry.counter_value(
            "midas.pipeline.shed", station=f"{base.node_id}.base", kind="roamed"
        )
        for base in (base_a, base_b)
    )
    assert shed > 0
    assert registry.counter_total("midas.roam.announce_failed") == shed
    failed = [
        event
        for base in (base_a, base_b)
        for event in registry.flight.events(base.node_id)
        if event.kind == "midas.roam.announce_failed"
    ]
    assert len(failed) == shed


def test_reconcile_of_a_node_whose_offers_fail_does_not_re_announce_it():
    """A node that stays put but keeps failing its offers is retried on
    every reconcile pass; that is not a new arrival, so its roam epoch
    keeps the join instant and no further ROAMED goes out."""
    platform, registry, base_a, base_b = build_platform(sync=1000.0)
    node = storm_node(platform, 1)

    def refuse(sender, body):
        raise RuntimeError("offer refused")

    node.transport.register(OFFER, refuse)
    node.join("base-a")
    platform.run_for(1.0)
    joined = base_a._roam_epochs["dev-1"]
    assert joined[1] == "base-a"
    platform.run_for(39.0)
    assert not tracks(base_a, "dev-1")
    assert registry.counter_total("midas.offers") == 7  # t = 0, 6, ..., 36
    assert registry.counter_total("midas.roam.announced") == 1
    assert base_a._roam_epochs["dev-1"] == joined
    assert base_b._roam_epochs["dev-1"] == joined


def test_expiry_of_a_stale_registration_does_not_drop_a_node_homed_here():
    """Each arrival registers a new service item, so a node that leaves
    base-a and returns within the registrar term leaves its first item
    to expire there.  That expiry must not drop the node while its
    newer registration at base-a is live."""
    platform, registry, base_a, base_b, node = build_world()
    moves = {10: "base-b", 20: "base-a"}  # half-second step -> new home
    node.join("base-a")
    untracked = []
    for step in range(80):  # sample every 0.5 s up to 40 s
        if step in moves:
            node.migrate(moves[step])
        platform.run_for(0.5)
        if node.home == "base-a" and not tracks(base_a, "dev-1"):
            untracked.append(platform.now)
    assert untracked == []
