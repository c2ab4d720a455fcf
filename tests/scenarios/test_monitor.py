"""InvariantMonitor: unit checks + the planted-dual-home mutation test.

The mutation test is the monitor's own proof of life: surgically create
the dual-home state a lost ROAMED announcement would leave behind
(announcements severed, anti-entropy stopped) and assert the monitor
reports *exactly* that violation, with a causal flight-recorder trace
that shows the silent migration.
"""

from __future__ import annotations

from repro.net.geometry import ORIGIN
from repro.net.network import Network
from repro.net.node import NetworkNode
from repro.net.transport import Transport
from repro.scenarios import (
    InvariantMonitor,
    StormSpec,
    StormWorld,
    plant_dual_home,
    report_from,
)
from repro.scenarios.nodes import HeldLease, StormNode
from repro.sim.kernel import Simulator
from repro.telemetry import MetricsRegistry
from repro.util.signal import Signal

MUTATION_SPEC = StormSpec(
    name="mutation",
    nodes=30,
    duration=20.0,
    settle=25.0,
    # No storm of its own, and no retries; plant_dual_home severs the
    # announcements and stops anti-entropy, so the planted silent
    # migration has nothing to save it.
    migrate_fraction=0.0,
    announce_attempts=0,
)


class FakeBase:
    """The slice of ExtensionBase the monitor reads."""

    def __init__(self, node_id: str):
        self.node_id = node_id
        self._adapted: dict[tuple[str, str], object] = {}
        self.on_quarantined = Signal(f"{node_id}.on_quarantined")
        self.catalog = None


def make_node(node_id: str = "unit-node") -> tuple[Simulator, StormNode]:
    sim = Simulator()
    network = Network(sim, seed=1)
    node = StormNode(
        0,
        Transport(network.attach(NetworkNode(node_id, ORIGIN)), sim),
        sim,
        "class-a",
        30.0,
    )
    return sim, node


def make_monitor(sim, bases, nodes, grace: float = 5.0) -> InvariantMonitor:
    registry = MetricsRegistry(clock=sim.clock)
    return InvariantMonitor(sim, bases, nodes, registry, interval=1.0, grace=grace)


# -- unit checks -------------------------------------------------------------------


def test_transient_dual_home_within_grace_is_tolerated():
    sim, node = make_node()
    a, b = FakeBase("base-a"), FakeBase("base-b")
    a._adapted[(node.node_id, "ext")] = object()
    b._adapted[(node.node_id, "ext")] = object()
    node.held[("base-a", "ext")] = HeldLease("l1", "ext", "base-a", 1, 8.0, 100.0)
    node.held[("base-b", "ext")] = HeldLease("l2", "ext", "base-b", 1, 8.0, 100.0)
    monitor = make_monitor(sim, {"base-a": a, "base-b": b}, {node.node_id: node})
    monitor.tick()
    assert monitor.violations == []
    assert monitor.last_dual_at == 0.0
    # The bases converge before grace: the watch entry is pruned.
    del b._adapted[(node.node_id, "ext")]
    del node.held[("base-b", "ext")]
    sim.run_for(2.0)
    monitor.tick()
    assert monitor.violations == []
    assert node.node_id not in monitor._dual_since


def test_persistent_dual_home_violates_after_grace():
    sim, node = make_node()
    a, b = FakeBase("base-a"), FakeBase("base-b")
    a._adapted[(node.node_id, "ext")] = object()
    b._adapted[(node.node_id, "ext")] = object()
    node.held[("base-a", "ext")] = HeldLease("l1", "ext", "base-a", 1, 8.0, 1e9)
    node.held[("base-b", "ext")] = HeldLease("l2", "ext", "base-b", 1, 8.0, 1e9)
    monitor = make_monitor(sim, {"base-a": a, "base-b": b}, {node.node_id: node})
    fired = []
    monitor.on_violation.connect(fired.append)
    monitor.tick()
    sim.run_for(6.0)
    monitor.tick()
    monitor.tick()  # a second tick must not double-report
    assert [v.invariant for v in monitor.violations] == ["single-home"]
    assert monitor.violations[0].subject == node.node_id
    assert len(fired) == 1


def test_base_side_phantom_lease_violates_after_grace():
    sim, node = make_node()
    a = FakeBase("base-a")
    a._adapted[(node.node_id, "ext")] = object()  # the node holds nothing
    monitor = make_monitor(sim, {"base-a": a}, {node.node_id: node})
    monitor.tick()
    sim.run_for(6.0)
    monitor.tick()
    assert [v.invariant for v in monitor.violations] == ["lease-soundness"]


def test_node_side_expired_lease_violates():
    sim, node = make_node()
    node.held[("base-a", "ext")] = HeldLease("l1", "ext", "base-a", 1, 8.0, 0.0)
    monitor = make_monitor(sim, {}, {node.node_id: node})
    sim.run_for(10.0)  # far past expiry + sweeper slack
    monitor.tick()
    assert [v.invariant for v in monitor.violations] == ["lease-soundness"]


def test_revocation_zombies_violate_after_deadline():
    sim, node = make_node()
    a = FakeBase("base-a")
    a._adapted[(node.node_id, "bad-ext")] = object()
    node.held[("base-a", "bad-ext")] = HeldLease("l1", "bad-ext", "base-a", 1, 8.0, 1e9)
    monitor = make_monitor(sim, {"base-a": a}, {node.node_id: node})
    monitor.expect_revocation("bad-ext", deadline=5.0)
    monitor.tick()
    assert monitor.violations == []  # before the deadline: still converging
    sim.run_for(6.0)
    monitor.tick()
    assert [v.invariant for v in monitor.violations] == ["revocation-completeness"]
    assert "bad-ext" in monitor.violations[0].subject


# -- the mutation test -------------------------------------------------------------


def test_planted_dual_home_is_caught_with_causal_trace():
    world = StormWorld(MUTATION_SPEC)
    try:
        plant_dual_home(world, "storm-0000", at=12.0)
        world.run_for(MUTATION_SPEC.total_time)
        world.monitor.tick()
        report = report_from(world)
    finally:
        world.close()
    assert [(v.invariant, v.subject) for v in report.violations] == [
        ("single-home", "storm-0000")
    ], "the monitor must report exactly the planted violation"
    violation = report.violations[0]
    assert "storm-base-" in violation.detail
    # The causal trace shows the silent migration that planted the bug.
    assert "storm.migrate" in violation.trace
    assert "storm-0000" in violation.trace


def test_unmutated_control_run_is_clean():
    world = StormWorld(MUTATION_SPEC)
    try:
        world.run_for(MUTATION_SPEC.total_time)
        world.monitor.tick()
        report = report_from(world)
    finally:
        world.close()
    assert report.clean, report.violations
