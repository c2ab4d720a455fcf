"""Run storms end to end and report on them.

:func:`run_storm` is the one-call entry point: build a
:class:`~repro.scenarios.storms.StormWorld` from a spec, run it to
``spec.total_time``, take a final invariant reading, and fold the whole
run into a :class:`StormReport`.

The report's :attr:`~StormReport.fingerprint` is a SHA-256 over the
run's *deterministic* observable state — final homes, held leases,
violations, the roaming flight-event stream, roaming counters, and
network totals.  Process-global artifacts (lease ids, trace ids, error
strings) are deliberately excluded, so the same spec fingerprints
identically in any process — the replayability contract the scenario
tests enforce across seeds.

:func:`plant_dual_home` is the monitor's mutation test: it surgically
creates the dual-home state (a node registered at a second base while
the first base is never told and reconciliation is off) that a correct
monitor must flag — and exactly flag.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from repro.scenarios.monitor import Violation
from repro.scenarios.spec import StormSpec
from repro.scenarios.storms import StormWorld
from repro.telemetry import MetricsRegistry

#: Roaming counters folded into reports and fingerprints.
ROAM_COUNTERS = (
    "midas.roam.announced",
    "midas.roam.announce_failed",
    "midas.roam.dropped",
    "midas.roam.recorded",
    "midas.roam.stale_ignored",
    "midas.roam.stale_refused",
    "midas.roam.sync_sent",
    "midas.roam.sync_failed",
    "midas.roam.reconciled",
    "invariants.violations",
)

#: Flight-event kinds whose stream is part of the fingerprint.
FINGERPRINT_KINDS = (
    "midas.roam.dropped",
    "midas.roam.recorded",
    "midas.roam.reconciled",
    "midas.roam.announce_failed",
    "invariant.violation",
    "storm.migrate",
    "storm.partition",
    "storm.heal",
)


@dataclass
class StormReport:
    """Everything one storm run produced, JSON-exportable."""

    spec: StormSpec
    violations: list[Violation]
    #: node -> bases still tracking it when the run ended.
    homes: dict[str, list[str]]
    #: node -> sorted ``granter:extension`` leases still held.
    held: dict[str, list[str]]
    counters: dict[str, int]
    network: dict[str, int]
    stats: dict[str, Any] = field(default_factory=dict)
    #: Roaming flight events as (node, kind, time, roamed, peer) tuples.
    roam_events: list[tuple] = field(default_factory=list)
    #: Health-plane verdict at the end of the run (None if disabled).
    #: Deliberately NOT part of the fingerprint: the judgment layer must
    #: be free to evolve without invalidating replay fingerprints.
    health: dict[str, Any] | None = None
    last_dual_at: float | None = None
    revocation_cleared_at: float | None = None
    ticks: int = 0

    @property
    def clean(self) -> bool:
        return not self.violations

    @property
    def dual_homed(self) -> list[str]:
        """Nodes still tracked by more than one base at the end."""
        return sorted(n for n, tracked in self.homes.items() if len(tracked) > 1)

    def to_dict(self) -> dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "violations": [v.to_dict() for v in self.violations],
            "homes": self.homes,
            "held": self.held,
            "counters": self.counters,
            "network": self.network,
            "stats": self.stats,
            "last_dual_at": self.last_dual_at,
            "revocation_cleared_at": self.revocation_cleared_at,
            "ticks": self.ticks,
            "health": self.health,
            "fingerprint": self.fingerprint,
        }

    @property
    def fingerprint(self) -> str:
        """SHA-256 of the run's deterministic observable state.

        Covers final homes, held leases, violation keys, the roaming
        event stream, roaming counters and network totals; excludes
        process-global ids (leases, traces) and free-form error text so
        the same spec fingerprints identically in any process.
        """
        canonical = {
            "homes": self.homes,
            "held": self.held,
            "violations": sorted(
                (v.invariant, v.subject, round(v.time, 6)) for v in self.violations
            ),
            "events": self.roam_events,
            "counters": self.counters,
            "network": self.network,
            "last_dual_at": self.last_dual_at,
            "revocation_cleared_at": self.revocation_cleared_at,
        }
        payload = json.dumps(canonical, sort_keys=True, default=str)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def summary(self) -> str:
        """One human line, for logs and benchmark output."""
        verdict = "clean" if self.clean else f"{len(self.violations)} VIOLATIONS"
        return (
            f"{self.spec.name}[seed={self.spec.seed}] nodes={self.spec.nodes} "
            f"bases={self.spec.bases}: {verdict}, "
            f"dual_homed={len(self.dual_homed)}, "
            f"announced={self.counters.get('midas.roam.announced', 0)}, "
            f"reconciled={self.counters.get('midas.roam.reconciled', 0)}"
        )


def report_from(world: StormWorld) -> StormReport:
    """Fold a finished world into a :class:`StormReport`."""
    registry = world.registry
    counters = {
        name: int(registry.counter_total(name)) for name in ROAM_COUNTERS
    }
    network = world.network
    hub = registry.flight
    roam_events: list[tuple] = []
    if hub is not None:
        wanted = set(FINGERPRINT_KINDS)
        for event in hub.events():
            if event.kind in wanted:
                roam_events.append(
                    (
                        event.node,
                        event.kind,
                        round(event.time, 6),
                        str(event.get("roamed", "")),
                        str(event.get("peer", event.get("base", ""))),
                    )
                )
    roam_events.sort()
    nodes = world.storm_nodes
    return StormReport(
        spec=world.spec,
        violations=list(world.monitor.violations),
        homes=world.homes(),
        held={
            node_id: sorted(f"{g}:{n}" for (g, n) in node.held)
            for node_id, node in sorted(nodes.items())
            if node.held
        },
        counters=counters,
        network={
            "transmitted": network.messages_transmitted,
            "delivered": network.messages_delivered,
            "dropped": network.messages_dropped,
        },
        stats={
            "migrations_planned": world.migrations_planned,
            "migrations": sum(n.migrations for n in nodes.values()),
            "installs": sum(n.installs for n in nodes.values()),
            "withdrawals": sum(n.withdrawals for n in nodes.values()),
            "churns_planned": world.churns_planned,
            "monitor_ticks": world.monitor.ticks,
        },
        roam_events=roam_events,
        last_dual_at=world.monitor.last_dual_at,
        revocation_cleared_at=world.revocation_cleared_at,
        ticks=world.monitor.ticks,
        health=_health_dict(world),
    )


def _health_dict(world: StormWorld) -> dict[str, Any] | None:
    """Final health verdict plus the peak mid-run incident snapshot."""
    if world.health is None:
        return None
    health = world.health.report().to_dict()
    if world.health.peak is not None:
        health["peak"] = world.health.peak.to_dict()
    return health


def run_storm(
    spec: StormSpec,
    registry: MetricsRegistry | None = None,
    dump_dir: str | None = None,
    health: bool = True,
) -> StormReport:
    """Build, run and report one storm (the whole ``spec.total_time``)."""
    world = StormWorld(spec, registry=registry, dump_dir=dump_dir, health=health)
    try:
        world.run_for(spec.total_time)
        world.monitor.tick()  # a final reading at the boundary
        if world.health is not None:
            world.health.tick()  # final burn reading at the same boundary
        return report_from(world)
    finally:
        world.close()


def plant_dual_home(world: StormWorld, node_id: str, at: float) -> str:
    """Schedule a *silent* migration: the mutation the monitor must catch.

    At ``at``, ``node_id`` registers at a peer base while its old base's
    ROAMED announcement is suppressed by pointing the announcer at an
    empty peer list and anti-entropy is stopped — the bases never hear
    about the move, so the node stays dual-homed until the registrar
    backstop (past any reasonable ``grace``).
    """

    def mutate() -> None:
        # Sever the announcement path only: every base forgets its peers
        # (no ROAMED, no anti-entropy), then the node migrates normally.
        for base in world.bases.values():
            base._peer_bases.clear()
            if base._roam_sync_timer is not None:
                base._roam_sync_timer.stop()
                base._roam_sync_timer = None
        world.storm_nodes[node_id].migrate(world.other_base(node_id))

    world.simulator.schedule(at, mutate)
