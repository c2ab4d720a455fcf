"""Storm worlds: seeded, replayable federated-roaming chaos.

:class:`StormWorld` turns a :class:`~repro.scenarios.spec.StormSpec`
into a running world — 2-4 linked base stations sharing a catalog,
hundreds-to-thousands of :class:`~repro.scenarios.nodes.StormNode`
stubs, a :class:`~repro.scenarios.monitor.InvariantMonitor` ticking
throughout — and schedules the whole storm up front from one seeded RNG:
staggered joins, flash-crowd migration waves, mass revocation, mass
quarantine reports, churn, backbone partition/heal cycles, and a
FaultPlan eating a share of the roaming control traffic.

Every draw comes from ``random.Random(f"storm:{seed}")`` at build time
and the simulator is deterministic, so the same spec replays the same
storm event-for-event — :meth:`StormWorld.run` fingerprints enforce it.
"""

from __future__ import annotations

import random
from itertools import combinations

from repro.core.platform import ProactivePlatform
from repro.extensions.call_logging import CallLogging
from repro.faults.plan import FaultPlan
from repro.midas.base import ROAMED
from repro.net.geometry import ORIGIN
from repro.net.node import NetworkNode
from repro.net.transport import Transport
from repro.resilience.policy import RetryPolicy
from repro.scenarios.monitor import InvariantMonitor
from repro.scenarios.nodes import StormNode
from repro.scenarios.spec import StormSpec
from repro.sim.timers import PeriodicTimer
from repro.telemetry import MetricsRegistry
from repro.telemetry.health import (
    BurnPair,
    Cause,
    Condition,
    CounterRatioSLI,
    GaugeThresholdSLI,
    HealthPlane,
    RollupRule,
    SLO,
)

#: Dual-home lag (virtual seconds) past which a monitor sample counts
#: against the roam-convergence SLO.  Well under ``grace`` (an
#: *invariant* breach) but above the sub-second healing a healthy
#: ROAMED announcement achieves — so lost announcements burn budget
#: long before they become violations.
ROAM_LAG_BOUND = 2.0


def storm_health_plane(spec: StormSpec) -> HealthPlane:
    """The storm-scaled health plane: roaming SLOs + windowed rollups.

    Burn windows derive from the monitor cadence rather than wall-clock
    SRE defaults: the fast (page) pair needs sustained badness across
    ~10 monitor samples, the slow (ticket) pair across most of the run —
    the same multi-window shape as the classic 5m/1h + 6h/3d pairs,
    compressed to storm time.
    """
    interval = spec.monitor_interval
    horizon = max(spec.total_time, 12 * interval)
    pairs = (
        BurnPair(
            "fast",
            long_window=10 * interval,
            short_window=3 * interval,
            threshold=3.0,
            severity="page",
        ),
        BurnPair(
            "slow",
            long_window=max(min(0.75 * horizon, 60 * interval), 12 * interval),
            short_window=10 * interval,
            threshold=1.0,
            severity="ticket",
        ),
    )
    return HealthPlane(
        slos=[
            SLO(
                "roam-convergence",
                "roaming",
                target=0.9,
                sli=GaugeThresholdSLI("scenarios.roam_lag", ROAM_LAG_BOUND),
                pairs=pairs,
                min_samples=4,
                description=f"dual-home lag <= {ROAM_LAG_BOUND:g}s",
            ),
            SLO(
                "roam-delivery",
                "roaming",
                target=0.9,
                sli=CounterRatioSLI(
                    good=("midas.roam.announced",),
                    bad=("midas.roam.announce_failed",),
                ),
                pairs=pairs,
                min_samples=4,
            ),
        ],
        rules=[
            RollupRule(
                "roam-rate", "midas.roam.*", "rate", window=10 * interval
            ),
            RollupRule(
                "violation-rate",
                "invariants.violations",
                "rate",
                window=10 * interval,
            ),
        ],
        name=f"storm:{spec.name}",
    )


def base_name(index: int) -> str:
    return f"storm-base-{index}"


def ext_name(index: int) -> str:
    return f"storm-ext-{index:02d}"


def node_name(index: int) -> str:
    return f"storm-{index:04d}"


class StormWorld:
    """One built (not yet run) storm; see :func:`repro.scenarios.harness.run_storm`."""

    def __init__(
        self,
        spec: StormSpec,
        registry: MetricsRegistry | None = None,
        dump_dir: str | None = None,
        health: bool = True,
    ):
        spec.validate()
        self.spec = spec
        retry = (
            RetryPolicy(
                max_attempts=spec.announce_attempts,
                initial_backoff=0.5,
                multiplier=2.0,
                max_backoff=3.0,
                jitter=0.3,
            )
            if spec.announce_attempts > 0
            else None
        )
        self.platform = ProactivePlatform(
            seed=spec.seed,
            lease_duration=spec.lease_duration,
            retry_policy=retry,
            roam_sync_interval=spec.roam_sync_interval,
        )
        self.registry = self.platform.enable_telemetry(registry, dump_dir=dump_dir)
        self.simulator = self.platform.simulator
        self.network = self.platform.network
        self.rng = random.Random(f"storm:{spec.seed}")

        # -- bases (auto-wired + peer-linked by the platform) ---------------------
        self.stations = []
        for index in range(spec.bases):
            station = self.platform.create_base_station(base_name(index), ORIGIN)
            for ext in range(spec.catalog_size):
                station.add_extension(
                    ext_name(ext),
                    lambda ext=ext: CallLogging(type_pattern=f"StormTarget{ext}"),
                )
            self.stations.append(station)
        self.station_ids = [station.node_id for station in self.stations]
        self.bases = {
            station.node_id: station.extension_base for station in self.stations
        }

        # -- nodes ----------------------------------------------------------------
        self.storm_nodes: dict[str, StormNode] = {}
        for index in range(spec.nodes):
            node = self.network.attach(NetworkNode(node_name(index), ORIGIN))
            transport = Transport(node, self.simulator)
            node_class = f"storm-class-{index % spec.node_classes}"
            self.storm_nodes[node.node_id] = StormNode(
                index, transport, self.simulator, node_class, spec.registration_lease
            )

        # -- continuous machinery -------------------------------------------------
        self.monitor = InvariantMonitor(
            self.simulator,
            self.bases,
            self.storm_nodes,
            self.registry,
            interval=spec.monitor_interval,
            grace=spec.grace,
        ).start()
        self._sweeper = PeriodicTimer(
            self.simulator, 1.0, self._sweep_nodes, name="storm.sweep"
        ).start()
        #: The storm's health plane: fed by the registry stream (the
        #: monitor's lag gauges, roaming counters), burn-evaluated every
        #: monitor interval.  ``slo.burn`` events auto-dump flight rings
        #: through the same hub invariant violations use.
        self.health: HealthPlane | None = None
        if health:
            self.health = storm_health_plane(spec).attach(self.registry)
            self.health.watch_platform(self.platform)
            self.health.model.declare_subsystem("roaming", "invariants")
            self.health.model.add_probe("invariants", self._invariant_conditions)
            self.health.start(self.simulator, interval=spec.monitor_interval)

        # -- storm accounting -----------------------------------------------------
        self.migrations_planned = 0
        self.churns_planned = 0
        self.revocation_cleared_at: float | None = None
        self._revocation_probe: PeriodicTimer | None = None

        self._install_faults()
        self._plan()

    # -- faults ------------------------------------------------------------------

    def _install_faults(self) -> None:
        if self.spec.drop_roamed > 0:
            self.platform.install_faults(
                FaultPlan().drop(operation=ROAMED, probability=self.spec.drop_roamed)
            )

    # -- the storm plan ----------------------------------------------------------

    def _at(self, time: float, fn, *args) -> None:
        self.simulator.schedule(time, fn, *args)

    def _plan(self) -> None:
        spec = self.spec
        rng = self.rng
        node_ids = sorted(self.storm_nodes)
        planned_home: dict[str, str] = {}

        # Staggered joins across the join window.
        for position, node_id in enumerate(node_ids):
            base = self.station_ids[rng.randrange(spec.bases)]
            planned_home[node_id] = base
            at = spec.join_window * (position + 1) / len(node_ids)
            self._at(at, self.storm_nodes[node_id].join, base)

        # Churners leave mid-storm and re-join later, maybe elsewhere.
        churners = [n for n in node_ids if rng.random() < spec.churn_fraction]
        self.churns_planned = len(churners)

        # Flash-crowd migration waves.
        migrators = [n for n in node_ids if rng.random() < spec.migrate_fraction]
        if migrators and spec.migrate_waves:
            per_wave = max(1, (len(migrators) + spec.migrate_waves - 1) // spec.migrate_waves)
            for wave in range(spec.migrate_waves):
                wave_time = spec.storm_start + wave * spec.duration / spec.migrate_waves
                for node_id in migrators[wave * per_wave : (wave + 1) * per_wave]:
                    others = [b for b in self.station_ids if b != planned_home[node_id]]
                    target = others[rng.randrange(len(others))]
                    planned_home[node_id] = target
                    self._at(
                        wave_time + rng.uniform(0.0, spec.wave_spread),
                        self.storm_nodes[node_id].migrate,
                        target,
                    )
                    self.migrations_planned += 1

        # Mass revocation: a policy change pulls one extension everywhere.
        if spec.revoke_at is not None:
            self._at(spec.revoke_at, self._revoke_storm)

        # Mass quarantine reports.
        if spec.quarantine_at is not None:
            count = max(1, int(spec.quarantine_fraction * len(node_ids)))
            for node_id in rng.sample(node_ids, min(count, len(node_ids))):
                self._at(
                    spec.quarantine_at + rng.uniform(0.0, 1.0),
                    self.storm_nodes[node_id].report_quarantine,
                    spec.quarantine_extension,
                )

        # Churn: leave during the first half of the storm, return later.
        for node_id in churners:
            away_at = spec.storm_start + rng.uniform(0.0, spec.duration * 0.5)
            back_base = self.station_ids[rng.randrange(spec.bases)]
            planned_home[node_id] = back_base
            self._at(away_at, self.storm_nodes[node_id].leave)
            self._at(away_at + spec.churn_away, self._rejoin, node_id, back_base)

        # Backbone partition/heal cycles (whole-backbone splits).
        for cycle in range(spec.partition_cycles):
            start = spec.storm_start + cycle * (spec.partition_down + spec.partition_gap)
            self._at(start, self._partition_backbone)
            self._at(start + spec.partition_down, self._heal_backbone)

    # -- scheduled actions ---------------------------------------------------------

    def _sweep_nodes(self) -> None:
        now = self.simulator.now
        for node in self.storm_nodes.values():
            node.sweep(now)

    def _rejoin(self, node_id: str, base_id: str) -> None:
        self.storm_nodes[node_id].rejoin(self.network, base_id)

    def _partition_backbone(self) -> None:
        for a, b in combinations(self.station_ids, 2):
            self.network.partition(a, b)
        self.registry.event("storm.partition", node="world")

    def _heal_backbone(self) -> None:
        for a, b in combinations(self.station_ids, 2):
            self.network.heal(a, b)
        self.registry.event("storm.heal", node="world")

    def _revoke_storm(self) -> None:
        spec = self.spec
        name = spec.revoke_extension
        self.registry.event("storm.revocation", node="world", extension=name)
        for base in self.bases.values():
            if name in base.catalog:
                base.catalog.remove(name)
            for (node, ext) in list(base._adapted):
                if ext == name:
                    base.revoke(node, ext, reason="storm-revocation")
        # Revoked copies must be gone once lost revokes had time to lapse.
        self.monitor.expect_revocation(
            name, self.simulator.now + spec.lease_duration + spec.grace
        )
        if self._revocation_probe is None:
            self._revocation_probe = PeriodicTimer(
                self.simulator, 0.5, self._probe_revocation, name="storm.revocation"
            ).start()

    def _probe_revocation(self) -> None:
        name = self.spec.revoke_extension
        for base in self.bases.values():
            if any(ext == name for (_node, ext) in base._adapted):
                return
        for node in self.storm_nodes.values():
            if node.attached and node.holds(name):
                return
        self.revocation_cleared_at = self.simulator.now
        if self._revocation_probe is not None:
            self._revocation_probe.stop()
            self._revocation_probe = None

    def _invariant_conditions(self) -> list[Condition]:
        """Monitor violations become critical health conditions."""
        violations = self.monitor.violations
        if not violations:
            return []
        causes = tuple(
            Cause(
                "invariant.violation",
                f"{v.invariant}:{v.subject}",
                f"t={v.time:.1f}s — {v.detail}",
            )
            for v in violations[:5]
        )
        kinds = sorted({v.invariant for v in violations})
        return [
            Condition(
                subsystem="invariants",
                status="critical",
                summary=(
                    f"{len(violations)} invariant violation(s): "
                    + ", ".join(kinds)
                ),
                cause=Cause(
                    "invariants", "monitor",
                    f"{self.monitor.ticks} ticks", causes=causes,
                ),
            )
        ]

    # -- convenience -------------------------------------------------------------

    def other_base(self, node_id: str) -> str:
        """A deterministic peer base different from the node's home."""
        home = self.storm_nodes[node_id].home
        for base_id in self.station_ids:
            if base_id != home:
                return base_id
        raise ValueError("storm worlds always have at least two bases")

    def homes(self) -> dict[str, list[str]]:
        """node -> bases tracking it right now (from the bases' books)."""
        homes: dict[str, set[str]] = {}
        for base_id, base in self.bases.items():
            for (node, _name) in base._adapted:
                homes.setdefault(node, set()).add(base_id)
        return {node: sorted(tracked) for node, tracked in sorted(homes.items())}

    def run_for(self, seconds: float) -> None:
        self.platform.run_for(seconds)

    def close(self) -> None:
        if self.health is not None:
            self.health.stop()
        self.platform.disable_telemetry()
