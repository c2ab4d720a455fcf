"""Storm specifications: deterministic, replayable chaos scenarios.

A :class:`StormSpec` is plain data — every knob of a storm world (how
many bases and nodes, when the migration waves hit, what fraction of the
roaming control traffic the network eats, how patient the invariant
monitor is) in one JSON-serializable record.  The same spec + the same
seed is the same storm, event for event: specs round-trip through JSON
so a failing CI run can be replayed locally from its artifact.

Presets cover the scenario arc of ROADMAP item 5:

- :func:`roaming_storm` — flash-crowd waves of nodes migrating between
  linked bases while the network drops roaming announcements;
- :func:`revocation_storm` — a policy change mass-revokes an extension
  mid-storm; no zombie copy may survive;
- :func:`partition_storm` — the base backbone partitions and heals in
  cycles while nodes keep roaming across it;
- :func:`soak` — all of the above at once, plus churn (nodes leaving
  and re-joining), for long runs.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any

from repro.midas.base import DEFAULT_ROAM_SYNC_INTERVAL


@dataclass(frozen=True)
class StormSpec:
    """Everything one storm run needs, as replayable data."""

    name: str = "storm"
    seed: int = 7

    # -- world shape ------------------------------------------------------------
    #: Linked peer bases (2-4 is the federated-roaming regime).
    bases: int = 2
    #: Storm nodes (protocol stubs; thousands are cheap).
    nodes: int = 120
    #: Extensions per base catalog (``storm-ext-NN``, same names on
    #: every base — a migrating node gets the same policy at its new
    #: home, under fresh leases).
    catalog_size: int = 2
    #: Distinct device classes advertised by the nodes (quarantine marks
    #: scope to a class).
    node_classes: int = 4

    # -- timing -----------------------------------------------------------------
    #: Nodes join staggered across the first ``join_window`` seconds.
    join_window: float = 5.0
    #: The storm (waves, revocations, partitions) starts here.
    storm_start: float = 10.0
    #: Length of the storm window.
    duration: float = 40.0
    #: Quiet time after the storm; invariants must hold before it ends.
    settle: float = 30.0

    # -- leases -----------------------------------------------------------------
    #: Extension lease term (base-side keepalive cadence follows it).
    lease_duration: float = 8.0
    #: Registration lease the nodes *request* (registrars cap at their
    #: own max — 30s by default — so registrations are renewed in the
    #: background like a real DiscoveryClient would).
    registration_lease: float = 30.0

    # -- roaming hardening (the knobs under test) -------------------------------
    #: Retry budget for ROAMED announcements (and offers/revokes).
    #: 0 disables the retry policy: each announcement is sent once.
    announce_attempts: int = 3
    #: Anti-entropy digest-exchange period between peer bases.
    roam_sync_interval: float = DEFAULT_ROAM_SYNC_INTERVAL

    # -- invariant monitor ------------------------------------------------------
    monitor_interval: float = 1.0
    #: How long a node may be dual-homed (or a record otherwise stale)
    #: before the monitor calls it a violation.  Must sit *below* the
    #: registrar-expiry backstop (>= 20s after a migration with the
    #: default 30s cap) so a lost ROAMED is caught as a roaming bug, not
    #: silently healed by registration expiry.
    grace: float = 15.0

    # -- storm content ----------------------------------------------------------
    #: Fraction of the population that migrates during the storm.
    migrate_fraction: float = 0.6
    #: The migrating nodes hit in this many flash-crowd waves.
    migrate_waves: int = 3
    #: Each wave's migrations land within this many seconds.
    wave_spread: float = 2.0
    #: When set, every base revokes (and drops from its catalog) the
    #: extension ``revoke_extension`` at this time.
    revoke_at: float | None = None
    revoke_extension: str = "storm-ext-00"
    #: When set, ``quarantine_fraction`` of the nodes report this
    #: extension as quarantined at this time.
    quarantine_at: float | None = None
    quarantine_fraction: float = 0.02
    quarantine_extension: str = "storm-ext-01"
    #: Fraction of nodes that leave mid-storm and re-join later (churn).
    churn_fraction: float = 0.0
    #: How long a churning node stays away.
    churn_away: float = 12.0

    # -- injected faults --------------------------------------------------------
    #: Probability the network eats each ROAMED announcement (retries
    #: included — each retry is a fresh draw).
    drop_roamed: float = 0.0
    #: Base-backbone partition/heal cycles during the storm window.
    partition_cycles: int = 0
    partition_down: float = 3.0
    partition_gap: float = 10.0

    extras: dict[str, Any] = field(default_factory=dict)

    # -- derived ----------------------------------------------------------------

    @property
    def total_time(self) -> float:
        """Virtual seconds one run covers."""
        return self.storm_start + self.duration + self.settle

    def validate(self) -> None:
        if not (2 <= self.bases <= 8):
            raise ValueError(f"bases must be in [2, 8], got {self.bases}")
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")
        if self.catalog_size < 1:
            raise ValueError("catalog_size must be >= 1")
        if self.migrate_waves < 1:
            raise ValueError("migrate_waves must be >= 1")
        if not (0.0 <= self.migrate_fraction <= 1.0):
            raise ValueError("migrate_fraction must be in [0, 1]")
        if not (0.0 <= self.churn_fraction <= 1.0):
            raise ValueError("churn_fraction must be in [0, 1]")
        if self.roam_sync_interval <= 0:
            raise ValueError("roam_sync_interval must be > 0")
        if self.grace <= self.monitor_interval:
            raise ValueError("grace must exceed the monitor interval")
        if self.revoke_at is not None and not (
            self.storm_start <= self.revoke_at <= self.storm_start + self.duration
        ):
            raise ValueError("revoke_at must fall inside the storm window")
        if self.quarantine_at is not None and not (
            self.storm_start
            <= self.quarantine_at
            <= self.storm_start + self.duration
        ):
            raise ValueError("quarantine_at must fall inside the storm window")

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "StormSpec":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{key: value for key, value in data.items() if key in known})

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "StormSpec":
        return cls.from_dict(json.loads(text))

    def with_overrides(self, **overrides: Any) -> "StormSpec":
        """A copy with fields replaced (specs are frozen)."""
        return replace(self, **overrides)


# -- presets ---------------------------------------------------------------------


def roaming_storm(
    nodes: int = 200, bases: int = 3, seed: int = 7, **overrides: Any
) -> StormSpec:
    """Flash-crowd roaming with lossy announcements.

    Without retrying announcements + anti-entropy this spec dual-homes
    a good share of its migrators; with them it must stay clean.
    """
    spec = StormSpec(
        name="roaming-storm",
        seed=seed,
        bases=bases,
        nodes=nodes,
        migrate_fraction=0.6,
        migrate_waves=3,
        drop_roamed=0.4,
    )
    return spec.with_overrides(**overrides) if overrides else spec


def revocation_storm(
    nodes: int = 200, bases: int = 2, seed: int = 7, **overrides: Any
) -> StormSpec:
    """Mass revocation mid-storm: no zombie extension may survive it."""
    spec = StormSpec(
        name="revocation-storm",
        seed=seed,
        bases=bases,
        nodes=nodes,
        migrate_fraction=0.4,
        migrate_waves=2,
        drop_roamed=0.3,
        revoke_at=30.0,
        quarantine_at=25.0,
        quarantine_fraction=0.03,
    )
    return spec.with_overrides(**overrides) if overrides else spec


def partition_storm(
    nodes: int = 150, bases: int = 3, seed: int = 7, **overrides: Any
) -> StormSpec:
    """Roaming while the base backbone partitions and heals in cycles."""
    spec = StormSpec(
        name="partition-storm",
        seed=seed,
        bases=bases,
        nodes=nodes,
        migrate_fraction=0.5,
        migrate_waves=3,
        partition_cycles=2,
        partition_down=3.0,
        partition_gap=12.0,
        roam_sync_interval=2.5,
        settle=35.0,
    )
    return spec.with_overrides(**overrides) if overrides else spec


def soak(
    nodes: int = 300, bases: int = 4, seed: int = 7, **overrides: Any
) -> StormSpec:
    """Everything at once, for longer: waves + revocation + quarantine +
    partitions + churn.  Scale ``nodes``/``duration`` up for real soaks
    (the benchmark runs this at thousands of leaves)."""
    spec = StormSpec(
        name="soak",
        seed=seed,
        bases=bases,
        nodes=nodes,
        catalog_size=3,
        duration=60.0,
        settle=35.0,
        migrate_fraction=0.5,
        migrate_waves=4,
        drop_roamed=0.25,
        revoke_at=45.0,
        quarantine_at=35.0,
        quarantine_fraction=0.02,
        churn_fraction=0.1,
        partition_cycles=1,
        partition_down=3.0,
        partition_gap=15.0,
        roam_sync_interval=3.0,
        monitor_interval=2.0,
    )
    return spec.with_overrides(**overrides) if overrides else spec


def ops_storm_spec(
    seed: int = 7, drop_roamed: float = 0.4, nodes: int = 60, bases: int = 3
) -> StormSpec:
    """The seeded roaming storm ``python -m repro obs storm`` (and CI) replays.

    With ``drop_roamed=0.4`` and single-shot announcements this burns
    the roam-convergence SLO deterministically; with ``drop_roamed=0``
    the same seed stays green end to end.
    """
    return roaming_storm(nodes=nodes, bases=bases, seed=seed).with_overrides(
        drop_roamed=drop_roamed,
        announce_attempts=1,
        roam_sync_interval=6.0,
    )


#: Name -> preset factory, for CLIs and CI jobs.
PRESETS = {
    "roaming": roaming_storm,
    "revocation": revocation_storm,
    "partition": partition_storm,
    "soak": soak,
}
