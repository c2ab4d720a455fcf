"""Storm scenarios: determinism across seeds + invariants under chaos.

The contract under test (ISSUE 8 acceptance):

- storms are deterministic: the same spec produces byte-identical
  fingerprints on every run, for each of three fixed seeds;
- the federated invariants hold under drop + partition chaos once the
  hardened roaming (retried announcements + epochs + anti-entropy) is
  on — the invariant monitor finishes every storm clean;
- the flight-recorder timeline explains the runs causally: a base only
  drops a roamer after the node's migration event.
"""

from __future__ import annotations

import logging

import pytest

from repro.scenarios import (
    StormReport,
    StormSpec,
    StormWorld,
    partition_storm,
    report_from,
    revocation_storm,
    run_storm,
    soak,
)
from repro.telemetry.obs import storm_records
from tests.support import export_artifacts

#: The acceptance seeds: each must replay identically.
SEEDS = (7, 21, 99)

_cache: dict[str, StormReport] = {}


def run_cached(spec: StormSpec) -> StormReport:
    """Run ``spec`` once per session; on violations, ship the black box.

    When ``REPRO_ARTIFACTS_DIR`` is set (the CI scenarios job), a dirty
    run exports its run artifact: the run record (spec JSON, seed,
    fingerprint, violations), node records, telemetry with flight rings,
    and the health plane, so the failure can be read and replayed
    locally from that one file.
    """
    key = spec.to_json()
    if key not in _cache:
        world = StormWorld(spec)
        try:
            world.run_for(spec.total_time)
            world.monitor.tick()
            report = report_from(world)
            if not report.clean:
                export_artifacts(f"storms-{spec.name}", lambda: storm_records(world))
            _cache[key] = report
        finally:
            world.close()
    return _cache[key]

CHAOS = StormSpec(
    name="chaos",
    bases=3,
    nodes=40,
    duration=20.0,
    settle=25.0,
    drop_roamed=0.4,
)


@pytest.fixture(autouse=True)
def _quiet_announce_warnings():
    """Dropped announcements are the point here; keep logs readable."""
    logging.disable(logging.WARNING)
    yield
    logging.disable(logging.NOTSET)


@pytest.mark.parametrize("seed", SEEDS)
def test_storms_replay_identically(seed):
    spec = CHAOS.with_overrides(seed=seed)
    first = run_cached(spec)
    second = run_storm(spec)  # a genuinely fresh, uncached run
    assert first.fingerprint == second.fingerprint
    assert first.counters == second.counters
    assert first.homes == second.homes


@pytest.mark.parametrize("seed", SEEDS)
def test_invariants_hold_under_drop_chaos(seed):
    report = run_cached(CHAOS.with_overrides(seed=seed))
    assert report.clean, report.violations
    assert report.dual_homed == []
    # The chaos was real: announcements were dropped and healed.
    assert report.network["dropped"] > 0
    assert (
        report.counters["midas.roam.reconciled"]
        + report.counters["midas.roam.stale_ignored"]
        > 0
    )
    # And every node that stayed ends single-homed where it holds leases.
    for node, tracked in report.homes.items():
        assert len(tracked) == 1, (node, tracked)


def test_timeline_orders_migration_before_drop():
    report = run_storm(CHAOS.with_overrides(seed=7, drop_roamed=0.0))
    migrated_at: dict[str, float] = {}
    drops: list[tuple[str, float]] = []
    for (node, kind, time, roamed, _peer) in report.roam_events:
        if kind == "storm.migrate" and node not in migrated_at:
            migrated_at[node] = time
        elif kind == "midas.roam.dropped":
            drops.append((roamed, time))
    assert drops, "a lossless storm must produce roam drops at old homes"
    for roamed, time in drops:
        assert roamed in migrated_at
        assert migrated_at[roamed] <= time, (
            f"{roamed} dropped at {time} before its first migration "
            f"at {migrated_at[roamed]}"
        )


def test_revocation_storm_leaves_no_zombies():
    report = run_cached(revocation_storm(nodes=50))
    assert report.clean, report.violations
    assert report.revocation_cleared_at is not None
    name = report.spec.revoke_extension
    for node, leases in report.held.items():
        assert not any(lease.endswith(f":{name}") for lease in leases), (node, leases)


def test_partition_storm_reconverges():
    report = run_cached(partition_storm(nodes=40))
    assert report.clean, report.violations
    assert report.dual_homed == []
    # Partitions really happened (the world logs them on the timeline).
    kinds = {kind for (_n, kind, _t, _r, _p) in report.roam_events}
    assert "storm.partition" in kinds and "storm.heal" in kinds


def test_soak_mixes_everything_and_stays_clean():
    report = run_cached(soak(nodes=50))
    assert report.clean, report.violations
    assert report.stats["churns_planned"] > 0
    assert report.stats["migrations"] > 0
    assert report.revocation_cleared_at is not None


def test_fire_and_forget_baseline_is_actually_broken(fire_and_forget):
    """The hardening is load-bearing: without it the storm bites.

    The paper's fire-and-forget announcements with no reconciliation,
    100% announcement loss: migrated nodes stay dual-homed until the
    registrar backstop, which the monitor's grace deliberately beats.
    """
    spec = CHAOS.with_overrides(seed=7, drop_roamed=1.0, announce_attempts=0)
    world = fire_and_forget(StormWorld(spec))
    try:
        world.run_for(spec.total_time)
        world.monitor.tick()
        report = report_from(world)
    finally:
        world.close()
    assert not report.clean
    assert {v.invariant for v in report.violations} == {"single-home"}
