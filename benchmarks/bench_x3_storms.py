"""X3 — storm scenarios at fleet scale: convergence under chaos.

PR 8's scenario subsystem promises that federated roaming *converges*
under storms, not just that small tests pass.  X3 measures that promise
at 1000 nodes:

- **roam-storm convergence** — a flash-crowd roaming storm across three
  linked bases with 40% of ROAMED announcements eaten: how long after
  the storm window does the last dual-home disappear?  (The monitor's
  ``last_dual_at`` is exactly that instant; clean means every migrator
  ended single-homed well inside the settle window.)
- **revocation completion** — a mass revocation mid-storm: how long
  until no copy of the revoked extension survives on any base's books
  or any attached node?

Both runs must finish with zero invariant violations — the benchmark
doubles as the scenario acceptance gate at 5-10x test scale.  One
trajectory row per full run lands in ``BENCH_storms.json``; all numbers
are virtual-time / counter metrics, deterministic for the fixed seed.

A sweep replays the 200-node roaming storms that ended dual-homed while
anti-entropy went through the circuit breakers lost announcements open;
each must now finish clean.
"""

from __future__ import annotations

import logging

import pytest

from conftest import append_bench_row
from repro.scenarios import StormReport, revocation_storm, roaming_storm, run_storm

SEED = 7
NODES = 1000

#: Seeds (of 0-99) whose ``roaming_storm(nodes=200, bases=3)`` broke
#: single-home when anti-entropy shared the announcements' circuit
#: breaker (listed in ``benchmarks/ledger/README.md``).
FORMERLY_DIRTY_SEEDS = (
    2, 6, 8, 11, 18, 20, 28, 30, 35, 48, 51,
    57, 60, 64, 70, 71, 72, 74, 75, 87, 88, 95,
)

_cache: dict[str, StormReport] = {}


@pytest.fixture(autouse=True)
def _quiet_announce_warnings():
    logging.disable(logging.WARNING)
    yield
    logging.disable(logging.NOTSET)


def roam_report() -> StormReport:
    if "roam" not in _cache:
        _cache["roam"] = run_storm(roaming_storm(nodes=NODES, bases=3, seed=SEED))
    return _cache["roam"]


def revocation_report() -> StormReport:
    if "revocation" not in _cache:
        _cache["revocation"] = run_storm(
            revocation_storm(nodes=NODES, bases=2, seed=SEED)
        )
    return _cache["revocation"]


def test_x3_roam_storm_converges_clean():
    report = roam_report()
    assert report.clean, report.violations
    assert report.dual_homed == []
    # Chaos was real and was healed by the hardening, not by luck.
    assert report.counters["midas.roam.announce_failed"] > 0
    assert report.counters["midas.roam.reconciled"] > 0
    # Convergence: the last dual-home sighting falls inside the settle
    # window (storm ends at storm_start + duration).
    spec = report.spec
    assert report.last_dual_at is not None
    assert report.last_dual_at < spec.total_time - spec.grace


@pytest.mark.parametrize("seed", FORMERLY_DIRTY_SEEDS)
def test_x3_formerly_dirty_seeds_stay_clean(seed):
    report = run_storm(roaming_storm(nodes=200, bases=3, seed=seed))
    assert report.clean, report.violations


def test_x3_revocation_completes():
    report = revocation_report()
    assert report.clean, report.violations
    assert report.revocation_cleared_at is not None
    spec = report.spec
    # Completion latency: bounded by one lease term + the monitor grace
    # (the revocation-completeness deadline the monitor enforced).
    latency = report.revocation_cleared_at - spec.revoke_at
    assert 0.0 <= latency <= spec.lease_duration + spec.grace
    name = spec.revoke_extension
    assert not any(
        lease.endswith(f":{name}")
        for leases in report.held.values()
        for lease in leases
    )


def test_x3_record_trajectory_row(record_property):
    roam = roam_report()
    revocation = revocation_report()
    row = {
        "bench": "x3_storms",
        "seed": SEED,
        "nodes": NODES,
        "roam_storm": {
            "bases": roam.spec.bases,
            "drop_roamed": roam.spec.drop_roamed,
            "migrations": roam.stats["migrations"],
            "announced": roam.counters["midas.roam.announced"],
            "announce_failed": roam.counters["midas.roam.announce_failed"],
            "reconciled": roam.counters["midas.roam.reconciled"],
            "last_dual_at": roam.last_dual_at,
            "storm_ends_at": roam.spec.storm_start + roam.spec.duration,
            "violations": len(roam.violations),
            "messages_delivered": roam.network["delivered"],
            "fingerprint": roam.fingerprint,
        },
        "revocation_storm": {
            "bases": revocation.spec.bases,
            "revoke_at": revocation.spec.revoke_at,
            "cleared_at": revocation.revocation_cleared_at,
            "completion_latency": round(
                revocation.revocation_cleared_at - revocation.spec.revoke_at, 3
            ),
            "violations": len(revocation.violations),
            "fingerprint": revocation.fingerprint,
        },
    }
    path = append_bench_row("storms", row)
    record_property("bench_rows_path", str(path))
