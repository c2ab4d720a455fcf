"""Golden fingerprints: pinned digests of seeded runs.

The replay tests compare a fingerprint with a second run in the same
process, so a change that reorders events passes them as long as it
reorders them the same way twice.  These constants pin the digests
themselves: any change to event order, message contents, timing or
roaming behaviour on these runs changes a fingerprint here.  They do
not depend on ``PYTHONHASHSEED`` or on the Python version (checked with
hash seeds 0, 7 and 12345 on Python 3.11 to 3.13).

A change that is *meant* to alter these runs must say so and re-pin the
constants, printing them from the repository root with::

    PYTHONPATH=src python -c "from tests.scenarios.test_golden_fingerprints import RUNS
    for name, run in RUNS.items(): print(name, run())"
"""

from __future__ import annotations

import logging

import pytest

from repro.scenarios import (
    partition_storm,
    revocation_storm,
    roaming_storm,
    run_storm,
    soak,
)

#: name -> a zero-argument run returning its fingerprint.
RUNS = {
    "roaming-60-seed7": lambda: run_storm(roaming_storm(nodes=60, bases=3, seed=7)).fingerprint,
    "roaming-60-seed9": lambda: run_storm(roaming_storm(nodes=60, bases=3, seed=9)).fingerprint,
    "roaming-60-seed2": lambda: run_storm(roaming_storm(nodes=60, bases=3, seed=2)).fingerprint,
    "revocation-seed3": lambda: run_storm(revocation_storm(seed=3)).fingerprint,
    "partition-seed3": lambda: run_storm(partition_storm(seed=3)).fingerprint,
    # One extension per node, so one lease per base-node pair: renewal
    # rounds then make exactly the calls per-lease timers made.
    "roaming-60-seed7-one-lease": lambda: run_storm(
        roaming_storm(nodes=60, bases=3, seed=7, catalog_size=1)
    ).fingerprint,
    "revocation-seed3-one-lease": lambda: run_storm(
        revocation_storm(seed=3, catalog_size=1)
    ).fingerprint,
    "partition-seed3-one-lease": lambda: run_storm(
        partition_storm(seed=3, catalog_size=1)
    ).fingerprint,
    # Waves, revocation, quarantine reports, partitions and churn (nodes
    # leave and rejoin) in one storm.
    "soak-60-seed3": lambda: run_storm(soak(nodes=60, seed=3)).fingerprint,
}

GOLDEN = {
    "roaming-60-seed7": "fcaa6dc43699e8e2ec5e8be2350574cf376b3b757a5d52c51753b9c95ca74d4b",
    "roaming-60-seed9": "89176b9671df81424189b2b426a038db57ae8964c56c90b2260af467531671c2",
    "roaming-60-seed2": "28fc6428d78581c234e722434c2d452eb974200be29ca381a23ecbee65148f94",
    "revocation-seed3": "7e78750df59ad2d212abfa01060ccbd2149fd2c897edce3fe5a9da839ae9d820",
    "partition-seed3": "78260104c92d35d8996f6970ccea9af19119e4006000dc88875edbbaf151b595",
    "roaming-60-seed7-one-lease": "4e88654a4ddfbaefc3cfba2cc314a32a3313385999b995f1c2482207554bde35",
    "revocation-seed3-one-lease": "f52851bb4148497293032f780e62b4bb65dfb2c867b69e3a8aa9c977409a0bca",
    "partition-seed3-one-lease": "7413dcd8562f3a526a2690dee1770f763b1ec7c2822562930b3ee06e4786d207",
    "soak-60-seed3": "69b2eef123a503aee62b1c20ddada32c99e634b094af698144b1b7f72bc65d39",
}


@pytest.fixture(autouse=True)
def _quiet_announce_warnings():
    """Dropped announcements are part of these storms; keep logs readable."""
    logging.disable(logging.WARNING)
    yield
    logging.disable(logging.NOTSET)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fingerprint_matches_the_pinned_digest(name):
    assert RUNS[name]() == GOLDEN[name]
