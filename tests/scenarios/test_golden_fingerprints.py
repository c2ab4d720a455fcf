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

from repro.scenarios import partition_storm, revocation_storm, roaming_storm, run_storm
from tests.fleet.test_determinism import drive

#: name -> a zero-argument run returning its fingerprint.
RUNS = {
    "roaming-60-seed7": lambda: run_storm(roaming_storm(nodes=60, bases=3, seed=7)).fingerprint,
    "roaming-60-seed9": lambda: run_storm(roaming_storm(nodes=60, bases=3, seed=9)).fingerprint,
    "roaming-60-seed2": lambda: run_storm(roaming_storm(nodes=60, bases=3, seed=2)).fingerprint,
    "revocation-seed3": lambda: run_storm(revocation_storm(seed=3)).fingerprint,
    "partition-seed3": lambda: run_storm(partition_storm(seed=3)).fingerprint,
    "fleet-drive-2-shards": lambda: drive(2).fingerprint(),
}

GOLDEN = {
    "roaming-60-seed7": "b0e30eb6020433539b6c86f79b9dc53e7b4e26aa40b2c4b80a0caebf302ec87e",
    "roaming-60-seed9": "610a347e1e8bfce19302a96d99df041ae8233de1dceea22b95f92ad71a15f365",
    "roaming-60-seed2": "91e57d8aab19b2a3d5da736d1a5859e2c136618b23476870683f652afe533d65",
    "revocation-seed3": "189fed19a95170697bf541b94dd3a77e8e80b279a31ed507a41715d2e88e5f88",
    "partition-seed3": "017695b2dd57a5432984c15ed6ca150b85042acff81bea9b208d8bc1df01554c",
    "fleet-drive-2-shards": "f3ec0f2a72e3a87df76dff0ff60aad953d958c06f8fa9f4f1f37876c2ca0c894",
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
