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
    "roaming-60-seed7": "20d09c81717c021b99e34e868f78b86b7469e9e0f8db6333fd70fc26a3603641",
    "roaming-60-seed9": "4c5d1b089ccacc293ff780fc546cbb3b8d7305ec50f3c1680310d7d2d8ae6e65",
    "roaming-60-seed2": "76f0e3e539fdaa2567ab4fc59f0f1bf3234fe32aee89930356b9dfde297b0cad",
    "revocation-seed3": "da7fd6a07fcde72351db91aa5d30790546f4d93f248859a1ac58113ca3bfb3f0",
    "partition-seed3": "508d7413c8d99d93751011bceb7f86e9a5ba400ae9d0b522c80dbc1def913dcc",
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
