"""Golden digests: pinned summaries of seeded closed-loop load runs.

``run_scenario`` is deterministic given its seed, and the determinism
tests in ``test_harness_smoke.py`` compare two runs in one process.
These constants pin the runs themselves: any change to how a client
registers, re-sends, serves the base or drives its loop moves a digest
here.  A digest covers the clients' loop counts, the station's exact
accounting and each window's throughput and latency; it leaves out
process-global ids.  Both runs give the same digests under
``PYTHONHASHSEED`` 0, 7 and 12345.

A change that is *meant* to alter these runs must say so and re-pin the
constants, printing them from the repository root with::

    PYTHONPATH=src python -c "from tests.loadgen.test_golden_digests import RUNS, digest
    for name, run in RUNS.items(): print(name, digest(run()))"
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.loadgen.harness import LoadReport, run_scenario
from repro.loadgen.scenario import PRESETS
from repro.loadgen.windows import percentile

#: name -> a zero-argument run returning its report.
RUNS = {
    "smoke": lambda: run_scenario(PRESETS["smoke"]),
    # A lossy radio and a short op timeout: registrations are lost and
    # re-sent, and ops time out on the client.
    "smoke-lossy": lambda: run_scenario(
        PRESETS["smoke"].replace(loss_probability=0.2, op_timeout=0.5)
    ),
}

GOLDEN = {
    "smoke": "23a166d1e3563e32a9552b3c028a3dca653f1decaec4b04cb0ce622be6d12524",
    "smoke-lossy": "bfaa7f729b083d53dcccadaff8ca4f67676a150712b508e9233c873163452490",
}


def digest(report: LoadReport) -> str:
    """SHA-256 of a load run's loop counts, station accounting and windows."""
    canonical = {
        "clients": report.clients,
        "station": report.station,
        "windows": [
            {
                "completions": window.completions,
                "errors": window.errors,
                "per_op": dict(sorted(window.per_op.items())),
                "throughput": window.throughput,
                "latency_mean": window.mean_latency,
                "latency_p95": percentile(window.latencies, 0.95),
            }
            for window in report.windows
        ],
    }
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_digest_matches_the_pinned_value(name):
    assert digest(RUNS[name]()) == GOLDEN[name]
