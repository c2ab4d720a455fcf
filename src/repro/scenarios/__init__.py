"""Deterministic storm-and-soak scenarios for the federated platform.

The scenario subsystem answers ROADMAP item 5's question — *does
federated roaming actually hold together under sustained chaos?* — with
machinery rather than anecdotes:

- :mod:`repro.scenarios.spec` — :class:`StormSpec`, the replayable
  description of one storm (JSON round-trip; same spec = same storm);
- :mod:`repro.scenarios.nodes` — :class:`StormNode`, a roaming
  :class:`~repro.scenarios.nodes.ProtocolStub` (the receiver side of
  MIDAS the load harness's clients share) cheap enough to run in the
  thousands;
- :mod:`repro.scenarios.storms` — :class:`StormWorld`, the seeded
  builder that schedules flash-crowd waves, revocation and quarantine
  storms, churn and backbone partitions;
- :mod:`repro.scenarios.monitor` — :class:`InvariantMonitor`, the
  continuous checker (single-home, lease soundness, revocation
  completeness, quarantine convergence) whose violations carry causal
  flight-recorder traces;
- :mod:`repro.scenarios.harness` — :func:`run_storm` /
  :class:`StormReport` with the determinism fingerprint, and
  :func:`plant_dual_home`, the monitor's own mutation test.

Typical use::

    from repro.scenarios import roaming_storm, run_storm

    report = run_storm(roaming_storm(nodes=500, seed=21))
    assert report.clean, report.violations
"""

from repro.scenarios.harness import (
    StormReport,
    plant_dual_home,
    report_from,
    run_storm,
)
from repro.scenarios.monitor import InvariantMonitor, Violation
from repro.scenarios.nodes import HeldLease, StormNode
from repro.scenarios.spec import (
    PRESETS,
    StormSpec,
    partition_storm,
    revocation_storm,
    roaming_storm,
    soak,
)
from repro.scenarios.storms import StormWorld, base_name, ext_name, node_name

__all__ = [
    "PRESETS",
    "HeldLease",
    "InvariantMonitor",
    "StormNode",
    "StormReport",
    "StormSpec",
    "StormWorld",
    "Violation",
    "base_name",
    "ext_name",
    "node_name",
    "partition_storm",
    "plant_dual_home",
    "report_from",
    "revocation_storm",
    "roaming_storm",
    "run_storm",
    "soak",
]
