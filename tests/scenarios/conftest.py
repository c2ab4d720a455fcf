"""Scenario fixtures: the paper's fire-and-forget roaming, as a control.

The platform has one roaming path: acknowledged ROAMED requests plus
anti-entropy.  The X3 control experiment needs the design it replaced —
§3.2's base telling its peers of an arrival with one unacknowledged
message and nothing to repair a lost one — so it lives here, installed
on a built :class:`~repro.scenarios.StormWorld`, not in the platform.
"""

from __future__ import annotations

import pytest

from repro.midas.base import ROAMED, ExtensionBase
from repro.scenarios import StormWorld


def _notify_only(base: ExtensionBase):
    """``base._announce_roaming`` as one notify per peer: no reply, no retry."""

    def announce(node_id: str) -> None:
        epoch = base._roam_epochs.get(node_id, (base.simulator.now, base.node_id))
        for peer in base._peer_bases:
            base.transport.notify(
                peer, ROAMED, {"node_id": node_id, "epoch": [epoch[0], epoch[1]]}
            )

    return announce


def install_fire_and_forget(world: StormWorld) -> StormWorld:
    """Give every base of ``world`` notify-only ROAMED and no sync timer."""
    for base in world.bases.values():
        base._announce_roaming = _notify_only(base)
        if base._roam_sync_timer is not None:
            base._roam_sync_timer.stop()
            base._roam_sync_timer = None
    return world


@pytest.fixture
def fire_and_forget():
    """The installer for the paper's fire-and-forget roaming (X3 control)."""
    return install_fire_and_forget
