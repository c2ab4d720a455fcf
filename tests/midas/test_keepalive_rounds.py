"""Keepalive rounds: one ``midas.keepalive`` per base-node pair.

The base's renewal agent renews every lease it holds on a node in one
round, so a node carrying two extensions gets one keepalive carrying
both lease ids, and the base settles each lease from the reply.
"""

import pytest

from repro.telemetry import MetricsRegistry
from repro.telemetry import runtime as _telemetry

from tests.support import TraceAspect


@pytest.fixture
def registry(sim):
    reg = MetricsRegistry(clock=sim.clock)
    previous = _telemetry.install(reg)
    yield reg
    _telemetry.install(previous)


def adapt_two(world):
    world.catalog.add("a", TraceAspect)
    world.catalog.add("b", TraceAspect)
    world.start_receiver()
    world.run(3.0)
    assert world.base.extensions_on("device") == ["a", "b"]


def test_two_extension_round_sends_one_keepalive(world, registry):
    adapt_two(world)
    assert registry.finished_spans("midas.keepalive") == []
    world.run(3.0)  # lease term 10 s: one round, 3 s after the installs
    keepalives = registry.finished_spans("midas.keepalive")
    assert [span.attrs["batch"] for span in keepalives] == [2]
    assert keepalives[0].status == "ok"
    assert keepalives[0].attrs["renewed"] == 2
    # The span joins the offer trace of the extension tracked first.
    offer_a = next(
        span
        for span in registry.finished_spans("midas.offer")
        if span.attrs["extension"] == "a"
    )
    assert keepalives[0].parent_id == offer_a.span_id
    assert [span.attrs["renewed"] for span in registry.finished_spans("midas.renew")] == [2]


def test_unknown_lease_in_a_reply_abandons_exactly_that_lease(world):
    adapt_two(world)
    renewer = world.base._renewer
    lease_a, lease_b = (
        world.base._adapted[("device", name)].lease_id for name in ("a", "b")
    )
    abandoned = []
    renewer.on_abandoned.connect(lambda tracked: abandoned.append(tracked.lease_id))
    # The node drops "b" on its own; the base is not told.
    world.receiver.withdraw("b")
    world.run(3.0)  # the next round carries both ids; "b" comes back unknown
    assert abandoned == [lease_b]
    assert renewer.tracking(lease_a) and not renewer.tracking(lease_b)
    assert world.base.extensions_on("device") == ["a"]
    lost = [
        record.extension
        for record in world.base.activity_for("device")
        if record.action == "renewed-lost"
    ]
    assert lost == ["b"]
