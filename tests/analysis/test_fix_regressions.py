"""Behavioral regressions for the findings fixed in the lint sweep.

The lint's unguarded-request warnings were fixed by adding error paths;
these tests drive the error paths for real — a request to a node that
never answers must now reach the new handler instead of vanishing into
the transport's debug log.
"""

from __future__ import annotations

import pytest

from repro.net.geometry import Position
from repro.net.node import NetworkNode
from repro.net.transport import Transport
from repro.store.client import HallClient
from repro.tuplespace.service import TupleSpaceClient


@pytest.fixture
def lonely_transport(sim, network):
    """A transport whose peers never answer (requests always time out)."""
    node = network.attach(NetworkNode("lonely", Position(0, 0)))
    return Transport(node, sim)


class TestStoreClientDegradesGracefully:
    def test_list_robots_times_out_to_empty(self, sim, lonely_transport):
        results = []
        client = HallClient(lonely_transport, sim)
        client.list_robots("ghost-store", results.append)
        sim.run_for(60.0)
        assert results == [[]]

    def test_action_list_times_out_to_empty(self, sim, lonely_transport):
        results = []
        client = HallClient(lonely_transport, sim)
        client.action_list("ghost-store", "r1", results.append)
        sim.run_for(60.0)
        assert results == [[]]

    def test_caller_supplied_on_error_wins(self, sim, lonely_transport):
        results, errors = [], []
        client = HallClient(lonely_transport, sim)
        client.list_robots("ghost-store", results.append, on_error=errors.append)
        sim.run_for(60.0)
        assert results == []
        assert len(errors) == 1


class TestTupleSpaceClientErrorPaths:
    def test_renew_error_reaches_callback(self, sim, lonely_transport):
        errors = []
        client = TupleSpaceClient(lonely_transport, "ghost-space")
        client.renew("lease-1", on_error=errors.append)
        sim.run_for(60.0)
        assert len(errors) == 1

    def test_retract_error_reaches_callback(self, sim, lonely_transport):
        errors = []
        client = TupleSpaceClient(lonely_transport, "ghost-space")
        client.retract("lease-1", on_error=errors.append)
        sim.run_for(60.0)
        assert len(errors) == 1

    def test_failed_listen_unregisters_delivery_op(self, sim, lonely_transport):
        """A lost LISTEN must not leave the minted delivery op dangling."""
        errors = []
        client = TupleSpaceClient(lonely_transport, "ghost-space")
        client.listen(
            template=None, listener=lambda t: None, on_error=errors.append
        )
        operation = f"space.deliver.{lonely_transport.node.node_id}.1"
        assert lonely_transport.serves(operation)
        sim.run_for(60.0)
        assert len(errors) == 1
        assert not lonely_transport.serves(operation)

