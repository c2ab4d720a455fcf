"""Lookup service (registrar) tests."""

import pytest

from repro.discovery.events import EventKind
from repro.discovery.registrar import (
    CANCEL,
    LISTEN,
    QUERY,
    REGISTER,
    RENEW,
    LookupService,
)
from repro.discovery.service import ServiceItem, ServiceTemplate
from repro.net.geometry import Position
from repro.net.node import NetworkNode
from repro.net.transport import Transport


@pytest.fixture
def world(sim, network):
    base = network.attach(NetworkNode("base", Position(0, 0)))
    client = network.attach(NetworkNode("client", Position(5, 0)))
    base_transport = Transport(base, sim)
    client_transport = Transport(client, sim)
    lookup = LookupService(base_transport, sim)
    return lookup, client_transport


def register(sim, client, item, duration=10.0):
    replies = []
    client.request("base", REGISTER, {"item": item, "duration": duration},
                   on_reply=replies.append)
    sim.run_for(1.0)
    return replies[0]


class TestRegistration:
    def test_register_grants_lease(self, sim, world):
        lookup, client = world
        item = ServiceItem("svc.A", "client")
        reply = register(sim, client, item)
        assert "lease_id" in reply
        assert lookup.registration_count() == 1

    def test_lease_duration_clamped(self, sim, world):
        lookup, client = world
        reply = register(sim, client, ServiceItem("svc.A", "client"), duration=9999.0)
        assert reply["duration"] <= 30.0

    def test_registration_expires_without_renewal(self, sim, world):
        lookup, client = world
        register(sim, client, ServiceItem("svc.A", "client"), duration=5.0)
        sim.run_for(10.0)
        assert lookup.registration_count() == 0

    def test_renew_keeps_registration(self, sim, world):
        lookup, client = world
        reply = register(sim, client, ServiceItem("svc.A", "client"), duration=5.0)
        for _ in range(4):
            sim.run_for(3.0)
            client.request("base", RENEW, {"lease_id": reply["lease_id"]})
        sim.run_for(1.0)
        assert lookup.registration_count() == 1

    def test_cancel_removes_registration(self, sim, world):
        lookup, client = world
        reply = register(sim, client, ServiceItem("svc.A", "client"))
        client.request("base", CANCEL, {"lease_id": reply["lease_id"]})
        sim.run_for(1.0)
        assert lookup.registration_count() == 0

    def test_reregistration_replaces_same_service_id(self, sim, world):
        lookup, client = world
        item = ServiceItem("svc.A", "client")
        register(sim, client, item)
        register(sim, client, item)
        assert lookup.registration_count() == 1

    def test_on_registered_signal(self, sim, world):
        lookup, client = world
        seen = []
        lookup.on_registered.connect(seen.append)
        register(sim, client, ServiceItem("svc.A", "client"))
        assert len(seen) == 1
        assert seen[0].interface == "svc.A"


class TestQuery:
    def test_query_by_template(self, sim, world):
        lookup, client = world
        register(sim, client, ServiceItem("svc.A", "client"))
        register(sim, client, ServiceItem("svc.B", "client"))
        results = []
        client.request("base", QUERY, {"template": ServiceTemplate(interface="svc.A")},
                       on_reply=lambda body: results.append(body["items"]))
        sim.run_for(1.0)
        assert [i.interface for i in results[0]] == ["svc.A"]

    def test_local_items_helper(self, sim, world):
        lookup, client = world
        register(sim, client, ServiceItem("svc.A", "client"))
        assert len(lookup.items()) == 1
        assert lookup.items(ServiceTemplate(interface="nothing")) == []


class TestRemoteEvents:
    def test_listener_notified_on_register_and_expiry(self, sim, world):
        lookup, client = world
        events = []
        client.register("my.events", lambda sender, body: events.append(body))
        client.request(
            "base",
            LISTEN,
            {"template": ServiceTemplate(interface="svc.*"),
             "operation": "my.events", "duration": 30.0},
        )
        sim.run_for(1.0)
        register(sim, client, ServiceItem("svc.A", "client"), duration=3.0)
        sim.run_for(10.0)  # let it expire
        kinds = [e.kind for e in events]
        assert kinds == [EventKind.REGISTERED, EventKind.EXPIRED]
        assert events[0].sequence < events[1].sequence

    def test_listener_not_notified_for_non_matching(self, sim, world):
        lookup, client = world
        events = []
        client.register("my.events", lambda sender, body: events.append(body))
        client.request(
            "base",
            LISTEN,
            {"template": ServiceTemplate(interface="robot.*"),
             "operation": "my.events"},
        )
        sim.run_for(1.0)
        register(sim, client, ServiceItem("svc.A", "client"))
        sim.run_for(1.0)
        assert events == []

    def test_listener_lease_renewable(self, sim, world):
        lookup, client = world
        replies = []
        client.request(
            "base",
            LISTEN,
            {"template": ServiceTemplate(), "operation": "my.events", "duration": 5.0},
            on_reply=replies.append,
        )
        sim.run_for(1.0)
        renewed = []
        client.request("base", RENEW, {"lease_id": replies[0]["lease_id"]},
                       on_reply=renewed.append)
        sim.run_for(1.0)
        assert renewed


class TestAnnouncements:
    def test_start_broadcasts_announce(self, sim, network, world):
        lookup, client = world
        heard = []
        client.register("lookup.announce", lambda sender, body: heard.append(body))
        lookup.start()
        sim.run_for(0.5)
        assert heard and heard[0]["registrar"] == "base"

    def test_periodic_announcements(self, sim, world):
        lookup, client = world
        heard = []
        client.register("lookup.announce", lambda sender, body: heard.append(sim.now))
        lookup.start()
        sim.run_for(16.0)
        assert len(heard) >= 3

    def test_stop_halts_announcements(self, sim, world):
        lookup, client = world
        heard = []
        client.register("lookup.announce", lambda sender, body: heard.append(sim.now))
        lookup.start()
        sim.run_for(1.0)
        lookup.stop()
        count = len(heard)
        sim.run_for(20.0)
        assert len(heard) == count

    def test_probe_answered_with_unicast_announce(self, sim, world):
        lookup, client = world
        heard = []
        client.register("lookup.announce", lambda sender, body: heard.append(body))
        client.broadcast("lookup.probe", {})
        sim.run_for(1.0)
        assert heard and heard[0]["registrar"] == "base"

