"""The shared protocol stub: the receiver side of MIDAS without a ProseVM.

Storm nodes and load clients are both :class:`ProtocolStub` subclasses
that add only their own policy, so these tests pin the mechanism they
share: held leases under OFFER / KEEPALIVE / REVOKE, and a registrar
registration that is kept alive at the current home only.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.discovery.registrar import REGISTER, RENEW
from repro.net.geometry import ORIGIN, Position
from repro.net.network import Network
from repro.net.node import NetworkNode
from repro.net.transport import Transport
from repro.scenarios.nodes import HeldLease, ProtocolStub
from repro.sim.kernel import Simulator

#: Registrar lease term the fake registrars grant: upkeep every second.
GRANTED = 3.0
#: Radio range of every endpoint, wide enough for a distant base.
RANGE = 1000.0


class RecordingStub(ProtocolStub):
    """A stub that logs its install / withdraw hooks."""

    def __init__(self, transport: Transport, simulator: Simulator):
        super().__init__(transport, simulator, "class-a", 30.0)
        self.hooks: list[tuple] = []

    def _installed(self, lease: HeldLease) -> None:
        self.hooks.append(("installed", lease.granter, lease.name))

    def _withdrawn(self, lease: HeldLease, reason: str) -> None:
        self.hooks.append(("withdrawn", lease.granter, lease.name, reason))


class FakeRegistrar:
    """A base's registrar: grants one numbered lease per REGISTER and logs calls."""

    def __init__(
        self, network: Network, simulator: Simulator, name: str, position=ORIGIN
    ):
        self.name = name
        self.simulator = simulator
        self.registered: list[dict] = []
        #: ``(time, lease id)`` of every RENEW received.
        self.renewed: list[tuple[float, str]] = []
        node = network.attach(NetworkNode(name, position, radio_range=RANGE))
        transport = Transport(node, simulator)
        transport.register(REGISTER, self._serve_register)
        transport.register(RENEW, self._serve_renew)

    def _serve_register(self, sender: str, body: dict) -> dict:
        self.registered.append(body)
        lease_id = f"{self.name}-reg-{len(self.registered)}"
        return {"lease_id": lease_id, "duration": GRANTED}

    def _serve_renew(self, sender: str, body: dict) -> dict:
        self.renewed.append((self.simulator.now, body["lease_id"]))
        return {"duration": GRANTED}


def world():
    sim = Simulator()
    network = Network(sim, seed=1)
    stub = RecordingStub(
        Transport(network.attach(NetworkNode("stub", ORIGIN, radio_range=RANGE)), sim),
        sim,
    )
    # base-a stands 500 m off, so its replies land well after base-b's.
    bases = {
        "base-a": FakeRegistrar(network, sim, "base-a", Position(500.0, 0.0)),
        "base-b": FakeRegistrar(network, sim, "base-b"),
    }
    return sim, stub, bases


def offer(name: str, version: int, duration: float) -> dict:
    return {
        "envelope": SimpleNamespace(name=name, version=version),
        "duration": duration,
    }


# -- MIDAS protocol ------------------------------------------------------------------


def test_reoffer_refreshes_the_lease_under_the_same_id():
    sim, stub, _bases = world()
    first = stub._serve_offer("base-a", offer("ext", 1, 5.0))
    sim.run_for(2.0)
    again = stub._serve_offer("base-a", offer("ext", 2, 8.0))
    assert again == {"lease_id": first["lease_id"], "duration": 8.0}
    lease = stub.held[("base-a", "ext")]
    assert (lease.version, lease.duration) == (2, 8.0)
    assert lease.expires_at == sim.now + 8.0
    assert stub.hooks == [("installed", "base-a", "ext")]
    # Another granter's offer of the same extension is a separate lease.
    other = stub._serve_offer("base-b", offer("ext", 1, 5.0))
    assert other["lease_id"] != first["lease_id"]
    assert sorted(stub.held) == [("base-a", "ext"), ("base-b", "ext")]


def test_keepalive_splits_renewed_from_unknown_and_refreshes_expiry():
    sim, stub, _bases = world()
    kept = stub._serve_offer("base-a", offer("kept", 1, 5.0))["lease_id"]
    stub._serve_offer("base-a", offer("idle", 1, 5.0))
    sim.run_for(3.0)
    reply = stub._serve_keepalive("base-a", {"lease_ids": ["ghost", kept]})
    assert reply == {"renewed": [kept], "unknown": ["ghost"]}
    assert stub.held[("base-a", "kept")].expires_at == 3.0 + 5.0
    assert stub.held[("base-a", "idle")].expires_at == 5.0


def test_revoke_withdraws_the_lease():
    _sim, stub, _bases = world()
    lease_id = stub._serve_offer("base-a", offer("ext", 1, 5.0))["lease_id"]
    assert stub._serve_revoke("base-a", {"lease_id": lease_id}) == {"revoked": True}
    assert stub.held == {}
    assert stub.hooks[-1] == ("withdrawn", "base-a", "ext", "revoked")
    assert stub._serve_revoke("base-a", {"lease_id": lease_id}) == {"revoked": False}


# -- registration ------------------------------------------------------------------


def test_an_arrival_mints_an_item_and_a_reregistration_reuses_it():
    sim, stub, bases = world()
    stub.arrive("base-a")
    sim.run_for(0.5)
    stub.reregister()
    sim.run_for(0.5)
    stub.arrive("base-b")
    sim.run_for(0.5)
    first, again = bases["base-a"].registered
    assert again["item"].service_id == first["item"].service_id
    (moved,) = bases["base-b"].registered
    assert moved["item"].service_id != first["item"].service_id
    assert moved["item"].attributes == {"class": "class-a"}
    assert moved["duration"] == 30.0


def test_upkeep_renews_only_at_the_current_home():
    sim, stub, bases = world()
    stub.arrive("base-a")
    sim.run_for(4.5)
    renewed_at_a = list(bases["base-a"].renewed)
    assert [lease for _t, lease in renewed_at_a] == ["base-a-reg-1"] * 4
    stub.arrive("base-b")
    sim.run_for(5.0)
    assert bases["base-a"].renewed == renewed_at_a  # left to expire
    assert [lease for _t, lease in bases["base-b"].renewed] == ["base-b-reg-1"] * 5
    stub.depart()
    sim.run_for(5.0)
    assert len(bases["base-b"].renewed) == 5


def test_a_registration_reply_that_lands_after_a_move_is_ignored():
    sim, stub, bases = world()
    stub.arrive("base-a")
    stub.arrive("base-b")  # moves on before base-a's reply lands
    sim.run_for(0.5)
    assert stub._registration_lease_id == "base-b-reg-1"
    sim.run_for(3.0)
    assert len(bases["base-a"].registered) == 1  # base-a did grant a lease ...
    assert bases["base-a"].renewed == []  # ... that the stub never renews
    assert [lease for _t, lease in bases["base-b"].renewed] == ["base-b-reg-1"] * 3


def test_a_failed_registration_goes_to_the_callers_on_error():
    sim, stub, _bases = world()
    errors = []
    stub.arrive("nowhere", timeout=0.5, on_error=errors.append)
    sim.run_for(1.0)
    assert len(errors) == 1
    assert stub._upkeep is None
