"""Protocol stubs: the receiver side of MIDAS without a ProseVM.

A :class:`ProtocolStub` speaks just enough MIDAS for a base to adapt it
(OFFER / KEEPALIVE / REVOKE, plus registrar REGISTER / RENEW), with no
verification or weaving cost.  :class:`StormNode` (roaming storms, in
the thousands) and :class:`repro.loadgen.client.LoadClient` (the closed
load loop) build on it and supply only their policy: the request
timeout, and an ``on_error`` that decides whether a failed registration
is sent again.  One rule serves both: an arrival at a base mints a new
service item and registers it; a re-registration at the same home
reuses that item; only the current home's registrar lease is renewed.

Leases are tracked per ``(granting base, extension)``: if two bases each
believe they host the node, the node really holds two lease sets, which
is exactly the dual-home state the invariant monitor hunts.  A storm
node is homed at one base at a time; :meth:`StormNode.migrate`
re-registers it at a new base and abandons the old registration — the
moment federated bookkeeping can go wrong.  Its installs, withdrawals
and migrations land on the flight recorder, so invariant violations
come with a causal timeline.
"""

from __future__ import annotations

from typing import Callable

from repro.discovery.registrar import REGISTER, RENEW
from repro.discovery.service import ServiceItem
from repro.midas.receiver import (
    ADAPTATION_INTERFACE,
    HEALTH,
    KEEPALIVE,
    OFFER,
    REVOKE,
)
from repro.net.transport import OnError, Transport
from repro.sim.kernel import Simulator
from repro.sim.timers import PeriodicTimer
from repro.telemetry import runtime as _telemetry
from repro.util.ids import fresh_id


def _ignore(error: Exception) -> None:
    """A failed request the stub leaves to upkeep and anti-entropy."""


class HeldLease:
    """One extension lease this node holds from one base."""

    __slots__ = ("lease_id", "name", "granter", "version", "duration", "expires_at")

    def __init__(
        self,
        lease_id: str,
        name: str,
        granter: str,
        version: int,
        duration: float,
        expires_at: float,
    ):
        self.lease_id = lease_id
        self.name = name
        self.granter = granter
        self.version = version
        self.duration = duration
        self.expires_at = expires_at


class ProtocolStub:
    """A MIDAS receiver reduced to its protocol: held leases and registration."""

    def __init__(
        self,
        transport: Transport,
        simulator: Simulator,
        node_class: str,
        registration_lease: float,
    ):
        self.transport = transport
        self.simulator = simulator
        self.node_class = node_class
        self.registration_lease = registration_lease
        self.node_id = transport.node.node_id
        #: The base this node currently calls home (None before its
        #: first arrival and after it departs).
        self.home: str | None = None
        #: ``(granting base, extension)`` -> lease.  Two granters for the
        #: same node is physically possible — that is the dual-home bug
        #: state, observable here and at the bases.
        self.held: dict[tuple[str, str], HeldLease] = {}
        #: The advertised adaptation service, minted by :meth:`arrive`.
        self.service_item: ServiceItem | None = None
        self._registration_lease_id: str | None = None
        self._upkeep: PeriodicTimer | None = None

        transport.register(OFFER, self._serve_offer)
        transport.register(KEEPALIVE, self._serve_keepalive)
        transport.register(REVOKE, self._serve_revoke)

    # -- hooks ---------------------------------------------------------------------

    def _installed(self, lease: HeldLease) -> None:
        """A fresh install (a re-offer refreshes instead)."""

    def _withdrawn(self, lease: HeldLease, reason: str) -> None:
        """A held lease was dropped."""

    # -- MIDAS protocol ------------------------------------------------------------

    def _serve_offer(self, sender: str, body: dict) -> dict:
        envelope = body["envelope"]
        duration = float(body["duration"])
        key = (sender, envelope.name)
        lease = self.held.get(key)
        if lease is None:
            lease = self.held[key] = HeldLease(
                fresh_id(f"{self.node_id}.lease"),
                envelope.name,
                sender,
                envelope.version,
                duration,
                self.simulator.now + duration,
            )
            self._installed(lease)
        else:
            # Re-offer of a held extension: refresh under the same lease
            # id (a version bump rides the same refresh).
            lease.version = envelope.version
            lease.duration = duration
            lease.expires_at = self.simulator.now + duration
        return {"lease_id": lease.lease_id, "duration": duration}

    def _serve_keepalive(self, sender: str, body: dict) -> dict:
        by_id = {lease.lease_id: lease for lease in self.held.values()}
        renewed, unknown = [], []
        for lease_id in body["lease_ids"]:
            lease = by_id.get(lease_id)
            if lease is None:
                unknown.append(lease_id)
            else:
                lease.expires_at = self.simulator.now + lease.duration
                renewed.append(lease_id)
        return {"renewed": renewed, "unknown": unknown}

    def _serve_revoke(self, sender: str, body: dict) -> dict:
        lease_id = body["lease_id"]
        for key, lease in list(self.held.items()):
            if lease.lease_id == lease_id:
                self._withdraw(key, "revoked")
                return {"revoked": True}
        return {"revoked": False}

    def _withdraw(self, key: tuple[str, str], reason: str) -> None:
        lease = self.held.pop(key, None)
        if lease is not None:
            self._withdrawn(lease, reason)

    # -- registration --------------------------------------------------------------

    def arrive(
        self, base_id: str, timeout: float | None = None, on_error: OnError = _ignore
    ) -> None:
        """Arrive at ``base_id``: mint a new service item and register it there."""
        if base_id != self.home:
            self._registration_lease_id = None  # the old home's lease lapses
        self.home = base_id
        self.service_item = ServiceItem(
            ADAPTATION_INTERFACE, self.node_id, {"class": self.node_class}
        )
        self.reregister(timeout, on_error=on_error)

    def reregister(
        self,
        timeout: float | None = None,
        on_registered: Callable[[], None] | None = None,
        on_error: OnError = _ignore,
    ) -> None:
        """Register the current service item again at the current home.

        ``timeout`` None is the transport default.  Unless the node has
        moved or left by then, the reply arms upkeep and calls
        ``on_registered``.
        """
        base_id = self.home

        def on_reply(body: dict) -> None:
            if self.home != base_id:
                return  # moved again (or left) before the reply landed
            self._registration_lease_id = body["lease_id"]
            self._start_upkeep(float(body["duration"]))
            if on_registered is not None:
                on_registered()

        self.transport.request(
            base_id,
            REGISTER,
            {"item": self.service_item, "duration": self.registration_lease},
            on_reply=on_reply,
            on_error=on_error,
            timeout=timeout,
        )

    def depart(self) -> None:
        """Stop calling any base home; its registrar lease lapses."""
        self.home = None
        self._registration_lease_id = None
        if self._upkeep is not None:
            self._upkeep.stop()
            self._upkeep = None

    def _start_upkeep(self, granted: float) -> None:
        if self._upkeep is not None:
            return
        self._upkeep = PeriodicTimer(
            self.simulator,
            max(granted / 3.0, 0.1),
            self._renew_registration,
            name=f"{self.node_id}.registration",
        ).start()

    def _renew_registration(self) -> None:
        # Only the *current* home's registration is kept alive; after a
        # migration the old base's registrar lease is left to expire,
        # like a device that walked out of radio range.
        if self.home is None or self._registration_lease_id is None:
            return
        self.transport.request(
            self.home,
            RENEW,
            {
                "lease_id": self._registration_lease_id,
                "duration": self.registration_lease,
            },
            on_error=_ignore,
        )


class StormNode(ProtocolStub):
    """One roaming member of the storm population."""

    def __init__(
        self,
        index: int,
        transport: Transport,
        simulator: Simulator,
        node_class: str,
        registration_lease: float,
    ):
        super().__init__(transport, simulator, node_class, registration_lease)
        self.index = index
        self.attached = True
        # Storm accounting.
        self.migrations = 0
        self.installs = 0
        self.withdrawals = 0

    def _installed(self, lease: HeldLease) -> None:
        self.installs += 1
        _telemetry.get_recorder().event(
            "storm.installed",
            node=self.node_id,
            extension=lease.name,
            granter=lease.granter,
        )

    def _withdrawn(self, lease: HeldLease, reason: str) -> None:
        self.withdrawals += 1
        _telemetry.get_recorder().event(
            "storm.withdrawn",
            node=self.node_id,
            extension=lease.name,
            granter=lease.granter,
            reason=reason,
        )

    def sweep(self, now: float) -> None:
        """Expire overdue leases (driven by the world's shared sweeper)."""
        for key, lease in list(self.held.items()):
            if lease.expires_at <= now:
                self._withdraw(key, "expired")

    # -- roaming lifecycle ---------------------------------------------------------

    def join(self, base_id: str) -> None:
        """First arrival: register the adaptation service at ``base_id``."""
        _telemetry.get_recorder().event(
            "storm.join", node=self.node_id, base=base_id
        )
        self.arrive(base_id)

    def migrate(self, base_id: str) -> None:
        """Roam to ``base_id``: register there, let the old lease lapse.

        The old base is *not* told by this node — that is the ROAMED
        announcement's job, which is exactly what storms attack.
        """
        if not self.attached or base_id == self.home:
            return
        self.migrations += 1
        _telemetry.get_recorder().event(
            "storm.migrate",
            node=self.node_id,
            base=base_id,
            previous=self.home or "",
        )
        self.arrive(base_id)

    def leave(self) -> None:
        """Churn out: drop off the network mid-storm."""
        if not self.attached:
            return
        self.attached = False
        previous = self.home
        self.depart()
        _telemetry.get_recorder().event(
            "storm.leave", node=self.node_id, base=previous or ""
        )
        network = self.transport.node.network
        if network is not None:
            network.detach(self.transport.node)

    def rejoin(self, network, base_id: str) -> None:
        """Churn back in at ``base_id`` (a fresh arrival)."""
        if self.attached:
            return
        network.attach(self.transport.node)
        self.attached = True
        _telemetry.get_recorder().event(
            "storm.return", node=self.node_id, base=base_id
        )
        self.arrive(base_id)

    def report_quarantine(self, name: str) -> None:
        """Report ``name`` quarantined to its granter and withdraw it."""
        target: tuple[str, str] | None = None
        for key in self.held:
            if key[1] == name and (target is None or key[0] == self.home):
                target = key
        if target is None:
            return
        granter, _ = target
        lease = self.held[target]
        self.transport.notify(
            granter,
            HEALTH,
            {
                "extension": name,
                "node_class": self.node_class,
                "version": lease.version,
                "offender": name,
            },
        )
        self._withdraw(target, "quarantined")

    # -- queries ----------------------------------------------------------------------

    def holds(self, name: str) -> bool:
        """Does this node hold ``name`` from any granter?"""
        return any(key[1] == name for key in self.held)

    def __repr__(self) -> str:
        return (
            f"<StormNode {self.node_id} home={self.home} "
            f"held={len(self.held)} attached={self.attached}>"
        )
