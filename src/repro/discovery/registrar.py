"""The lookup service (registrar).

Runs on one node (typically the base station) and offers, over the
transport layer:

=================  ==========================================================
``lookup.register``  register a :class:`ServiceItem` under a fresh lease
``lookup.renew``     extend a registration's lease
``lookup.cancel``    drop a registration
``lookup.query``     all items matching a :class:`ServiceTemplate`
``lookup.listen``    leased remote-event subscription for a template
=================  ==========================================================

and broadcasts periodic ``lookup.announce`` messages so newcomers find it
(the Jini announcement protocol); a ``lookup.probe`` broadcast from a
client is answered with a unicast announce (the request protocol).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any

from repro.discovery.events import EventKind, RemoteEvent
from repro.discovery.service import ServiceItem, ServiceTemplate
from repro.errors import RegistrationError
from repro.leasing.lease import Lease
from repro.leasing.table import LeaseTable
from repro.net.transport import Transport
from repro.sim.kernel import Simulator
from repro.sim.timers import PeriodicTimer
from repro.util.signal import Signal

logger = logging.getLogger(__name__)

ANNOUNCE = "lookup.announce"
PROBE = "lookup.probe"
REGISTER = "lookup.register"
RENEW = "lookup.renew"
CANCEL = "lookup.cancel"
QUERY = "lookup.query"
LISTEN = "lookup.listen"

#: Seconds between registrar announcements.
DEFAULT_ANNOUNCE_INTERVAL = 5.0
#: Longest registration lease a registrar will grant.
DEFAULT_MAX_LEASE = 30.0


@dataclass
class _Listener:
    """One leased remote-event subscription."""

    template: ServiceTemplate
    node_id: str
    operation: str
    sequence: int = 0


class LookupService:
    """A Jini-style lookup service bound to one node's transport."""

    def __init__(
        self,
        transport: Transport,
        simulator: Simulator,
        announce_interval: float = DEFAULT_ANNOUNCE_INTERVAL,
        max_lease: float = DEFAULT_MAX_LEASE,
    ):
        self.transport = transport
        self.simulator = simulator
        self.node_id = transport.node.node_id
        #: Fires with (item,) when a service registers.
        self.on_registered = Signal("lookup.on_registered")
        #: Fires with (item, kind) when a registration ends.
        self.on_deregistered = Signal("lookup.on_deregistered")

        self._registrations = LeaseTable(
            simulator,
            max_duration=max_lease,
            name=f"{self.node_id}.registrations",
        )
        self._registrations.on_expired.connect(self._registration_gone(EventKind.EXPIRED))
        self._registrations.on_cancelled.connect(
            self._registration_gone(EventKind.CANCELLED)
        )
        self._listeners = LeaseTable(
            simulator,
            max_duration=max_lease,
            name=f"{self.node_id}.listeners",
        )
        self._local_items: list[ServiceItem] = []

        transport.register(REGISTER, self._serve_register)
        transport.register(RENEW, self._serve_renew)
        transport.register(CANCEL, self._serve_cancel)
        transport.register(QUERY, self._serve_query)
        transport.register(LISTEN, self._serve_listen)
        transport.register(PROBE, self._serve_probe)

        self._announcer = PeriodicTimer(
            simulator, announce_interval, self._announce, name=f"{self.node_id}.announce"
        )

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "LookupService":
        """Begin announcing; returns self for chaining."""
        self._announce()
        self._announcer.start()
        return self

    def stop(self) -> None:
        """Stop announcing (registrations keep expiring naturally)."""
        self._announcer.stop()

    def reset_volatile(self) -> None:
        """Crash model: all leased state vanishes, silently.

        Leased registrations and listener subscriptions are in-memory
        only; locally registered items are part of the co-hosted
        process's configuration and come back with it.  Clients discover
        the loss when their next renewal is refused and must re-register
        (their reconciliation loop does exactly that).
        """
        self._registrations.reset_volatile()
        self._listeners.reset_volatile()

    def announce(self) -> None:
        """Broadcast one announcement immediately (besides the periodic
        cadence) — e.g. right after a restart, so clients in range
        re-register without waiting out the announce interval."""
        self._announce()

    # -- queries (local convenience) ------------------------------------------------

    def register_local(self, item: ServiceItem) -> None:
        """Register a service co-hosted with the registrar itself.

        Local services (the base station's own store, its mirror hub)
        need no lease — they live and die with the registrar process.
        """
        self._local_items.append(item)
        self.on_registered.fire(item)
        self._publish(EventKind.REGISTERED, item)

    def items(self, template: ServiceTemplate | None = None) -> list[ServiceItem]:
        """Currently registered items, optionally filtered by template."""
        found = list(self._local_items)
        found.extend(lease.resource for lease in self._registrations.active())
        if template is None:
            return found
        return [item for item in found if template.matches(item)]

    def registration_count(self) -> int:
        """Number of live *leased* registrations (local items excluded)."""
        return len(self._registrations)

    # -- protocol handlers --------------------------------------------------------------

    def _serve_register(self, sender: str, body: dict[str, Any]) -> dict[str, Any]:
        item: ServiceItem = body["item"]
        duration: float = body.get("duration", DEFAULT_MAX_LEASE)
        if not isinstance(item, ServiceItem):
            raise RegistrationError(f"expected a ServiceItem, got {item!r}")
        # Re-registration of the same service id replaces the old lease.
        for lease in self._registrations.active():
            if lease.resource.service_id == item.service_id:
                self._registrations.cancel(lease.lease_id)
        lease = self._registrations.grant(sender, item, duration)
        logger.debug("%s: registered %s", self.node_id, item.describe())
        self.on_registered.fire(item)
        self._publish(EventKind.REGISTERED, item)
        return {"lease_id": lease.lease_id, "duration": lease.duration}

    def _serve_renew(self, sender: str, body: dict[str, Any]) -> dict[str, Any]:
        lease_id = body["lease_id"]
        table = self._listeners if lease_id in self._listeners else self._registrations
        lease = table.renew(lease_id, body.get("duration"))
        return {"duration": lease.duration}

    def _serve_cancel(self, sender: str, body: dict[str, Any]) -> dict[str, Any]:
        lease_id = body["lease_id"]
        table = self._listeners if lease_id in self._listeners else self._registrations
        table.cancel(lease_id)
        return {}

    def _serve_query(self, sender: str, body: dict[str, Any]) -> dict[str, Any]:
        template: ServiceTemplate = body["template"]
        return {"items": self.items(template)}

    def _serve_listen(self, sender: str, body: dict[str, Any]) -> dict[str, Any]:
        listener = _Listener(body["template"], sender, body["operation"])
        duration: float = body.get("duration", DEFAULT_MAX_LEASE)
        lease = self._listeners.grant(sender, listener, duration)
        return {"lease_id": lease.lease_id, "duration": lease.duration}

    def _serve_probe(self, sender: str, body: Any) -> None:
        # Probes arrive as broadcast notifications; answer with a unicast
        # announce so the prober learns this registrar immediately.
        self.transport.notify(sender, ANNOUNCE, {"registrar": self.node_id})

    # -- events ---------------------------------------------------------------------------

    def _publish(self, kind: EventKind, item: ServiceItem) -> None:
        for lease in self._listeners.active():
            listener: _Listener = lease.resource
            if not listener.template.matches(item):
                continue
            listener.sequence += 1
            event = RemoteEvent(kind, item, self.node_id, listener.sequence)
            self.transport.notify(listener.node_id, listener.operation, event)

    def _registration_gone(self, kind: EventKind):
        def handler(lease: Lease) -> None:
            item: ServiceItem = lease.resource
            logger.debug("%s: %s %s", self.node_id, kind.value, item.describe())
            self.on_deregistered.fire(item, kind)
            self._publish(kind, item)
        return handler

    def _announce(self) -> None:
        self.transport.broadcast(ANNOUNCE, {"registrar": self.node_id})

    def __repr__(self) -> str:
        return f"<LookupService on {self.node_id} items={len(self._registrations)}>"
