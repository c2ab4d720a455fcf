"""The per-node discovery (join) protocol.

A :class:`DiscoveryClient` keeps a node joined to the spontaneous network:

- it listens for registrar announcements and probes actively on start, so
  entering radio range of a base station is noticed within one announce
  interval;
- registrars not heard from for several intervals are considered lost —
  the physical analogue is walking out of a hall;
- services registered through the client are automatically (re)registered
  with every *known* registrar, their leases renewed until cancelled.

The adaptation service of every MIDAS node advertises itself through one
of these ("the adaptation service advertises itself as a Jini service,
thereby announcing its presence to the environment", §3.3).
"""

from __future__ import annotations

import logging
from typing import Any, Callable

from repro.discovery.events import RemoteEvent
from repro.discovery.registrar import (
    ANNOUNCE,
    CANCEL,
    DEFAULT_ANNOUNCE_INTERVAL,
    LISTEN,
    PROBE,
    QUERY,
    REGISTER,
    RENEW,
)
from repro.discovery.service import ServiceItem, ServiceTemplate
from repro.leasing.renewer import RenewalAgent, TrackedLease
from repro.net.transport import RemoteError, Transport
from repro.resilience.client import ResilientClient
from repro.resilience.policy import RetryPolicy
from repro.sim.kernel import Simulator
from repro.sim.timers import PeriodicTimer
from repro.util.signal import Signal

logger = logging.getLogger(__name__)

#: Announce intervals of silence after which a registrar is declared lost.
STALENESS_FACTOR = 3.0
#: Lease duration requested for service registrations.
DEFAULT_REGISTRATION_LEASE = 15.0


class ServiceRegistration:
    """Client-side handle for one item registered via the client."""

    def __init__(self, item: ServiceItem, duration: float):
        self.item = item
        self.duration = duration
        #: registrar node id -> lease id held there.
        self.leases: dict[str, str] = {}
        self.cancelled = False

    def registered_at(self) -> list[str]:
        """Registrars currently holding a lease for this item."""
        return list(self.leases)

    def __repr__(self) -> str:
        return (
            f"<ServiceRegistration {self.item.describe()} "
            f"registrars={sorted(self.leases)}>"
        )


class EventSubscription:
    """Client-side handle for one remote-event subscription."""

    def __init__(
        self,
        template: ServiceTemplate,
        listener: Callable[[RemoteEvent], None],
        operation: str,
        duration: float,
    ):
        self.template = template
        self.listener = listener
        self.operation = operation
        self.duration = duration
        #: registrar node id -> listener lease id held there.
        self.leases: dict[str, str] = {}
        self.cancelled = False

    def __repr__(self) -> str:
        return f"<EventSubscription {self.template!r} registrars={sorted(self.leases)}>"


class DiscoveryClient:
    """Joins a node to all registrars in radio range."""

    def __init__(
        self,
        transport: Transport,
        simulator: Simulator,
        announce_interval: float = DEFAULT_ANNOUNCE_INTERVAL,
        retry_policy: RetryPolicy | None = None,
    ):
        self.transport = transport
        self.simulator = simulator
        self.node_id = transport.node.node_id
        self.announce_interval = announce_interval
        #: When a policy is given, register/listen requests retry with
        #: backoff + circuit breaking and renewals back off on failure;
        #: None keeps the classic fire-and-reconcile behavior.
        self.retry_policy = retry_policy
        self._client = (
            ResilientClient(
                transport,
                simulator,
                policy=retry_policy,
                name=f"{self.node_id}.discovery",
            )
            if retry_policy is not None
            else None
        )
        #: Public read access for inspection (breaker states, retry stats).
        self.resilient_client = self._client
        #: Fires with (registrar_id,) when a new registrar is heard.
        self.on_registrar_found = Signal(f"{self.node_id}.on_registrar_found")
        #: Fires with (registrar_id,) when a registrar goes silent.
        self.on_registrar_lost = Signal(f"{self.node_id}.on_registrar_lost")

        self._registrars: dict[str, float] = {}  # id -> last heard (sim time)
        self._registrations: list[ServiceRegistration] = []
        self._subscriptions: list[EventSubscription] = []
        self._subscription_counter = 0
        self._renewer = RenewalAgent(
            simulator,
            self._renew_leases,
            name=f"{self.node_id}.discovery",
            backoff=retry_policy,
        )
        self._renewer.on_abandoned.connect(self._lease_abandoned)
        self._reaper = PeriodicTimer(
            simulator,
            announce_interval,
            self._reap_stale,
            name=f"{self.node_id}.reaper",
        )
        transport.register(ANNOUNCE, self._heard_announce)

    # -- lifecycle ------------------------------------------------------------------

    def start(self) -> "DiscoveryClient":
        """Probe for registrars and begin staleness tracking."""
        self.probe()
        self._reaper.start()
        return self

    def stop(self) -> None:
        """Stop all periodic activity (registrations will lapse remotely)."""
        self._reaper.stop()
        self._renewer.stop()

    def probe(self) -> None:
        """Actively solicit announcements from registrars in range."""
        self.transport.broadcast(PROBE, {})

    def reset_volatile(self) -> None:
        """Crash model: forget everything learned from the network.

        Known registrars, held leases and in-flight renewals vanish; the
        *declared* registrations and subscriptions survive (they are the
        application's configuration) and will be re-taken at every
        registrar heard after restart.
        """
        for tracked in self._renewer.tracked():
            self._renewer.forget(tracked.lease_id)
        for registration in self._registrations:
            registration.leases.clear()
        for subscription in self._subscriptions:
            subscription.leases.clear()
        self._registrars.clear()

    def _request(
        self,
        destination: str,
        operation: str,
        body: Any,
        on_reply: Callable[[Any], None],
        on_error: Callable[[Exception], None],
    ) -> None:
        if self._client is not None:
            self._client.call(
                destination, operation, body, on_reply=on_reply, on_error=on_error
            )
        else:
            self.transport.request(
                destination, operation, body, on_reply=on_reply, on_error=on_error
            )

    # -- registrar set -----------------------------------------------------------------

    @property
    def registrars(self) -> list[str]:
        """Node ids of registrars currently believed reachable."""
        return list(self._registrars)

    def _heard_announce(self, sender: str, body: dict[str, Any]) -> None:
        registrar = body["registrar"]
        is_new = registrar not in self._registrars
        self._registrars[registrar] = self.simulator.now
        if is_new:
            logger.debug("%s: found registrar %s", self.node_id, registrar)
            self.on_registrar_found.fire(registrar)
            for registration in self._registrations:
                if not registration.cancelled:
                    self._register_with(registration, registrar)
            for subscription in self._subscriptions:
                if not subscription.cancelled:
                    self._listen_with(subscription, registrar)

    def _reap_stale(self) -> None:
        horizon = self.simulator.now - STALENESS_FACTOR * self.announce_interval
        for registrar, heard in list(self._registrars.items()):
            if heard < horizon:
                del self._registrars[registrar]
                self._forget_registrar(registrar)
                logger.debug("%s: lost registrar %s", self.node_id, registrar)
                self.on_registrar_lost.fire(registrar)
        self._reconcile_registrations()

    def _reconcile_registrations(self) -> None:
        """Ensure every live registration holds a lease at every known
        registrar.  Heals one-shot losses: a dropped register request, a
        registration that expired at the registrar during a lossy spell,
        a registrar that restarted."""
        for registration in self._registrations:
            if registration.cancelled:
                continue
            for registrar in self._registrars:
                self._register_with(registration, registrar)
        for subscription in self._subscriptions:
            if subscription.cancelled:
                continue
            for registrar in self._registrars:
                self._listen_with(subscription, registrar)

    def _forget_registrar(self, registrar: str) -> None:
        for registration in self._registrations:
            lease_id = registration.leases.pop(registrar, None)
            if lease_id is not None:
                self._renewer.forget(lease_id)
        for subscription in self._subscriptions:
            lease_id = subscription.leases.pop(registrar, None)
            if lease_id is not None:
                self._renewer.forget(lease_id)

    # -- service registration --------------------------------------------------------------

    def register(
        self, item: ServiceItem, duration: float = DEFAULT_REGISTRATION_LEASE
    ) -> ServiceRegistration:
        """Register ``item`` with every known registrar, now and later."""
        registration = ServiceRegistration(item, duration)
        self._registrations.append(registration)
        for registrar in self._registrars:
            self._register_with(registration, registrar)
        return registration

    def cancel(self, registration: ServiceRegistration) -> None:
        """Cancel ``registration`` everywhere."""
        registration.cancelled = True
        if registration in self._registrations:
            self._registrations.remove(registration)
        for registrar, lease_id in list(registration.leases.items()):
            self._renewer.forget(lease_id)
            self.transport.request(
                registrar,
                CANCEL,
                {"lease_id": lease_id},
                on_error=lambda exc, registrar=registrar: logger.debug(
                    "%s: cancel with %s failed (lease will expire): %s",
                    self.node_id,
                    registrar,
                    exc,
                ),
            )
        registration.leases.clear()

    def _register_with(self, registration: ServiceRegistration, registrar: str) -> None:
        if registrar in registration.leases:
            return

        def on_reply(body: dict[str, Any]) -> None:
            if registration.cancelled or registrar not in self._registrars:
                return
            lease_id = body["lease_id"]
            registration.leases[registrar] = lease_id
            self._renewer.track(
                lease_id,
                registrar,
                body["duration"],
                resource=registration.item,
                context=registration,
            )

        self._request(
            registrar,
            REGISTER,
            {"item": registration.item, "duration": registration.duration},
            on_reply=on_reply,
            on_error=lambda exc: logger.debug(
                "%s: registration with %s failed: %s", self.node_id, registrar, exc
            ),
        )

    # -- remote events ----------------------------------------------------------------------

    def listen(
        self,
        template: ServiceTemplate,
        listener: Callable[[RemoteEvent], None],
        duration: float = DEFAULT_REGISTRATION_LEASE,
    ) -> EventSubscription:
        """Subscribe to registration events matching ``template``.

        The subscription is taken with every known registrar (and with
        registrars discovered later); listener leases are renewed until
        :meth:`cancel_subscription`.  With several registrars in range,
        the same physical service may produce one event per registrar —
        consumers should be idempotent.
        """
        self._subscription_counter += 1
        operation = f"discovery.event.{self.node_id}.{self._subscription_counter}"
        subscription = EventSubscription(template, listener, operation, duration)
        self.transport.register(
            operation, lambda sender, body: subscription.listener(body)
        )
        self._subscriptions.append(subscription)
        for registrar in self._registrars:
            self._listen_with(subscription, registrar)
        return subscription

    def cancel_subscription(self, subscription: EventSubscription) -> None:
        """Stop receiving events for ``subscription``."""
        subscription.cancelled = True
        if subscription in self._subscriptions:
            self._subscriptions.remove(subscription)
        self.transport.unregister(subscription.operation)
        for registrar, lease_id in list(subscription.leases.items()):
            self._renewer.forget(lease_id)
            self.transport.request(
                registrar,
                CANCEL,
                {"lease_id": lease_id},
                on_error=lambda exc, registrar=registrar: logger.debug(
                    "%s: listener cancel with %s failed (lease will expire): %s",
                    self.node_id,
                    registrar,
                    exc,
                ),
            )
        subscription.leases.clear()

    def _listen_with(self, subscription: EventSubscription, registrar: str) -> None:
        if registrar in subscription.leases:
            return

        def on_reply(body: dict[str, Any]) -> None:
            if subscription.cancelled or registrar not in self._registrars:
                return
            lease_id = body["lease_id"]
            subscription.leases[registrar] = lease_id
            self._renewer.track(
                lease_id,
                registrar,
                body["duration"],
                resource=subscription.template,
                context=subscription,
            )

        self._request(
            registrar,
            LISTEN,
            {
                "template": subscription.template,
                "operation": subscription.operation,
                "duration": subscription.duration,
            },
            on_reply=on_reply,
            on_error=lambda exc: logger.debug(
                "%s: listen at %s failed: %s", self.node_id, registrar, exc
            ),
        )

    # -- lookup -----------------------------------------------------------------------------

    def lookup(
        self,
        template: ServiceTemplate,
        on_result: Callable[[list[ServiceItem]], None],
        registrar: str | None = None,
        on_error: Callable[[Exception], None] | None = None,
    ) -> None:
        """Query a registrar (the first known one by default)."""
        target = registrar or next(iter(self._registrars), None)
        if target is None:
            on_result([])
            return
        self.transport.request(
            target,
            QUERY,
            {"template": template},
            on_reply=lambda body: on_result(body["items"]),
            on_error=on_error
            or (lambda exc: logger.debug("%s: lookup failed: %s", self.node_id, exc)),
        )

    # -- renewal plumbing ----------------------------------------------------------------------

    def _renew_leases(
        self,
        batch: list[TrackedLease],
        on_success: Callable[[TrackedLease], None],
        on_failure: Callable[[TrackedLease, Exception], None],
    ) -> None:
        # A registrar renews one lease per request: the round's leases
        # go out one ``lookup.renew`` each.
        for tracked in batch:
            self._renew_lease(tracked, on_success, on_failure)

    def _renew_lease(
        self,
        tracked: TrackedLease,
        on_success: Callable[[TrackedLease], None],
        on_failure: Callable[[TrackedLease, Exception], None],
    ) -> None:
        def on_error(exc: Exception) -> None:
            if isinstance(exc, RemoteError):
                # The registrar answered but no longer knows the lease —
                # it expired there, or the registrar crashed and lost its
                # table.  Retrying cannot revive it; abandon immediately
                # so ``_lease_abandoned`` takes a fresh registration now.
                self._renewer.abandon(tracked.lease_id)
                return
            on_failure(tracked, exc)

        self.transport.request(
            tracked.peer,
            RENEW,
            {"lease_id": tracked.lease_id},
            on_reply=lambda body: on_success(tracked),
            on_error=on_error,
        )

    def _lease_abandoned(self, tracked: TrackedLease) -> None:
        holder = tracked.context
        if holder is None:
            return
        for registrar, lease_id in list(holder.leases.items()):
            if lease_id != tracked.lease_id:
                continue
            del holder.leases[registrar]
            # The lease died (e.g. it expired at the registrar during a
            # lossy spell) but the registrar is still around: take a
            # fresh one instead of silently disappearing.
            if not holder.cancelled and registrar in self._registrars:
                if isinstance(holder, EventSubscription):
                    self._listen_with(holder, registrar)
                else:
                    self._register_with(holder, registrar)

    def __repr__(self) -> str:
        return (
            f"<DiscoveryClient {self.node_id} registrars={len(self._registrars)} "
            f"registrations={len(self._registrations)}>"
        )
