"""Local lease tracking with exact expiry.

A :class:`LeaseTable` is the passive side of the lease protocol: it issues
leases, extends them on renewal, and fires ``on_expired`` at the precise
simulated instant a term lapses.  Both the lookup service (for service
registrations) and the MIDAS extension receiver (for installed
extensions — "if a MIDAS base fails to keep a given extension alive, the
extension is immediately withdrawn") are built on it.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import LeaseDeniedError, LeaseExpiredError
from repro.leasing.lease import Lease, LeaseState
from repro.sim.kernel import Event, Simulator
from repro.telemetry import runtime as _telemetry
from repro.util.ids import fresh_id
from repro.util.signal import Signal

#: Default lease term, seconds.  Deliberately short: the paper's leases
#: bound how long a node that silently left keeps its extensions.
DEFAULT_DURATION = 10.0


class LeaseTable:
    """Issues and tracks leases, firing ``on_expired``/``on_cancelled``."""

    def __init__(
        self,
        simulator: Simulator,
        max_duration: float | None = None,
        name: str = "leases",
    ):
        self.simulator = simulator
        self.max_duration = max_duration
        self.name = name
        #: Fires with (lease,) when a term lapses without renewal.
        self.on_expired = Signal(f"{name}.on_expired")
        #: Fires with (lease,) when a lease is cancelled by its holder.
        self.on_cancelled = Signal(f"{name}.on_cancelled")
        self._leases: dict[str, Lease] = {}
        self._expiry_events: dict[str, Event] = {}

    # -- issuing ------------------------------------------------------------------

    def grant(
        self,
        holder: str,
        resource: Any,
        duration: float = DEFAULT_DURATION,
    ) -> Lease:
        """Issue a new lease (clamped to ``max_duration`` if configured)."""
        if duration <= 0:
            raise LeaseDeniedError(f"lease duration must be positive, got {duration}")
        granted = self._clamp(duration)
        lease = Lease(fresh_id("lease"), holder, resource, granted, self.simulator.now)
        self._leases[lease.lease_id] = lease
        self._schedule_expiry(lease)
        recorder = _telemetry.get_recorder()
        recorder.count("lease.granted", table=self.name)
        if recorder.enabled:
            recorder.event(
                "lease.granted",
                table=self.name,
                holder=holder,
                resource=str(resource),
                duration=granted,
            )
        return lease

    def renew(self, lease_id: str, duration: float | None = None) -> Lease:
        """Extend a lease's term from now; raises if expired/unknown."""
        lease = self.get(lease_id)
        granted = self._clamp(duration) if duration is not None else None
        lease._renew(self.simulator.now, granted)
        self._schedule_expiry(lease)
        recorder = _telemetry.get_recorder()
        recorder.count("lease.renewed", table=self.name)
        if recorder.enabled:
            recorder.event(
                "lease.renewed",
                table=self.name,
                holder=lease.holder,
                resource=str(lease.resource),
                expires_at=lease.expires_at,
            )
        return lease

    def cancel(self, lease_id: str) -> Lease:
        """Terminate a lease early, at the holder's request."""
        lease = self.get(lease_id)
        lease.state = LeaseState.CANCELLED
        self._drop(lease)
        _telemetry.get_recorder().count("lease.cancelled", table=self.name)
        self.on_cancelled.fire(lease)
        return lease

    # -- queries ---------------------------------------------------------------------

    def get(self, lease_id: str) -> Lease:
        """Look up an *active* lease by id."""
        lease = self._leases.get(lease_id)
        if lease is None:
            raise LeaseExpiredError(f"unknown or inactive lease {lease_id!r}")
        return lease

    def active(self) -> list[Lease]:
        """All currently active leases."""
        return list(self._leases.values())

    def held_by(self, holder: str) -> Iterator[Lease]:
        """Active leases issued to ``holder``."""
        return (lease for lease in self._leases.values() if lease.holder == holder)

    def __len__(self) -> int:
        return len(self._leases)

    def __contains__(self, lease_id: str) -> bool:
        return lease_id in self._leases

    # -- crash support -----------------------------------------------------------------

    def reset_volatile(self) -> None:
        """Forget every lease silently (crash model: memory wipe).

        No ``on_expired``/``on_cancelled`` fires — a crashed process
        cannot run cleanup; holders discover the loss when their next
        renewal is refused.
        """
        for event in self._expiry_events.values():
            event.cancel()
        self._expiry_events.clear()
        self._leases.clear()

    # -- plumbing ----------------------------------------------------------------------

    def _clamp(self, duration: float) -> float:
        if self.max_duration is not None:
            return min(duration, self.max_duration)
        return duration

    def _schedule_expiry(self, lease: Lease) -> None:
        old = self._expiry_events.pop(lease.lease_id, None)
        if old is not None:
            old.cancel()
        self._expiry_events[lease.lease_id] = self.simulator.schedule_at(
            lease.expires_at, self._expire, lease.lease_id, lease.expires_at
        )

    def _expire(self, lease_id: str, expected_expiry: float) -> None:
        lease = self._leases.get(lease_id)
        if lease is None or lease.expires_at > expected_expiry:
            return  # renewed or cancelled since this event was scheduled
        lease.state = LeaseState.EXPIRED
        self._drop(lease)
        recorder = _telemetry.get_recorder()
        recorder.count("lease.expired", table=self.name)
        recorder.event(
            "lease.expired",
            table=self.name,
            holder=lease.holder,
            resource=str(lease.resource),
        )
        self.on_expired.fire(lease)

    def _drop(self, lease: Lease) -> None:
        self._leases.pop(lease.lease_id, None)
        event = self._expiry_events.pop(lease.lease_id, None)
        if event is not None:
            event.cancel()

    def __repr__(self) -> str:
        return f"<LeaseTable {self.name} active={len(self._leases)}>"
