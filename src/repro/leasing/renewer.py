"""The active (renewing) side of the lease protocol.

A :class:`RenewalAgent` periodically invokes a caller-supplied renewal
function for the leases it tracks.  The extension base uses one to keep
alive the extensions it has distributed ("it is the responsibility of each
extension base to keep alive the functionality it has distributed among
nodes", §3.2); the discovery client uses one to keep its service
registrations alive at the lookup service.

Leases are renewed in *per-peer rounds*, the way Jini's
``LeaseRenewalManager`` renews every lease held with one grantor in one
``LeaseMap.renewAll`` call.  Each lease keeps its own period —
``RENEW_FRACTION × duration`` — and its own due time, but the agent
keeps one timer per *peer*: a round fires when the earliest of that
peer's leases comes due and hands the renew function every lease held
with the peer that is not already in flight, in tracking order.  A node
holding k extensions from one base therefore costs one renewal call per
round, not k, and a lease tracked mid-period rides the next round,
never later than its own due time.  Forgetting the lease that set a
peer's round moves the round to the next lease due, so a lease replaced
before it is due never causes a round.  With one lease per peer a round
is exactly one lease's renewal, on that lease's own schedule.

At most one renewal per lease is in flight at a time: a lease that
comes due while its previous renewal is still outstanding is
*coalesced* (skipped, with the schedule kept), never stacked.

Outcomes are settled per lease — the renew function reports each lease
of a batch to ``on_success(tracked)`` or ``on_failure(tracked, error)``
— and failure handling comes in two flavors:

- **legacy counting** (no ``backoff``): failures are counted per lease
  and after ``max_failures`` consecutive failures the lease is abandoned
  locally — ``on_abandoned`` fires and the remote side's own expiry
  cleans up there;
- **backoff** (a :class:`~repro.resilience.policy.RetryPolicy`): a
  failed renewal is retried after an exponentially growing, seeded-
  jittered delay (capped at the renewal period) instead of waiting a
  full period — the retry moves that lease's due time, and with it the
  peer's round — and the lease is abandoned only once the peer has been
  *silent* for the same overall budget the counting mode allows
  (``max_failures × period``).  Denser attempts under loss, identical
  patience — convergence improves without abandoning earlier.

Either way, :meth:`abandon` lets a caller give up immediately — e.g. on
a reply proving the peer no longer knows the lease (it crashed and lost
its table), where waiting out more failures is pointless.
"""

from __future__ import annotations

import logging
import random
import zlib
from typing import TYPE_CHECKING, Any, Callable

from repro.sim.kernel import Event, Simulator
from repro.telemetry import runtime as _telemetry
from repro.util.signal import Signal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.policy import RetryPolicy

logger = logging.getLogger(__name__)

#: Renew when this fraction of the lease term has elapsed.  Well under
#: 1/max_failures of slack remains even after a lost renewal or two.
RENEW_FRACTION = 0.3
#: Consecutive failures after which a lease is abandoned.  A renewal
#: "fails" when either direction of the round trip is lost, but the
#: remote side renews on *request arrival* — so a lost reply must not
#: count for much.  Six consecutive failures (~2 lease terms of silence)
#: means the peer is really gone, not just a lossy spell.
DEFAULT_MAX_FAILURES = 6

# The renew function receives one peer's batch of tracked leases and two
# per-lease callbacks: on_success(tracked) and on_failure(tracked, exc).
# It must settle every lease of the batch through one of them, and is
# expected to be asynchronous (a transport request); the agent never
# blocks.
RenewFunction = Callable[
    [
        list["TrackedLease"],
        Callable[["TrackedLease"], None],
        Callable[["TrackedLease", Exception], None],
    ],
    None,
]


class TrackedLease:
    """A lease the agent is responsible for renewing."""

    __slots__ = (
        "lease_id", "peer", "resource", "duration", "failures", "context",
        "last_success", "next_due",
    )

    def __init__(
        self,
        lease_id: str,
        peer: str,
        duration: float,
        resource: Any = None,
        context: Any = None,
    ):
        self.lease_id = lease_id
        self.peer = peer
        self.resource = resource
        self.duration = duration
        self.failures = 0
        #: Arbitrary caller data carried along (e.g. the extension id).
        self.context = context
        #: Simulated time of the last successful renewal (or of tracking
        #: start) — the silence deadline in backoff mode measures from here.
        self.last_success = 0.0
        #: When this lease next comes due.  The peer's round fires at the
        #: earliest due time among its leases.
        self.next_due = 0.0

    def __repr__(self) -> str:
        return (
            f"<TrackedLease {self.lease_id} peer={self.peer} "
            f"failures={self.failures}>"
        )


class RenewalAgent:
    """Renews tracked leases in per-peer rounds, each on its own period."""

    def __init__(
        self,
        simulator: Simulator,
        renew_function: RenewFunction,
        interval: float | None = None,
        max_failures: int = DEFAULT_MAX_FAILURES,
        name: str = "renewer",
        backoff: "RetryPolicy | None" = None,
        rng: random.Random | None = None,
    ):
        self.simulator = simulator
        self.renew_function = renew_function
        #: Optional fixed renewal period overriding the per-lease fraction.
        self.interval = interval
        self.max_failures = max_failures
        self.name = name
        #: Retry policy for failed renewals; None keeps legacy counting.
        self.backoff = backoff
        # Seeded per agent name: deterministic, decorrelated between nodes.
        self._rng = rng or random.Random(zlib.crc32(name.encode()))
        #: Fires with (tracked_lease,) when renewals have failed too often.
        self.on_abandoned = Signal(f"{name}.on_abandoned")
        #: Fires with (tracked_lease,) on every successful renewal.
        self.on_renewed = Signal(f"{name}.on_renewed")
        self._tracked: dict[str, TrackedLease] = {}
        #: peer -> its tracked leases, in tracking order.
        self._peers: dict[str, dict[str, TrackedLease]] = {}
        #: peer -> the timer of its next round.
        self._rounds: dict[str, Event] = {}
        self._in_flight: set[str] = set()
        self.coalesced = 0
        self._stopped = False

    # -- tracking ----------------------------------------------------------------

    def track(
        self,
        lease_id: str,
        peer: str,
        duration: float,
        resource: Any = None,
        context: Any = None,
    ) -> TrackedLease:
        """Start renewing ``lease_id`` held with ``peer``.

        The lease rides the peer's next round, which is pulled earlier
        if the lease would otherwise come due before it.
        """
        if lease_id in self._tracked:
            self.forget(lease_id)
        tracked = TrackedLease(lease_id, peer, duration, resource, context)
        now = self.simulator.now
        tracked.last_success = now
        tracked.next_due = now + self._period_of(tracked)
        self._tracked[lease_id] = tracked
        self._peers.setdefault(peer, {})[lease_id] = tracked
        self._stopped = False
        timer = self._rounds.get(peer)
        if timer is None or tracked.next_due < timer.time:
            self._arm(peer)
        return tracked

    def forget(self, lease_id: str) -> TrackedLease | None:
        """Stop renewing ``lease_id`` (returns the record, if tracked).

        If the lease set its peer's round, the round moves to the next
        lease due — or goes away with the peer's last lease.
        """
        tracked = self._tracked.pop(lease_id, None)
        self._in_flight.discard(lease_id)
        if tracked is None:
            return None
        peer = tracked.peer
        leases = self._peers[peer]
        del leases[lease_id]
        if not leases:
            del self._peers[peer]
            timer = self._rounds.pop(peer, None)
            if timer is not None:
                timer.cancel()
        else:
            timer = self._rounds.get(peer)
            if timer is not None and tracked.next_due <= timer.time:
                self._arm(peer)
        return tracked

    def abandon(self, lease_id: str) -> TrackedLease | None:
        """Give up on a lease immediately and fire ``on_abandoned``.

        For callers that *know* the lease is dead (e.g. the peer answered
        "never heard of it" after a crash) — skipping the remaining
        failure budget so recovery can start now.
        """
        tracked = self.forget(lease_id)
        if tracked is not None:
            _telemetry.get_recorder().count(
                "lease.renewals.abandoned", agent=self.name, outcome="fast"
            )
            self.on_abandoned.fire(tracked)
        return tracked

    def tracked(self) -> list[TrackedLease]:
        """All leases currently being renewed."""
        return list(self._tracked.values())

    def tracking(self, lease_id: str) -> bool:
        """True if ``lease_id`` is being renewed."""
        return lease_id in self._tracked

    def stop(self) -> None:
        """Stop all renewal activity (tracked set preserved)."""
        self._stopped = True
        for timer in self._rounds.values():
            timer.cancel()
        self._rounds.clear()
        self._in_flight.clear()

    def __len__(self) -> int:
        return len(self._tracked)

    # -- schedules ------------------------------------------------------------------

    def _period_of(self, tracked: TrackedLease) -> float:
        if self.interval is not None:
            return self.interval
        return max(tracked.duration * RENEW_FRACTION, 0.001)

    def _silence_budget(self, tracked: TrackedLease) -> float:
        """How long a peer may stay silent before the lease is abandoned
        (backoff mode).  Matches the legacy counting budget exactly:
        ``max_failures`` consecutive period-spaced failures."""
        return self.max_failures * self._period_of(tracked)

    def _arm(self, peer: str) -> None:
        """Point ``peer``'s round timer at its earliest due lease."""
        leases = self._peers.get(peer)
        if self._stopped or not leases:
            return
        due = max(
            min(tracked.next_due for tracked in leases.values()), self.simulator.now
        )
        timer = self._rounds.get(peer)
        if timer is not None:
            if timer.time == due:
                return
            timer.cancel()
        self._rounds[peer] = self.simulator.schedule_at(due, self._round_due, peer)

    def _round_due(self, peer: str) -> None:
        del self._rounds[peer]
        self._round(peer)

    # -- rounds -----------------------------------------------------------------------

    def _round(self, peer: str) -> None:
        """Renew, in one call, every lease held with ``peer`` not in flight.

        Every lease sent starts a fresh period.  A lease that came due
        while its previous renewal is still on the wire is coalesced —
        its cadence kept, no second request stacked.
        """
        leases = self._peers.get(peer)
        if not leases:
            return
        now = self.simulator.now
        batch = []
        for tracked in leases.values():
            if tracked.lease_id in self._in_flight:
                if tracked.next_due <= now:
                    tracked.next_due = now + self._period_of(tracked)
                    self.coalesced += 1
                    _telemetry.get_recorder().count(
                        "lease.renewals.coalesced", agent=self.name
                    )
                continue
            tracked.next_due = now + self._period_of(tracked)
            self._in_flight.add(tracked.lease_id)
            batch.append(tracked)
        # Arm the next round *before* invoking the renew function: a
        # renewal in flight does not delay the cadence, and an outcome
        # that arrives synchronously (tests, local peers) must be able to
        # move it with a backoff retry.
        self._arm(peer)
        if batch:
            self.renew_function(batch, self._succeeded, self._failed)

    def _succeeded(self, tracked: TrackedLease) -> None:
        self._in_flight.discard(tracked.lease_id)
        if tracked.lease_id in self._tracked:
            tracked.failures = 0
            tracked.last_success = self.simulator.now
            self.on_renewed.fire(tracked)

    def _failed(self, tracked: TrackedLease, error: Exception) -> None:
        self._in_flight.discard(tracked.lease_id)
        if tracked.lease_id not in self._tracked:
            return
        tracked.failures += 1
        logger.debug(
            "%s: renewal of %s failed (%d): %s",
            self.name,
            tracked.lease_id,
            tracked.failures,
            error,
        )
        if self.backoff is None:
            if tracked.failures >= self.max_failures:
                self.forget(tracked.lease_id)
                self.on_abandoned.fire(tracked)
            return
        silence = self.simulator.now - tracked.last_success
        if silence >= self._silence_budget(tracked):
            self.forget(tracked.lease_id)
            _telemetry.get_recorder().count(
                "lease.renewals.abandoned", agent=self.name, outcome="silence"
            )
            self.on_abandoned.fire(tracked)
            return
        # Retry sooner than the next period, backing off per failure.
        delay = min(
            self.backoff.backoff(tracked.failures, self._rng),
            self._period_of(tracked),
        )
        _telemetry.get_recorder().count("lease.renewals.retried", agent=self.name)
        tracked.next_due = self.simulator.now + delay
        # The peer's round follows its earliest due lease.
        self._arm(tracked.peer)

    def __repr__(self) -> str:
        return f"<RenewalAgent {self.name} tracked={len(self._tracked)}>"
