"""Property-based tests of the renewal agent's per-peer rounds.

A hypothesis state machine tracks, forgets, settles and advances time
on 1-3 peers, against a per-lease reference model: each lease has its
own period and due time, exactly as if it were renewed on its own
timer.  The agent may send a lease *earlier* than the model's due time
(it rides its peer's round), never later.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    invariant,
    precondition,
    rule,
)

from repro.leasing.renewer import RENEW_FRACTION, RenewalAgent
from repro.resilience.policy import RetryPolicy
from repro.sim.kernel import Simulator

PEERS = ("p1", "p2", "p3")
#: Lease terms; periods are RENEW_FRACTION of these (0.3, 0.6, 1.5 s).
DURATIONS = st.sampled_from([1.0, 2.0, 5.0])
#: Few step sizes, so rounds and settlements often share an instant.
STEPS = st.sampled_from([0.1, 0.3, 0.5, 0.6, 1.0, 1.5])
MAX_FAILURES = 3


class ModelLease:
    """The reference model of one lease on its own schedule."""

    def __init__(self, lease_id, peer, period, now):
        self.lease_id = lease_id
        self.peer = peer
        self.period = period
        self.due = now + period
        self.in_flight = False
        self.failures = 0
        self.last_success = now


class RenewerMachine(RuleBasedStateMachine):
    """Per-peer rounds checked against per-lease deadlines."""

    #: A retry policy for failed renewals (None: legacy counting).
    backoff = None
    #: Track at most one lease per peer at a time.
    one_per_peer = False

    leases = Bundle("leases")

    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.agent = RenewalAgent(
            self.sim,
            self._renew,
            max_failures=MAX_FAILURES,
            name="prop",
            backoff=self.backoff,
        )
        self.model: dict[str, ModelLease] = {}  # tracking order
        self.calls = []  # (time, peer, lease ids), as the agent made them
        self.checked = 0  # calls already checked against the model
        self.pending = {}  # lease id -> (tracked, on_success, on_failure)
        self.predicted = []  # (time, lease id): one_per_peer only
        self.next_id = 0

    def _renew(self, batch, on_success, on_failure):
        self.calls.append((self.sim.now, batch[0].peer, [t.lease_id for t in batch]))
        for tracked in batch:
            self.pending[tracked.lease_id] = (tracked, on_success, on_failure)

    # -- the model's clock ---------------------------------------------------------

    def _coalesce_until(self, time):
        """A lease in flight at its due time keeps its cadence."""
        for lease in self.model.values():
            while lease.in_flight and lease.due <= time:
                lease.due += lease.period

    def _predict_until(self, time):
        """Per-lease timers: the calls the reference model makes by ``time``."""
        for lease in self.model.values():
            while lease.due <= time:
                if not lease.in_flight:
                    self.predicted.append((lease.due, lease.lease_id))
                    lease.in_flight = True
                lease.due += lease.period

    def _check_calls(self):
        """Replay the agent's new calls against the model, in order."""
        for time, peer, ids in self.calls[self.checked:]:
            self._coalesce_until(time)
            expected = [
                lease.lease_id
                for lease in self.model.values()
                if lease.peer == peer and not lease.in_flight
            ]
            # The round carries every lease of the peer not in flight ...
            assert ids == expected, (time, peer, ids, expected)
            for lease_id in ids:
                lease = self.model[lease_id]
                # ... none of them later than its own due time.
                assert time <= lease.due, (time, lease_id, lease.due)
                lease.in_flight = True
                lease.due = time + lease.period
        self.checked = len(self.calls)

    # -- rules ---------------------------------------------------------------------

    @rule(target=leases, peer=st.sampled_from(PEERS), duration=DURATIONS)
    def track(self, peer, duration):
        if self.one_per_peer:
            held = {lease.peer for lease in self.model.values()}
            free = [p for p in PEERS if p not in held]
            if not free:
                return None
            peer = free[0]
        lease_id = f"l{self.next_id}"
        self.next_id += 1
        self.agent.track(lease_id, peer, duration)
        self.model[lease_id] = ModelLease(
            lease_id, peer, max(duration * RENEW_FRACTION, 0.001), self.sim.now
        )
        return lease_id

    @rule(lease_id=consumes(leases))
    def forget(self, lease_id):
        if lease_id is None:
            return
        self.agent.forget(lease_id)
        self.model.pop(lease_id, None)
        self.pending.pop(lease_id, None)

    @rule(step=STEPS)
    def advance(self, step):
        target = self.sim.now + step
        if self.one_per_peer:
            self._predict_until(target)
        self.sim.run(until=target)
        if self.one_per_peer:
            made = sorted(
                (time, lease_id) for time, _peer, ids in self.calls for lease_id in ids
            )
            assert made == sorted(self.predicted)
        else:
            self._check_calls()
            self._coalesce_until(self.sim.now)

    @precondition(lambda self: self.pending)
    @rule(data=st.data())
    def succeed(self, data):
        lease_id = data.draw(st.sampled_from(sorted(self.pending)))
        tracked, on_success, _on_failure = self.pending.pop(lease_id)
        on_success(tracked)
        lease = self.model.get(lease_id)
        if lease is not None:
            lease.in_flight = False
            lease.failures = 0
            lease.last_success = self.sim.now

    @precondition(lambda self: self.pending)
    @rule(data=st.data())
    def fail(self, data):
        lease_id = data.draw(st.sampled_from(sorted(self.pending)))
        tracked, _on_success, on_failure = self.pending.pop(lease_id)
        on_failure(tracked, TimeoutError("lost"))
        lease = self.model.get(lease_id)
        if lease is None:
            return
        lease.in_flight = False
        lease.failures += 1
        if self.backoff is None:
            abandoned = lease.failures >= MAX_FAILURES
        else:
            silence = self.sim.now - lease.last_success
            abandoned = silence >= MAX_FAILURES * lease.period
            if not abandoned:
                lease.due = self.sim.now + min(
                    self.backoff.backoff(lease.failures, None), lease.period
                )
        if abandoned:
            del self.model[lease_id]
        assert self.agent.tracking(lease_id) == (not abandoned)

    # -- invariants ----------------------------------------------------------------

    @invariant()
    def no_lease_outside_a_request_passes_its_due_time(self):
        now = self.sim.now
        for lease in self.model.values():
            assert lease.in_flight or lease.due > now, (lease.lease_id, lease.due, now)

    @invariant()
    def each_peer_gets_at_most_one_call_per_instant(self):
        instants = [(time, peer) for time, peer, _ids in self.calls]
        assert len(instants) == len(set(instants))

    @invariant()
    def one_timer_per_peer_holding_leases(self):
        assert sorted(self.model) == sorted(t.lease_id for t in self.agent.tracked())
        assert self.sim.pending == len({lease.peer for lease in self.model.values()})


class BackoffRenewerMachine(RenewerMachine):
    backoff = RetryPolicy(initial_backoff=0.25, jitter=0.0)


class OneLeasePerPeerMachine(RenewerMachine):
    """With one lease per peer, calls land exactly where per-lease timers
    would put them."""

    one_per_peer = True


class OneLeasePerPeerBackoffMachine(OneLeasePerPeerMachine):
    backoff = RetryPolicy(initial_backoff=0.25, jitter=0.0)


SETTINGS = settings(max_examples=60, stateful_step_count=40, deadline=None)

TestRenewerRounds = RenewerMachine.TestCase
TestRenewerRounds.settings = SETTINGS
TestRenewerRoundsWithBackoff = BackoffRenewerMachine.TestCase
TestRenewerRoundsWithBackoff.settings = SETTINGS
TestOneLeasePerPeer = OneLeasePerPeerMachine.TestCase
TestOneLeasePerPeer.settings = SETTINGS
TestOneLeasePerPeerWithBackoff = OneLeasePerPeerBackoffMachine.TestCase
TestOneLeasePerPeerWithBackoff.settings = SETTINGS
