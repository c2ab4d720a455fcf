"""RenewalAgent coalescing, backoff retries, and fast abandonment."""

import pytest

from repro.leasing.renewer import RenewalAgent
from repro.resilience import RetryPolicy


class SlowPeer:
    """A renew function whose outcome arrives only when the test says so."""

    def __init__(self):
        self.calls = []
        self.pending = []

    def __call__(self, batch, on_success, on_failure):
        for tracked in batch:
            self.calls.append(tracked.lease_id)
            self.pending.append((tracked, on_success, on_failure))

    def answer_all(self, ok=True):
        pending, self.pending = self.pending, []
        for tracked, on_success, on_failure in pending:
            if ok:
                on_success(tracked)
            else:
                on_failure(tracked, RuntimeError("renewal failed"))


class TestCoalescing:
    def test_rounds_during_in_flight_renewal_are_coalesced(self, sim):
        peer = SlowPeer()
        agent = RenewalAgent(sim, peer, interval=1.0)
        agent.track("lease-1", "peer", duration=10.0)
        # The first round (t=1) goes out and never completes; later rounds
        # must not stack a second request for the same lease.
        sim.run_for(4.5)
        assert peer.calls == ["lease-1"]
        assert agent.coalesced == 3  # t = 2, 3, 4

    def test_cadence_resumes_after_late_outcome(self, sim):
        peer = SlowPeer()
        agent = RenewalAgent(sim, peer, interval=1.0)
        agent.track("lease-1", "peer", duration=10.0)
        sim.run_for(2.5)  # one call in flight, one coalesced
        peer.answer_all(ok=True)
        sim.run_for(2.0)  # the round at t=3 goes out again
        assert len(peer.calls) == 2
        assert agent.coalesced == 2  # t = 2 and t = 4

    def test_independent_leases_not_coalesced_together(self, sim):
        peer = SlowPeer()
        agent = RenewalAgent(sim, peer, interval=1.0)
        agent.track("lease-1", "peer", duration=10.0)
        agent.track("lease-2", "peer", duration=10.0)
        sim.run_for(1.5)
        assert sorted(peer.calls) == ["lease-1", "lease-2"]

    def test_late_success_of_forgotten_lease_is_ignored(self, sim):
        peer = SlowPeer()
        agent = RenewalAgent(sim, peer, interval=1.0)
        agent.track("lease-1", "peer", duration=10.0)
        sim.run_for(1.5)
        agent.forget("lease-1")
        peer.answer_all(ok=True)  # must not resurrect tracking
        assert not agent.tracking("lease-1")
        sim.run_for(3.0)
        assert peer.calls == ["lease-1"]


class TestBackoff:
    def test_failures_retry_sooner_than_the_period(self, sim):
        calls = []

        def failing(batch, on_success, on_failure):
            for tracked in batch:
                calls.append(sim.now)
                on_failure(tracked, RuntimeError("nope"))

        agent = RenewalAgent(
            sim,
            failing,
            interval=2.0,
            backoff=RetryPolicy(initial_backoff=0.25, jitter=0.0),
        )
        agent.track("lease-1", "peer", duration=10.0)
        sim.run_for(4.0)
        legacy_calls = len([t for t in calls])  # with backoff
        # Legacy cadence would have produced 2 calls by t=4; backoff
        # retries (0.25, 0.5, 1.0, capped at 2.0) produce strictly more.
        assert legacy_calls > 2

    def test_abandons_only_after_silence_budget(self, sim):
        abandoned = []

        def failing(batch, on_success, on_failure):
            for tracked in batch:
                on_failure(tracked, RuntimeError("nope"))

        agent = RenewalAgent(
            sim,
            failing,
            interval=1.0,
            max_failures=6,
            backoff=RetryPolicy(initial_backoff=0.25, jitter=0.0),
        )
        agent.on_abandoned.connect(abandoned.append)
        agent.track("lease-1", "peer", duration=10.0)
        sim.run_for(5.9)  # silence budget = 6 × 1.0 s
        assert abandoned == []
        sim.run_for(2.0)
        assert [t.lease_id for t in abandoned] == ["lease-1"]

    def test_success_resets_the_silence_clock(self, sim):
        outcomes = iter([False] * 4 + [True] + [False] * 100)
        abandoned = []

        def sometimes(batch, on_success, on_failure):
            for tracked in batch:
                if next(outcomes):
                    on_success(tracked)
                else:
                    on_failure(tracked, RuntimeError("nope"))

        agent = RenewalAgent(
            sim,
            sometimes,
            interval=1.0,
            max_failures=6,
            backoff=RetryPolicy(initial_backoff=0.25, jitter=0.0),
        )
        agent.on_abandoned.connect(abandoned.append)
        agent.track("lease-1", "peer", duration=10.0)
        sim.run_for(6.5)
        # A success landed within the first budget; the lease survives
        # past the naive 6-second deadline because silence is measured
        # from the last success, not from tracking start.
        assert abandoned == []
        assert agent.tracking("lease-1")


class TestAbandon:
    def test_abandon_fires_signal_and_stops_renewing(self, sim):
        peer = SlowPeer()
        agent = RenewalAgent(sim, peer, interval=1.0)
        abandoned = []
        agent.on_abandoned.connect(abandoned.append)
        agent.track("lease-1", "peer", duration=10.0)
        sim.run_for(1.5)
        result = agent.abandon("lease-1")
        assert result is not None
        assert [t.lease_id for t in abandoned] == ["lease-1"]
        assert not agent.tracking("lease-1")
        sim.run_for(5.0)
        assert peer.calls == ["lease-1"]

    def test_abandon_unknown_lease_is_a_noop(self, sim):
        agent = RenewalAgent(sim, lambda *a: None, interval=1.0)
        abandoned = []
        agent.on_abandoned.connect(abandoned.append)
        assert agent.abandon("nothing") is None
        assert abandoned == []

    def test_legacy_counting_unchanged_without_backoff(self, sim):
        failures = []

        def failing(batch, on_success, on_failure):
            for tracked in batch:
                failures.append(sim.now)
                on_failure(tracked, RuntimeError("nope"))

        agent = RenewalAgent(sim, failing, interval=1.0, max_failures=3)
        abandoned = []
        agent.on_abandoned.connect(abandoned.append)
        agent.track("lease-1", "peer", duration=10.0)
        sim.run_for(10.0)
        assert len(failures) == 3  # one per period, then abandoned
        assert len(abandoned) == 1
