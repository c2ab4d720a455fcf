"""Batched lease machinery: table sweeps and agent batch renewal.

These are the fleet-scale modes — one kernel event per table/agent per
interval instead of one per lease — with semantics identical to the
exact per-lease modes at sweep-tick resolution.
"""

import pytest

from repro.errors import LeaseExpiredError
from repro.leasing.renewer import RenewalAgent
from repro.leasing.table import LeaseTable
from repro.resilience.policy import RetryPolicy


class FakeRemote:
    def __init__(self):
        self.renew_calls = 0  # leases renewed
        self.rounds = 0  # renew-function calls
        self.fail = False

    def renew_function(self, batch, on_success, on_failure):
        self.rounds += 1
        for tracked in batch:
            self.renew_calls += 1
            if self.fail:
                on_failure(tracked, TimeoutError("unreachable"))
            else:
                on_success(tracked)


class TestSweepTable:
    def test_expiry_fires_on_first_sweep_after_lapse(self, sim):
        table = LeaseTable(sim, name="swept", sweep_interval=1.0)
        expired = []
        table.on_expired.connect(expired.append)
        lease = table.grant("holder", "res", duration=2.5)
        sim.run(until=2.4)
        assert not expired  # not lapsed yet
        sim.run(until=3.0)  # sweep at t=3 sees expires_at=2.5
        assert [e.lease_id for e in expired] == [lease.lease_id]

    def test_renewal_defers_expiry_without_new_events(self, sim):
        table = LeaseTable(sim, name="swept", sweep_interval=1.0)
        expired = []
        table.on_expired.connect(expired.append)
        lease = table.grant("holder", "res", duration=2.0)
        sim.run(until=1.0)
        table.renew(lease.lease_id)
        # Renewal in sweep mode schedules nothing: only the sweep timer
        # itself lives in the kernel.
        assert sim.pending == 1
        sim.run(until=2.9)
        assert not expired
        sim.run(until=4.0)
        assert len(expired) == 1

    def test_one_timer_for_many_leases(self, sim):
        table = LeaseTable(sim, name="swept", sweep_interval=1.0)
        for i in range(500):
            table.grant(f"holder-{i}", i, duration=2.0)
        assert sim.pending == 1
        steps = sim.run(until=10.0)
        # ~10 sweep ticks processed 500 expiries; per-lease mode would
        # have burned one kernel event per lease.
        assert steps <= 12
        assert len(table) == 0
        assert table.sweeps >= 2

    def test_sweep_disarms_when_empty_and_rearms_on_grant(self, sim):
        table = LeaseTable(sim, name="swept", sweep_interval=1.0)
        table.grant("h", "r", duration=0.5)
        sim.run(until=5.0)
        assert sim.pending == 0  # table empty, sweep gone
        table.grant("h", "r2", duration=0.5)
        assert sim.pending == 1

    def test_cancel_and_crash_work_in_sweep_mode(self, sim):
        table = LeaseTable(sim, name="swept", sweep_interval=1.0)
        lease = table.grant("h", "r", duration=5.0)
        table.cancel(lease.lease_id)
        with pytest.raises(LeaseExpiredError):
            table.get(lease.lease_id)
        table.grant("h", "r2", duration=5.0)
        table.reset_volatile()
        assert len(table) == 0
        sim.run()
        assert sim.pending == 0


class TestBatchedRenewalAgent:
    def test_batch_mode_renews_on_cadence(self, sim):
        remote = FakeRemote()
        agent = RenewalAgent(
            sim, remote.renew_function, interval=1.0, batch_interval=0.25
        )
        agent.track("l1", "peer", duration=2.0)
        agent.track("l2", "peer", duration=2.0)
        sim.run(until=3.1)
        # Three rounds due by t=3.1 (first at ~1.0), two leases each.
        assert remote.renew_calls == 6

    def test_single_kernel_timer_for_many_leases(self, sim):
        remote = FakeRemote()
        agent = RenewalAgent(
            sim, remote.renew_function, interval=5.0, batch_interval=1.0
        )
        for i in range(1000):
            agent.track(f"l{i}", "peer", duration=10.0)
        assert sim.pending == 1
        sim.run(until=20.0)
        assert remote.renew_calls == 1000 * 4  # rounds at 5,10,15,20
        assert agent.batch_ticks == 20

    def test_batch_failure_counting_and_abandon(self, sim):
        remote = FakeRemote()
        remote.fail = True
        agent = RenewalAgent(
            sim,
            remote.renew_function,
            interval=1.0,
            max_failures=3,
            batch_interval=0.5,
        )
        abandoned = []
        agent.on_abandoned.connect(abandoned.append)
        agent.track("l1", "peer", duration=2.0)
        sim.run(until=10.0)
        assert [t.lease_id for t in abandoned] == ["l1"]
        assert not agent.tracking("l1")

    def test_batch_backoff_retries_at_tick_resolution(self, sim):
        remote = FakeRemote()
        remote.fail = True
        agent = RenewalAgent(
            sim,
            remote.renew_function,
            interval=2.0,
            max_failures=4,
            batch_interval=0.25,
            backoff=RetryPolicy(initial_backoff=0.3, multiplier=2.0, jitter=0.0),
        )
        agent.track("l1", "peer", duration=4.0)
        sim.run(until=4.0)
        # Backoff retries (2.0, 2.5, 3.25) land denser than the 2 s
        # period alone (2.0, 4.0) would allow.
        assert remote.renew_calls >= 3

    def test_stop_cancels_the_batch_timer(self, sim):
        remote = FakeRemote()
        agent = RenewalAgent(
            sim, remote.renew_function, interval=1.0, batch_interval=0.5
        )
        agent.track("l1", "peer", duration=2.0)
        agent.stop()
        sim.run(until=5.0)
        assert remote.renew_calls == 0
        # Re-tracking re-arms the sweep.
        agent.track("l2", "peer", duration=2.0)
        sim.run(until=10.0)
        assert remote.renew_calls > 0
