"""Renewal agent tests."""

import pytest

from repro.leasing.renewer import RenewalAgent


class FakeRemote:
    """A scriptable renewal endpoint.

    ``renew_calls`` counts leases renewed; ``rounds`` records each call's
    ``(time, peer, lease ids)``.
    """

    def __init__(self, sim=None):
        self.sim = sim
        self.renew_calls = 0
        self.rounds = []
        self.fail = False

    def renew_function(self, batch, on_success, on_failure):
        self.rounds.append(
            (
                self.sim.now if self.sim is not None else None,
                batch[0].peer,
                [tracked.lease_id for tracked in batch],
            )
        )
        for tracked in batch:
            self.renew_calls += 1
            if self.fail:
                on_failure(tracked, TimeoutError("unreachable"))
            else:
                on_success(tracked)


@pytest.fixture
def remote(sim):
    return FakeRemote(sim)


@pytest.fixture
def agent(sim, remote):
    return RenewalAgent(sim, remote.renew_function, interval=1.0, name="t")


class TestTracking:
    def test_no_renewals_before_tracking(self, sim, remote, agent):
        sim.run(until=5.0)
        assert remote.renew_calls == 0

    def test_periodic_renewals_while_tracked(self, sim, remote, agent):
        agent.track("lease-1", "node-b", duration=2.0)
        sim.run(until=3.5)
        assert remote.renew_calls == 3

    def test_forget_stops_renewals(self, sim, remote, agent):
        agent.track("lease-1", "node-b", duration=2.0)
        sim.run(until=2.5)
        agent.forget("lease-1")
        calls = remote.renew_calls
        sim.run(until=10.0)
        assert remote.renew_calls == calls

    def test_multiple_leases_renewed_each_round(self, sim, remote, agent):
        agent.track("l1", "b", 2.0)
        agent.track("l2", "c", 2.0)
        sim.run(until=1.5)
        assert remote.renew_calls == 2

    def test_tracked_listing(self, agent):
        agent.track("l1", "b", 2.0, resource="ext-a", context={"k": 1})
        tracked = agent.tracked()
        assert len(tracked) == 1
        assert tracked[0].resource == "ext-a"
        assert agent.tracking("l1")
        assert not agent.tracking("l2")


class TestFailureHandling:
    def test_success_resets_failure_count(self, sim, remote, agent):
        tracked = agent.track("l1", "b", 2.0)
        remote.fail = True
        sim.run(until=2.5)  # two failed rounds
        assert tracked.failures == 2
        remote.fail = False
        sim.run(until=3.5)
        assert tracked.failures == 0

    def test_abandoned_after_max_failures(self, sim, remote, agent):
        abandoned = []
        agent.on_abandoned.connect(abandoned.append)
        agent.track("l1", "b", 2.0)
        remote.fail = True
        sim.run(until=10.0)
        assert len(abandoned) == 1
        assert abandoned[0].lease_id == "l1"
        assert not agent.tracking("l1")

    def test_renewals_stop_after_abandonment(self, sim, remote, agent):
        agent.track("l1", "b", 2.0)
        remote.fail = True
        sim.run(until=10.0)
        calls = remote.renew_calls
        sim.run(until=20.0)
        assert remote.renew_calls == calls

    def test_on_renewed_fires(self, sim, remote, agent):
        renewed = []
        agent.on_renewed.connect(renewed.append)
        agent.track("l1", "b", 2.0)
        sim.run(until=1.5)
        assert len(renewed) == 1

    def test_other_leases_survive_one_abandonment(self, sim, agent):
        outcomes = {"good": 0}

        def selective(batch, on_success, on_failure):
            for tracked in batch:
                if tracked.lease_id == "bad":
                    on_failure(tracked, TimeoutError())
                else:
                    outcomes["good"] += 1
                    on_success(tracked)

        agent.renew_function = selective
        agent.track("bad", "b", 2.0)
        agent.track("good", "c", 2.0)
        sim.run(until=10.0)
        assert not agent.tracking("bad")
        assert agent.tracking("good")
        assert outcomes["good"] >= 5


class TestPerPeerRounds:
    def test_one_call_per_round_carries_every_lease_of_the_peer(
        self, sim, remote, agent
    ):
        for index in range(4):
            agent.track(f"l{index}", "b", 2.0)
        sim.run(until=3.5)
        leases = ["l0", "l1", "l2", "l3"]
        assert remote.rounds == [(1.0, "b", leases), (2.0, "b", leases), (3.0, "b", leases)]
        assert remote.renew_calls == 12

    def test_each_peer_has_its_own_round(self, sim, remote, agent):
        agent.track("l1", "b", 2.0)
        sim.run(until=0.5)
        agent.track("l2", "c", 2.0)
        sim.run(until=1.6)
        assert remote.rounds == [(1.0, "b", ["l1"]), (1.5, "c", ["l2"])]

    def test_lease_tracked_mid_period_rides_the_next_round(self, sim, remote, agent):
        agent.track("l1", "b", 2.0)  # due at 1.0
        sim.run(until=0.4)
        agent.track("l2", "b", 2.0)  # due at 1.4: rides the round at 1.0
        sim.run(until=2.5)
        assert remote.rounds == [(1.0, "b", ["l1", "l2"]), (2.0, "b", ["l1", "l2"])]

    def test_lease_due_first_pulls_the_round_earlier(self, sim, remote):
        agent = RenewalAgent(sim, remote.renew_function, name="t")
        agent.track("long", "b", 10.0)  # period 3.0: due at 3.0
        sim.run(until=1.0)
        agent.track("short", "b", 2.0)  # period 0.6: due at 1.6
        sim.run(until=2.5)
        times = [time for time, _peer, _ids in remote.rounds]
        assert times == pytest.approx([1.6, 2.2])
        assert all(ids == ["long", "short"] for _t, _p, ids in remote.rounds)

    def test_forgotten_lease_fires_no_round(self, sim, remote, agent):
        agent.track("l1", "b", 2.0)  # due at 1.0
        sim.run(until=0.5)
        agent.track("l2", "b", 2.0)  # due at 1.5
        agent.forget("l1")
        # One live timer, as with one timer per lease: l2's.
        assert sim.pending == 1
        sim.run(until=1.2)
        assert remote.rounds == []
        sim.run(until=1.6)
        assert remote.rounds == [(1.5, "b", ["l2"])]

    def test_forgetting_a_peers_last_lease_cancels_its_round(self, sim, remote, agent):
        agent.track("l1", "b", 2.0)
        agent.forget("l1")
        assert sim.pending == 0
        sim.run(until=5.0)
        assert remote.rounds == []

    def test_replacing_leases_before_they_are_due_fires_no_round(
        self, sim, remote, agent
    ):
        # Policy churn: each lease is replaced 0.8 s after it is tracked,
        # before its 1 s period is up.
        live = []
        for step in range(20):
            sim.run(until=step * 0.4)
            if len(live) == 2:
                agent.forget(live.pop(0))
            live.append(f"l{step}")
            agent.track(live[-1], "b", 2.0)
            assert sim.pending == 1
        assert remote.rounds == []
