"""Property-based tests of the simulation kernel's ordering guarantees."""

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.sim.kernel import Simulator

delays = st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50)


class TestKernelOrdering:
    @given(delays)
    def test_events_fire_in_nondecreasing_time_order(self, delay_list):
        sim = Simulator()
        fired_times = []
        for delay in delay_list:
            sim.schedule(delay, lambda d=delay: fired_times.append(sim.now))
        sim.run()
        assert fired_times == sorted(fired_times)
        assert len(fired_times) == len(delay_list)

    @given(delays)
    def test_equal_times_fire_in_fifo_order(self, delay_list):
        sim = Simulator()
        fired = []
        for index, delay in enumerate(delay_list):
            rounded = round(delay)  # force collisions
            sim.schedule(rounded, fired.append, (rounded, index))
        sim.run()
        for (time_a, seq_a), (time_b, seq_b) in zip(fired, fired[1:]):
            if time_a == time_b:
                assert seq_a < seq_b

    @given(delays, st.floats(min_value=0.0, max_value=100.0))
    def test_run_until_partitions_cleanly(self, delay_list, horizon):
        sim = Simulator()
        before, after = [], []
        for delay in delay_list:
            target = before if delay <= horizon else after
            sim.schedule(delay, lambda t=target: t.append(sim.now))
        sim.run(until=horizon)
        executed = len(before)
        assert executed == sum(1 for d in delay_list if d <= horizon)
        sim.run()
        assert len(before) + len(after) == len(delay_list)

    @given(delays)
    def test_identical_schedules_identical_traces(self, delay_list):
        def trace():
            sim = Simulator()
            out = []
            for index, delay in enumerate(delay_list):
                sim.schedule(delay, out.append, index)
            sim.run()
            return out

        assert trace() == trace()


#: Offsets from the current time; few values, so ties are common.
OFFSETS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0])


class KernelModel(RuleBasedStateMachine):
    """The kernel against a model: a dict of live events by label.

    The model fires its live events in ``(time, seq)`` order, where
    ``seq`` counts every schedule call, the ones callbacks make
    included.  After every step the kernel must have fired the same
    labels, and its ``pending`` and ``now`` must match the model.
    """

    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.events = []  # kernel handles, by label
        self.fired = []  # labels, in kernel firing order
        self.now = 0.0  # the model's clock
        self.live = {}  # label -> (time, seq, spawns)
        self.next_label = 0

    # -- the kernel side: a callback may schedule a child at ``now`` --------------

    def _fire(self, label, spawns):
        self.fired.append(label)
        if spawns:
            child = self.sim.schedule_at(self.sim.now, self._fire, len(self.events), False)
            self.events.append(child)

    # -- the model side -------------------------------------------------------------

    def _expect(self, time, spawns):
        self.live[self.next_label] = (time, self.next_label, spawns)
        self.next_label += 1

    def _model_run(self, until, max_steps):
        fired = []
        while self.live:
            if max_steps is not None and len(fired) >= max_steps:
                break
            label = min(self.live, key=self.live.get)
            time, _, spawns = self.live[label]
            if until is not None and time > until:
                break
            del self.live[label]
            self.now = time
            fired.append(label)
            if spawns:
                self._expect(time, False)
        if until is not None and until > self.now:
            self.now = until
        return fired

    # -- rules ----------------------------------------------------------------------

    @rule(delay=OFFSETS, spawns=st.booleans())
    def schedule(self, delay, spawns):
        self.events.append(self.sim.schedule(delay, self._fire, len(self.events), spawns))
        self._expect(self.now + delay, spawns)

    @rule(offset=OFFSETS, spawns=st.booleans())
    def schedule_at(self, offset, spawns):
        when = self.now + offset
        self.events.append(self.sim.schedule_at(when, self._fire, len(self.events), spawns))
        self._expect(when, spawns)

    @rule(count=st.integers(min_value=1, max_value=80), delay=OFFSETS)
    def schedule_many(self, count, delay):
        for _ in range(count):
            self.schedule(delay, False)

    @precondition(lambda self: self.events)
    @rule(data=st.data())
    def cancel(self, data):
        label = data.draw(st.integers(min_value=0, max_value=len(self.events) - 1))
        self.events[label].cancel()  # fired or canceled already: a no-op
        self.live.pop(label, None)

    @precondition(lambda self: len(self.sim._queue) >= Simulator.COMPACT_MIN)
    @rule()
    def cancel_until_compacted(self):
        before = self.sim.compactions
        for label in sorted(self.live):
            self.events[label].cancel()
            del self.live[label]
            if self.sim.compactions > before:
                break
        assert self.sim.compactions == before + 1
        assert len(self.sim._queue) == len(self.live)

    @rule(horizon=st.none() | OFFSETS, max_steps=st.none() | st.integers(0, 20))
    def run(self, horizon, max_steps):
        until = None if horizon is None else self.now + horizon
        expected = self._model_run(until, max_steps)
        start = len(self.fired)
        assert self.sim.run(until=until, max_steps=max_steps) == len(expected)
        assert self.fired[start:] == expected

    @rule()
    def step(self):
        expected = self._model_run(None, 1)
        start = len(self.fired)
        assert self.sim.step() == bool(expected)
        assert self.fired[start:] == expected

    @invariant()
    def matches_the_model(self):
        assert self.sim.pending == len(self.live)
        assert self.sim.now == self.now
        assert len(self.events) == self.next_label


TestKernelModel = KernelModel.TestCase
TestKernelModel.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None, derandomize=True
)
