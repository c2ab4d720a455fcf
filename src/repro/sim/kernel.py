"""The simulation kernel: virtual time and an ordered event queue.

Events scheduled for the same instant fire in FIFO order of scheduling,
which gives the whole platform a deterministic total order of execution.
Callbacks run synchronously inside :meth:`Simulator.step`; a callback may
schedule further events (including at the current time).
"""

from __future__ import annotations

import heapq
import logging
from typing import Any, Callable

from repro.errors import SimulationError
from repro.util.clock import Clock

logger = logging.getLogger(__name__)


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`.

    Hold on to the event to :meth:`cancel` it.  The simulator's heap
    holds ``(time, seq, event)`` entries, so it pops events in
    deterministic ``(time, seq)`` order and compares them as tuples in C.
    """

    __slots__ = ("time", "seq", "fn", "args", "kwargs", "canceled", "_sim", "_queued")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple[Any, ...],
        kwargs: dict[str, Any],
        sim: "Simulator | None" = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.canceled = False
        # Owning simulator and in-queue flag, so cancel() can keep the
        # simulator's live-event count exact without scanning the heap.
        self._sim = sim
        self._queued = sim is not None

    def cancel(self) -> None:
        """Prevent this event from firing (safe to call more than once)."""
        if self.canceled:
            return
        self.canceled = True
        if self._queued and self._sim is not None:
            self._sim._note_canceled()

    def __repr__(self) -> str:
        state = "canceled" if self.canceled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.6f} {name} {state}>"


class SimClock(Clock):
    """A :class:`~repro.util.clock.Clock` view of a simulator's virtual time."""

    def __init__(self, simulator: "Simulator"):
        self._simulator = simulator

    def now(self) -> float:
        return self._simulator.now


class Simulator:
    """A deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.0, fired.append, "b")
    >>> _ = sim.schedule(1.0, fired.append, "a")
    >>> sim.run()
    2
    >>> fired
    ['a', 'b']
    """

    #: Queues shorter than this are never compacted — rebuilding a tiny
    #: heap costs more than lazily skipping its tombstones.
    COMPACT_MIN = 64

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._live = 0
        self._running = False
        #: Number of times the heap was rebuilt to shed canceled events.
        self.compactions = 0
        self.clock = SimClock(self)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of live (non-canceled) events still queued.  O(1): a
        counter maintained by schedule/cancel/step, not a queue scan —
        at fleet scale ``repr`` and progress checks must stay free."""
        return self._live

    def schedule(
        self, delay: float, fn: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Event:
        """Schedule ``fn(*args, **kwargs)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, fn, *args, **kwargs)

    def schedule_at(
        self, when: float, fn: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Event:
        """Schedule ``fn`` to run at absolute virtual time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} before current time {self._now}"
            )
        seq = self._seq
        event = Event(when, seq, fn, args, kwargs, sim=self)
        self._seq = seq + 1
        self._live += 1
        heapq.heappush(self._queue, (when, seq, event))
        return event

    def _note_canceled(self) -> None:
        """A queued event was just canceled: keep the live count exact and
        compact the heap once tombstones dominate it.

        Called by :meth:`Event.cancel` only (at most once per event).
        Compaction triggers when more than half of a non-trivial queue is
        canceled — the classic lazy-deletion amortization, which matters
        once fleets park hundreds of thousands of renewal/expiry timers
        that are mostly rescheduled (canceled + re-pushed) before firing.
        """
        self._live -= 1
        dead = len(self._queue) - self._live
        if len(self._queue) >= self.COMPACT_MIN and dead * 2 > len(self._queue):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without canceled events (O(live))."""
        survivors = []
        for entry in self._queue:
            event = entry[2]
            if event.canceled:
                event._queued = False
            else:
                survivors.append(entry)
        self._queue = survivors
        heapq.heapify(self._queue)
        self.compactions += 1

    def step(self) -> bool:
        """Run the next pending event.  Returns False if the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)[2]
            event._queued = False
            if event.canceled:
                continue
            self._live -= 1
            self._now = event.time
            event.fn(*event.args, **event.kwargs)
            return True
        return False

    def run(self, until: float | None = None, max_steps: int | None = None) -> int:
        """Run events until the queue drains (or ``until``/``max_steps``).

        ``until`` is an absolute virtual time; events scheduled at exactly
        ``until`` still run, later ones stay queued.  Time advances to
        ``until`` even if the queue drains early, so periodic processes
        restarted afterwards resume from a consistent instant.  Returns the
        number of events executed.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        steps = 0
        try:
            while self._queue:
                if max_steps is not None and steps >= max_steps:
                    break
                head = self._queue[0][2]
                if head.canceled:
                    heapq.heappop(self._queue)[2]._queued = False
                    continue
                if until is not None and head.time > until:
                    break
                self.step()
                steps += 1
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
        return steps

    def run_for(self, duration: float, max_steps: int | None = None) -> int:
        """Run events for ``duration`` seconds of virtual time."""
        if duration < 0:
            raise SimulationError(f"cannot run for negative duration {duration}")
        return self.run(until=self._now + duration, max_steps=max_steps)

    def __repr__(self) -> str:
        return f"<Simulator t={self._now:.6f} pending={self.pending}>"
