"""Fixed-cost sliding-window accumulators.

Burn-rate math needs "events in the last W seconds", but storing events
would make evaluation O(events) — unacceptable when a fleet pushes
millions of samples through a window.  Both accumulators here slice the
window into a ring of time buckets addressed by an *absolute* slice
index (``floor(now / width)``): adding a sample zeroes any slices the
clock has skipped past, updates the slot for "now", and maintains
running totals, so both ``add`` and ``totals`` are O(slices) worst case
and O(1) amortized — independent of event volume.

Timestamps come from the caller, never from a wall clock, so the same
code serves wall-clock runs and the simulator's virtual time (where a
"3-day" window may be 30 virtual seconds).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable

from repro.telemetry.metrics import bucket_quantile

#: Default number of slices per window: fine enough that the stale tail
#: (one slice) is <9% of the window, coarse enough to stay cheap.
DEFAULT_SLICES = 12


class _SlidingRing:
    """Shared cursor logic: map ``now`` to a ring slot, expiring old slices."""

    __slots__ = ("duration", "slices", "width", "_cursor")

    def __init__(self, duration: float, slices: int = DEFAULT_SLICES):
        if duration <= 0:
            raise ValueError(f"window duration must be positive, got {duration}")
        if slices < 1:
            raise ValueError(f"window needs at least one slice, got {slices}")
        self.duration = float(duration)
        self.slices = int(slices)
        self.width = self.duration / self.slices
        #: Absolute slice index of the newest slot; None until first use.
        self._cursor: int | None = None

    def _slot(self, now: float) -> int:
        """The ring slot for ``now``, after expiring skipped slices.

        Subclasses implement ``_clear_slot``; a clock that jumps far
        ahead clears every slot in one pass (never more than
        ``slices`` clears per call, however long the gap).
        """
        index = int(now // self.width)
        cursor = self._cursor
        if cursor is None:
            self._cursor = index
            return index % self.slices
        if index <= cursor:
            # Same slice, or time ran backwards (a replayed sample):
            # fold into the newest slot rather than corrupting history.
            return cursor % self.slices
        steps = index - cursor
        if steps >= self.slices:
            self._clear_all()
        else:
            for stale in range(cursor + 1, index + 1):
                self._clear_slot(stale % self.slices)
        self._cursor = index
        return index % self.slices

    def _clear_slot(self, slot: int) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _clear_all(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class WindowedCounts(_SlidingRing):
    """Good/bad event totals over a sliding window.

    One instance backs one (SLO, window) pair: ``add(now, good, bad)``
    on every sample, ``bad_fraction(now)`` when the burn evaluator runs.
    """

    __slots__ = ("_good", "_bad", "good_total", "bad_total")

    def __init__(self, duration: float, slices: int = DEFAULT_SLICES):
        super().__init__(duration, slices)
        self._good = [0.0] * self.slices
        self._bad = [0.0] * self.slices
        self.good_total = 0.0
        self.bad_total = 0.0

    def _clear_slot(self, slot: int) -> None:
        self.good_total -= self._good[slot]
        self.bad_total -= self._bad[slot]
        self._good[slot] = 0.0
        self._bad[slot] = 0.0

    def _clear_all(self) -> None:
        self._good = [0.0] * self.slices
        self._bad = [0.0] * self.slices
        self.good_total = 0.0
        self.bad_total = 0.0

    def add(self, now: float, good: float = 0.0, bad: float = 0.0) -> None:
        """Fold ``good``/``bad`` event counts into the slice for ``now``."""
        slot = self._slot(now)
        if good:
            self._good[slot] += good
            self.good_total += good
        if bad:
            self._bad[slot] += bad
            self.bad_total += bad

    def totals(self, now: float) -> tuple[float, float]:
        """(good, bad) totals across the window as of ``now``."""
        self._slot(now)
        # Running sums can drift a few ULPs below zero after many
        # clear/add cycles; clamp so callers never see -0.0000001 events.
        return (max(self.good_total, 0.0), max(self.bad_total, 0.0))

    def samples(self, now: float) -> float:
        """Total events (good + bad) in the window as of ``now``."""
        good, bad = self.totals(now)
        return good + bad

    def bad_fraction(self, now: float) -> float:
        """Bad events / all events in the window (0.0 when empty)."""
        good, bad = self.totals(now)
        total = good + bad
        return bad / total if total else 0.0


class WindowedBuckets(_SlidingRing):
    """A sliding-window histogram sketch over fixed bucket bounds.

    Mirrors :class:`~repro.telemetry.metrics.Histogram` — same bounds,
    same bucket-resolution :meth:`quantile` semantics — but per time
    slice, so ``p99 over the last window`` is exact to bucket resolution
    without retaining a single raw observation.
    """

    __slots__ = ("bounds", "_counts", "count_total", "_totals", "sum_total")

    def __init__(
        self,
        bounds: Iterable[float],
        duration: float,
        slices: int = DEFAULT_SLICES,
    ):
        super().__init__(duration, slices)
        self.bounds = tuple(sorted(float(b) for b in bounds))
        if not self.bounds:
            raise ValueError("windowed buckets need at least one bound")
        width = len(self.bounds) + 1  # + overflow bucket
        self._counts = [[0] * width for _ in range(self.slices)]
        self._totals = [0] * width
        self.count_total = 0
        self.sum_total = 0.0

    def _clear_slot(self, slot: int) -> None:
        row = self._counts[slot]
        totals = self._totals
        for bucket, n in enumerate(row):
            if n:
                totals[bucket] -= n
                self.count_total -= n
                row[bucket] = 0
        # The windowed sum cannot be expired per-slice exactly (we do not
        # store per-slice sums); approximate by scaling out the expired
        # share so the windowed mean stays usable.
        if self.count_total <= 0:
            self.sum_total = 0.0

    def _clear_all(self) -> None:
        width = len(self.bounds) + 1
        self._counts = [[0] * width for _ in range(self.slices)]
        self._totals = [0] * width
        self.count_total = 0
        self.sum_total = 0.0

    def observe(self, now: float, value: float) -> None:
        """Record one observation into the slice for ``now``."""
        slot = self._slot(now)
        bucket = bisect_left(self.bounds, value)
        self._counts[slot][bucket] += 1
        self._totals[bucket] += 1
        self.count_total += 1
        self.sum_total += value

    def count(self, now: float) -> int:
        """Observations currently inside the window."""
        self._slot(now)
        return max(self.count_total, 0)

    def quantile(self, now: float, q: float) -> float:
        """Bucket-resolution ``q``-quantile over the window (0.0 if empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        total = self.count(now)
        if total == 0:
            return 0.0
        return bucket_quantile(self.bounds, self._totals, total, q, self.bounds[-1])

    def over_threshold_fraction(self, now: float, threshold: float) -> float:
        """Fraction of windowed observations whose bucket bound exceeds
        ``threshold`` — the "slow request ratio" a latency SLO burns on."""
        total = self.count(now)
        if total == 0:
            return 0.0
        cut = bisect_left(self.bounds, threshold)
        # Buckets whose upper bound is <= threshold count as fast.
        slow = sum(self._totals[cut + 1 :]) if cut < len(self.bounds) else 0
        if cut < len(self.bounds) and self.bounds[cut] > threshold:
            slow += self._totals[cut]
        return slow / total
