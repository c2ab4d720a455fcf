"""The join-point profiler: where does woven time actually go?

PR 1's ``prose.dispatch`` histogram answers "how expensive is dispatch at
this join point" — but a join point can host advice from several
extensions, and a slow dispatch is useless to debug without knowing
*which* extension burned the time and *which request* it burned it on.
The :class:`JoinPointProfiler` fills both gaps:

- per-``(joinpoint, extension)`` latency accounting (count, total,
  min/max, full histogram) measured around each advice callback;
- an *exemplar* trace id per entry — the trace that was ambient during
  the slowest observed call — linking the worst dispatch straight to its
  causal timeline;
- aggregate weave-cost accounting fed by the VM (time spent weaving and
  unweaving, per operation), so (de)activation cost is visible next to
  per-call cost — the trade-off between the paper's hook-cost
  experiments (E1/E2) and its weave-cost experiment (F1).

Attach one to a VM (``vm.profiler = profiler``, or platform-wide with
``platform.enable_profiler()``) *before* aspects are inserted: the
profiler wraps advice callbacks at weave time, between the sandbox and
the containment barrier, so containment still sees (and may suppress)
advice failures while the profiler still observes their duration.

``python -m repro obs --view profile`` runs the demo scenario under a
profiler and renders its ``profile`` and ``weave_cost`` records.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable

from repro.telemetry import runtime
from repro.telemetry.metrics import DEFAULT_BUCKETS, Histogram, label_key


class ProfileEntry:
    """Latency accounting for one (joinpoint, extension) pair."""

    __slots__ = (
        "joinpoint",
        "extension",
        "count",
        "total",
        "minimum",
        "maximum",
        "errors",
        "histogram",
        "exemplar_trace",
        "exemplar_span",
    )

    def __init__(self, joinpoint: str, extension: str):
        self.joinpoint = joinpoint
        self.extension = extension
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = 0.0
        #: Calls that ended in an exception escaping the advice.
        self.errors = 0
        self.histogram = Histogram(
            "profile.advice_seconds",
            label_key({"joinpoint": joinpoint, "extension": extension}),
            DEFAULT_BUCKETS,
        )
        #: Trace/span ambient during the slowest observed call, if any —
        #: the handle that links this entry back to a causal timeline.
        self.exemplar_trace: str | None = None
        self.exemplar_span: str | None = None

    def observe(self, seconds: float, failed: bool) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.minimum:
            self.minimum = seconds
        if failed:
            self.errors += 1
        self.histogram.observe(seconds)
        if seconds >= self.maximum:
            self.maximum = seconds
            context = runtime.current_context()
            if context is not None:
                self.exemplar_trace = context.trace_id
                self.exemplar_span = context.span_id

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_record(self) -> dict[str, Any]:
        """Exportable (JSON) form of this entry."""
        return {
            "type": "profile",
            "joinpoint": self.joinpoint,
            "extension": self.extension,
            "count": self.count,
            "errors": self.errors,
            "total_seconds": self.total,
            "mean_seconds": self.mean,
            "min_seconds": self.minimum if self.count else None,
            "max_seconds": self.maximum if self.count else None,
            "p50_seconds": self.histogram.quantile(0.5),
            "p99_seconds": self.histogram.quantile(0.99),
            "exemplar_trace": self.exemplar_trace,
            "exemplar_span": self.exemplar_span,
        }

    def __repr__(self) -> str:
        return (
            f"<ProfileEntry {self.joinpoint} [{self.extension}] "
            f"n={self.count} total={self.total * 1e3:.3f}ms>"
        )


class WeaveCost:
    """Aggregate (de)activation cost for one VM and operation."""

    __slots__ = ("vm", "operation", "count", "total")

    def __init__(self, vm: str, operation: str):
        self.vm = vm
        self.operation = operation
        self.count = 0
        self.total = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_record(self) -> dict[str, Any]:
        return {
            "type": "weave_cost",
            "vm": self.vm,
            "operation": self.operation,
            "count": self.count,
            "total_seconds": self.total,
            "mean_seconds": self.mean,
        }


def _advice_extension(advice: Any) -> str:
    """The extension label for an advice: its aspect type, else its name.

    The aspect *type* (``CallLogging``) is the extension identity the
    operator knows; ``aspect.name`` carries a fresh-id suffix and the
    advice name is just the callback method.
    """
    aspect = getattr(advice, "aspect", None)
    if aspect is not None:
        return type(aspect).__name__
    name = getattr(advice, "name", None)
    return str(name) if name else "<anonymous>"


def _joinpoint_label(ctx: Any) -> str:
    jp = ctx.joinpoint
    return f"{jp.cls.__name__}.{jp.member}"


class JoinPointProfiler:
    """Per-(joinpoint, extension) advice latency + VM weave-cost profiler."""

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str], ProfileEntry] = {}
        self._weaves: dict[tuple[str, str], WeaveCost] = {}

    # -- weaving-side hooks ------------------------------------------------------

    def wrap(self, advice: Any, callback: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap one advice callback with latency measurement.

        Called by :meth:`ProseVM.insert` at weave time.  The extension
        label is resolved once here; the join-point label per call (one
        advice can be woven at many join points).
        """
        extension = _advice_extension(advice)
        entries = self._entries

        def profiled(ctx: Any) -> Any:
            start = perf_counter()
            failed = True
            try:
                result = callback(ctx)
                failed = False
                return result
            finally:
                seconds = perf_counter() - start
                key = (_joinpoint_label(ctx), extension)
                entry = entries.get(key)
                if entry is None:
                    entry = entries[key] = ProfileEntry(*key)
                entry.observe(seconds, failed)

        profiled.__prose_profiled__ = callback  # type: ignore[attr-defined]
        return profiled

    def record_weave(self, vm: str, operation: str, seconds: float) -> None:
        """Account one weave/unweave operation's cost (called by the VM)."""
        key = (vm, operation)
        cost = self._weaves.get(key)
        if cost is None:
            cost = self._weaves[key] = WeaveCost(vm, operation)
        cost.count += 1
        cost.total += seconds

    # -- results -----------------------------------------------------------------

    def entries(self) -> list[ProfileEntry]:
        """All entries, hottest (largest total time) first."""
        return sorted(
            self._entries.values(), key=lambda e: e.total, reverse=True
        )

    def entry(self, joinpoint: str, extension: str) -> ProfileEntry | None:
        """The entry for one (joinpoint, extension) pair, if it ever ran."""
        return self._entries.get((joinpoint, extension))

    def weave_costs(self) -> list[WeaveCost]:
        """Weave-cost aggregates, sorted by (vm, operation)."""
        return [self._weaves[key] for key in sorted(self._weaves)]

    def to_records(self) -> list[dict[str, Any]]:
        """Exportable (JSONL-ready) form of all entries and weave costs."""
        records: list[dict[str, Any]] = [e.to_record() for e in self.entries()]
        records.extend(c.to_record() for c in self.weave_costs())
        return records

    def __repr__(self) -> str:
        return (
            f"<JoinPointProfiler entries={len(self._entries)} "
            f"weaves={len(self._weaves)}>"
        )
