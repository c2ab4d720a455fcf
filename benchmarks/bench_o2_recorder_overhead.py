"""O2 — flight-recorder overhead on the interception hot path.

The flight recorder's contract (the PR-1 no-op pattern, extended): the
hub hangs off a :class:`MetricsRegistry` and only ever sees events that
already passed through an *installed* registry.  Therefore:

- **disabled** (no recorder installed — the default): constructing a
  hub must change nothing on the hot path; dispatch still pays only the
  closed-over-cell ``is None`` test.  Gate: ≤2% over the E2-style
  baseline measured in the same process.
- **enabled** (registry installed, hub attached): interception itself
  emits metrics, not lifecycle events, so attaching a hub may add at
  most the registry's own event-routing slack.  Gate: ≤10% over the
  same workload on a registry *without* a hub.

Both gates compare min-of-trials measurements with the two sides
interleaved trial by trial in one process, plus a small absolute
epsilon, so scheduler noise and drift on a loaded CI box do not produce
false failures.  Run standalone::

    PYTHONPATH=src python -m pytest benchmarks/bench_o2_recorder_overhead.py
"""

import pytest

from conftest import interleaved_min, per_call_seconds
from repro.aop import Aspect, MethodCut, ProseVM, before
from repro.telemetry import FlightRecorderHub, MetricsRegistry, runtime

#: Relative budgets from the issue, plus an absolute floor that keeps
#: sub-microsecond comparisons from flapping on timer resolution.
DISABLED_BUDGET = 1.02
ENABLED_BUDGET = 1.10
EPSILON_SECONDS = 50e-9

TRIALS = 5
CALLS = 50_000


class Target:
    def noop(self) -> None:
        pass


class DoNothing(Aspect):
    @before(MethodCut(type="Target", method="noop"))
    def advice(self, ctx):
        pass


def _per_call(fn):
    """One trial of ``fn``'s per-call cost."""
    return lambda: per_call_seconds(fn, CALLS)


def _idle_hub_per_call(fn):
    """One trial of ``fn``'s per-call cost while a hub exists, attached
    to a registry that is never installed."""

    def measure() -> float:
        registry = MetricsRegistry(flight=FlightRecorderHub())
        cost = per_call_seconds(fn, CALLS)
        # Referenced past the timing, so the hub lives through all of it.
        assert registry.flight is not None
        return cost

    return measure


def _recording_per_call(registry: MetricsRegistry, fn):
    """One trial of ``fn``'s per-call cost while ``registry`` records."""

    def measure() -> float:
        with runtime.recording(registry):
            return per_call_seconds(fn, CALLS)

    return measure


@pytest.fixture
def woven_target(vm):
    vm.load_class(Target)
    vm.insert(DoNothing())
    return Target()


@pytest.fixture(autouse=True)
def no_leftover_recorder():
    runtime.reset()
    yield
    runtime.reset()


@pytest.mark.benchmark(group="o2-recorder")
def test_o2_disabled_hub_is_free(benchmark, woven_target):
    """A constructed-but-unreachable hub must not tax disabled dispatch."""
    # The baseline runs with no hub alive (each trial's hub is freed when
    # its measure returns).  The other side builds a hub attached to a
    # registry that is not installed, so the dispatch closure should
    # still take the no-op branch.
    baseline, with_hub = interleaved_min(
        TRIALS, _per_call(woven_target.noop), _idle_hub_per_call(woven_target.noop)
    )

    benchmark.extra_info["baseline_per_call_us"] = round(baseline * 1e6, 4)
    benchmark.extra_info["with_idle_hub_per_call_us"] = round(with_hub * 1e6, 4)
    ratio = with_hub / baseline
    benchmark.extra_info["disabled_ratio"] = round(ratio, 3)
    assert with_hub <= baseline * DISABLED_BUDGET + EPSILON_SECONDS, (
        f"disabled-path recorder overhead {ratio:.3f}x exceeds "
        f"{DISABLED_BUDGET}x budget"
    )
    benchmark(woven_target.noop)


@pytest.mark.benchmark(group="o2-recorder")
def test_o2_enabled_hub_within_budget(benchmark, woven_target):
    """Recording with a hub attached stays within 10% of recording without."""
    plain_registry = MetricsRegistry()
    hub_registry = MetricsRegistry(flight=FlightRecorderHub())
    without_hub, with_hub = interleaved_min(
        TRIALS,
        _recording_per_call(plain_registry, woven_target.noop),
        _recording_per_call(hub_registry, woven_target.noop),
    )
    with runtime.recording(hub_registry):
        benchmark(woven_target.noop)
    assert hub_registry.counter_total("prose.interceptions") > 0

    benchmark.extra_info["without_hub_per_call_us"] = round(without_hub * 1e6, 4)
    benchmark.extra_info["with_hub_per_call_us"] = round(with_hub * 1e6, 4)
    ratio = with_hub / without_hub
    benchmark.extra_info["enabled_ratio"] = round(ratio, 3)
    assert with_hub <= without_hub * ENABLED_BUDGET + EPSILON_SECONDS, (
        f"enabled recorder overhead {ratio:.3f}x exceeds {ENABLED_BUDGET}x budget"
    )


@pytest.mark.benchmark(group="o2-recorder")
def test_o2_event_routing_cost(benchmark):
    """The hub's true cost center: one ``registry.event()`` with routing.

    Reported (not gated): the per-event cost of the ring append on top of
    the registry's own event bookkeeping."""
    plain = MetricsRegistry()
    hub_registry = MetricsRegistry(flight=FlightRecorderHub())
    cost_plain, cost_hub = interleaved_min(
        TRIALS,
        _per_call(lambda: plain.event("lease.renewed", node="n")),
        _per_call(lambda: hub_registry.event("lease.renewed", node="n")),
    )
    benchmark.extra_info["event_plain_per_call_us"] = round(cost_plain * 1e6, 4)
    benchmark.extra_info["event_with_hub_per_call_us"] = round(cost_hub * 1e6, 4)
    benchmark.extra_info["event_routing_ratio"] = round(cost_hub / cost_plain, 3)
    benchmark(lambda: hub_registry.event("lease.renewed", node="n"))


def test_o2_disabled_hub_records_nothing(vm):
    """Behavioral half of the gate: with the registry uninstalled, no
    event reaches the hub — its rings stay empty no matter how much the
    instrumented application runs."""
    vm.load_class(Target)
    vm.insert(DoNothing())
    target = Target()
    hub = FlightRecorderHub()
    MetricsRegistry(flight=hub)  # attached, never installed
    for _ in range(100):
        target.noop()
    assert hub.nodes() == []

    # Installed, the same workload routes weave/lifecycle events only —
    # per-call interception still records nothing on the rings.
    registry = MetricsRegistry(flight=hub)
    with runtime.recording(registry):
        for _ in range(100):
            target.noop()
        registry.event("lease.granted", table="robot.extensions")
    assert hub.nodes() == ["robot"]
    assert hub.recorder("robot").recorded == 1
