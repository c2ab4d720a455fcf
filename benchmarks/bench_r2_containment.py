"""R2 — containment overhead: supervision is nearly free when nothing fails.

The extension supervisor wraps every woven advice in an error barrier.
On the no-fault fast path (no step or time budget configured) that
barrier is one closure call and a try/except — it must add less than
10% to the full interception cost measured in E2, or containment would
tax every well-behaved extension on the platform.

``extra_info`` records the supervised/unsupervised per-call ratio and
the quarantine short-circuit cost (a quarantined advice is skipped, so
it should be *cheaper* than running the advice).
"""

import pytest

from conftest import interleaved_min, per_call_seconds
from repro.aop import Aspect, MethodCut, ProseVM, before
from repro.sim.kernel import Simulator
from repro.supervision import ExtensionSupervisor, SupervisionPolicy

from tests.support import fresh_class

#: The acceptance bar: containment adds <10% to interception.
OVERHEAD_BUDGET = 0.10

#: Calls per timed block, and trials of each reported cost.
CALLS = 50_000
TRIALS = 5


class Target:
    """Same shape as E2: an empty intercepted method."""

    def noop(self) -> None:
        pass


class DoNothing(Aspect):
    @before(MethodCut(type="Target", method="noop"))
    def advice(self, ctx):
        pass


def _paired_overhead(base_fn, supervised_fn, rounds: int = 9) -> float:
    """Median of interleaved base/supervised ratios.

    Measuring each side in one long block is dominated by CPU frequency
    drift between the blocks; pairing temporally adjacent measurements
    and taking the median ratio isolates the wrapper's true cost.
    """
    ratios = sorted(
        per_call_seconds(supervised_fn, CALLS) / per_call_seconds(base_fn, CALLS)
        for _ in range(rounds)
    )
    return ratios[rounds // 2] - 1.0


def _woven_target(supervisor: ExtensionSupervisor | None = None):
    vm = ProseVM()
    cls = fresh_class(Target)
    vm.load_class(cls)
    aspect = DoNothing()
    containment = supervisor.guard(aspect) if supervisor is not None else None
    vm.insert(aspect, containment=containment)
    return cls(), aspect


@pytest.mark.benchmark(group="r2-containment")
def test_r2_unsupervised_interception(benchmark):
    """Baseline: the E2 interception path with no supervisor."""
    target, _ = _woven_target()
    benchmark(target.noop)


@pytest.mark.benchmark(group="r2-containment")
def test_r2_supervised_interception(benchmark):
    """The same interception inside the no-fault containment barrier."""
    supervisor = ExtensionSupervisor(Simulator(), SupervisionPolicy())
    target, _ = _woven_target(supervisor)
    benchmark(target.noop)


@pytest.mark.benchmark(group="r2-containment")
def test_r2_containment_overhead_under_budget(benchmark):
    """Hard gate: the barrier adds <10% to the interception per-call cost."""
    baseline_target, _ = _woven_target()
    supervisor = ExtensionSupervisor(Simulator(), SupervisionPolicy())
    supervised_target, aspect = _woven_target(supervisor)

    baseline, supervised = interleaved_min(
        TRIALS,
        lambda: per_call_seconds(baseline_target.noop, CALLS),
        lambda: per_call_seconds(supervised_target.noop, CALLS),
    )
    overhead = _paired_overhead(baseline_target.noop, supervised_target.noop)

    # Quarantine short-circuit: once struck out, the advice is skipped
    # entirely — the remaining cost is dispatch plus the guard's check.
    supervisor.health_of(aspect).quarantined = True
    (quarantined,) = interleaved_min(
        TRIALS, lambda: per_call_seconds(supervised_target.noop, CALLS)
    )

    benchmark.extra_info["baseline_ns"] = round(baseline * 1e9, 1)
    benchmark.extra_info["supervised_ns"] = round(supervised * 1e9, 1)
    benchmark.extra_info["overhead_ratio"] = round(overhead, 4)
    benchmark.extra_info["budget_ratio"] = OVERHEAD_BUDGET
    benchmark.extra_info["quarantined_ns"] = round(quarantined * 1e9, 1)
    benchmark(supervised_target.noop)

    assert overhead < OVERHEAD_BUDGET, (
        f"no-fault containment adds {overhead:.1%} to interception "
        f"(budget {OVERHEAD_BUDGET:.0%}): "
        f"{baseline * 1e9:.0f}ns -> {supervised * 1e9:.0f}ns"
    )
