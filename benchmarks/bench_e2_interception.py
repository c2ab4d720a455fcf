"""E2 — per-call costs: plain call, loaded unadvised call, full interception.

Paper (§4.6): "all methods not affected by interceptions are not slowed
down.  For those methods where interceptions are performed, an overhead
of roughly 900ns can be expected.  For comparison, a void non-intercepted
interface call costs 700ns on a Pentium 2, 500 MHz CPU."

The absolute nanoseconds are 2003-era Java; the *shape* to reproduce:

- a loaded but unadvised method costs what a plain call costs, because
  it runs its own code;
- a do-nothing interception costs the same order of magnitude as the
  plain call itself (paper ratio ≈ 900ns added / 700ns base ≈ 1.3x).

``benchmark.extra_info`` on the interception benchmark records the
measured added-cost-to-base-call ratio next to the paper's.
"""

import time

import pytest

from repro.aop import Aspect, MethodCut, ProseVM, before


class Target:
    """The paper's 'void interface call': an empty method."""

    def noop(self) -> None:
        pass


class DoNothing(Aspect):
    """The paper's do-nothing extension trapping method entries."""

    @before(MethodCut(type="Target", method="noop"))
    def advice(self, ctx):
        pass


def _per_call_seconds(fn, calls: int = 200_000) -> float:
    fn()  # warm
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) / calls


@pytest.mark.benchmark(group="e2-per-call")
def test_e2_plain_call(benchmark):
    """Non-intercepted, non-instrumented method call."""
    target = Target()
    benchmark(target.noop)


@pytest.mark.benchmark(group="e2-per-call")
def test_e2_hook_fast_path(benchmark, vm):
    """Loaded but unadvised: the method runs its own code, nothing in front."""
    vm.load_class(Target)
    target = Target()
    benchmark(target.noop)


@pytest.mark.benchmark(group="e2-per-call")
def test_e2_do_nothing_interception(benchmark, vm):
    """A do-nothing before-advice: the full interception path."""
    plain = _per_call_seconds(Target().noop)

    vm.load_class(Target)
    vm.insert(DoNothing())
    target = Target()
    benchmark(target.noop)

    intercepted = _per_call_seconds(target.noop)
    added = intercepted - plain
    benchmark.extra_info["plain_ns"] = round(plain * 1e9, 1)
    benchmark.extra_info["intercepted_ns"] = round(intercepted * 1e9, 1)
    benchmark.extra_info["added_ns"] = round(added * 1e9, 1)
    benchmark.extra_info["added_over_base_ratio"] = round(added / plain, 2)
    benchmark.extra_info["paper_added_over_base_ratio"] = round(900 / 700, 2)


@pytest.mark.benchmark(group="e2-unaffected")
def test_e2_other_methods_not_slowed(benchmark, vm):
    """Advice on one method leaves sibling methods running their own code."""

    class TwoMethods:
        def advised(self) -> None:
            pass

        def unadvised(self) -> None:
            pass

    class OnAdvised(Aspect):
        @before(MethodCut(type="TwoMethods", method="advised"))
        def advice(self, ctx):
            pass

    vm.load_class(TwoMethods)
    vm.insert(OnAdvised())
    target = TwoMethods()
    benchmark(target.unadvised)


@pytest.mark.benchmark(group="e2-advice-chain")
@pytest.mark.parametrize("advice_count", [1, 4, 16])
def test_e2_advice_chain_scaling(benchmark, vm, advice_count):
    """Interception cost grows linearly with the advice chain length."""
    vm.load_class(Target)
    for _ in range(advice_count):
        vm.insert(DoNothing())
    target = Target()
    benchmark(target.noop)
