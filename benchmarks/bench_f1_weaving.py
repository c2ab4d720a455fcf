"""F1 — the run-time adaptation machinery of Fig. 1.

Measures the costs the weaver pays at each stage, versus the number of
potential join points:

- ``load_class`` — copying every method and creating its hook table
  (the paper's JIT-time stub insertion);
- ``insert`` / ``withdraw`` — activating/deactivating an aspect, i.e.
  matching its crosscut against all join points, recompiling dispatch
  chains and swapping each method's dispatcher code in or out.

Shape: all three scale roughly linearly with the join-point count, and
none of them is paid per call afterwards (see E1/E2).

Methods are copied at load, because callers capture method references
and all of them must share the function whose code advice swaps.
``load_class`` compiles nothing.  The first insert on a method code
object compiles its dispatcher, and every later insert only binds that
code to its hook table.  A ``__setattr__`` stub is planted by the first
field advice and removed with the last; the method-only aspects here
never pay for one.
"""

import pytest

from repro.aop import Aspect, MethodCut, ProseVM
from repro.aop.advice import AdviceKind


def make_class(method_count: int) -> type:
    """A fresh class with ``method_count`` distinct methods."""
    namespace = {}
    for index in range(method_count):
        exec(  # noqa: S102 - benchmark scaffolding
            f"def method_{index}(self):\n    return {index}", namespace
        )
    return type(f"Wide{method_count}", (), namespace)


def make_aspect() -> Aspect:
    aspect = Aspect()
    aspect.add_advice(
        AdviceKind.BEFORE, MethodCut(type="Wide*", method="*"), lambda ctx: None
    )
    return aspect


@pytest.mark.benchmark(group="f1-load-class")
@pytest.mark.parametrize("methods", [10, 100, 1000])
def test_f1_load_class(benchmark, methods):
    """Load cost (a copy and a hook table per method) vs. join-point count."""

    def plant():
        vm = ProseVM()
        cls = make_class(methods)
        vm.load_class(cls)
        return vm

    benchmark(plant)


@pytest.mark.benchmark(group="f1-insert")
@pytest.mark.parametrize("methods", [10, 100, 1000])
def test_f1_insert_aspect(benchmark, methods):
    """Weaving cost: matching one aspect against all join points."""
    vm = ProseVM()
    cls = make_class(methods)
    vm.load_class(cls)

    def round_trip():
        aspect = make_aspect()
        vm.insert(aspect)
        vm.withdraw(aspect)

    benchmark(round_trip)


@pytest.mark.benchmark(group="f1-insert-many")
@pytest.mark.parametrize("aspects", [1, 8, 32])
def test_f1_insert_scaling_with_resident_aspects(benchmark, aspects):
    """Insertion cost with other aspects already woven (chain rebuild)."""
    vm = ProseVM()
    cls = make_class(50)
    vm.load_class(cls)
    for _ in range(aspects):
        vm.insert(make_aspect())

    def round_trip():
        aspect = make_aspect()
        vm.insert(aspect)
        vm.withdraw(aspect)

    benchmark(round_trip)


@pytest.mark.benchmark(group="f1-unload")
def test_f1_unload_class(benchmark):
    """Restoring a class to its pristine definition."""

    def cycle():
        vm = ProseVM()
        cls = make_class(100)
        vm.load_class(cls)
        vm.unload_class(cls)

    benchmark(cycle)
