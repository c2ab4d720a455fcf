"""E1 — whole-application overhead of an activated PROSE VM.

Paper (§4.6): "When no extensions are added, an overhead of about 7%
(measured using a SPECjvm benchmark) could be observed."

We run the SPECjvm-like workload suite twice: with its classes pristine,
and with them loaded into a ProseVM (every method copied and given a
hook table, *no* advice anywhere).  An unadvised method runs its own
code, and a class gets its ``__setattr__`` stub only while field advice
is active.  The expected shape: no overhead beyond noise, below the
paper's 7%, which PROSE pays because its JIT hooks every join point.

Compare the two benchmark groups, or see ``overhead_percent`` in the
instrumented benchmark's extra_info.
"""

import time

import pytest

from repro.workloads.kernels import workload_classes
from repro.workloads.suite import WorkloadSuite

SUITE_ARGS = dict(compress_size=256, db_rows=100, rays=25)


def make_suite() -> WorkloadSuite:
    return WorkloadSuite(**SUITE_ARGS)


def _measure(iterations: int = 20) -> float:
    suite = make_suite()
    suite.run(3)  # warm up
    best = float("inf")
    for _ in range(3):  # best-of-3 against scheduling noise
        start = time.perf_counter()
        suite.run(iterations)
        best = min(best, (time.perf_counter() - start) / iterations)
    return best


@pytest.mark.benchmark(group="e1-baseline-overhead")
def test_e1_plain_vm(benchmark):
    """Suite iteration on the pristine classes."""
    suite = make_suite()
    benchmark(suite.run_once)


@pytest.mark.benchmark(group="e1-baseline-overhead")
def test_e1_prose_activated_no_extensions(benchmark, vm):
    """Suite iteration with every class loaded but no advice active."""
    plain_seconds = _measure()
    for cls in workload_classes():
        vm.load_class(cls)
    suite = make_suite()
    benchmark(suite.run_once)
    loaded_seconds = _measure()
    overhead = (loaded_seconds / plain_seconds - 1.0) * 100.0
    benchmark.extra_info["plain_seconds_per_iter"] = plain_seconds
    benchmark.extra_info["loaded_seconds_per_iter"] = loaded_seconds
    benchmark.extra_info["overhead_percent"] = round(overhead, 1)
    benchmark.extra_info["paper_overhead_percent"] = 7.0


@pytest.mark.benchmark(group="e1-per-kernel")
@pytest.mark.parametrize("kernel", ["compress", "db", "ray"])
def test_e1_per_kernel_overhead(benchmark, vm, kernel):
    """Per-kernel view: which workload shapes suffer most from hooks."""
    for cls in workload_classes():
        vm.load_class(cls)
    suite = make_suite()
    target = {"compress": suite.compress, "db": suite.db, "ray": suite.ray}[kernel]
    benchmark(target.run_once)
