"""The join-point profiler: per-(joinpoint, extension) latency + weave cost."""

import pytest

from repro.aop import ProseVM
from repro.telemetry import JoinPointProfiler, MetricsRegistry, runtime
from repro.telemetry.obs import render_profile
from repro.telemetry.profiler import ProfileEntry

from tests.support import Engine, TraceAspect, fresh_class
from repro.faults import FaultyExtension


@pytest.fixture
def profiled_vm():
    vm = ProseVM(name="robot")
    vm.profiler = JoinPointProfiler()
    return vm


def run_workload(vm, aspect, calls: int = 5):
    cls = fresh_class(Engine)
    vm.load_class(cls)
    vm.insert(aspect)
    engine = cls()
    for _ in range(calls):
        engine.throttle(1)
    return engine


class TestEntries:
    def test_counts_per_joinpoint_and_extension(self, profiled_vm):
        run_workload(profiled_vm, TraceAspect(method_pattern="throttle"), calls=5)
        entry = profiled_vm.profiler.entry("Engine.throttle", "TraceAspect")
        assert entry is not None
        assert entry.count == 5
        assert entry.errors == 0
        assert entry.total > 0
        assert entry.minimum <= entry.mean <= entry.maximum

    def test_entries_sorted_hottest_first(self, profiled_vm):
        run_workload(profiled_vm, TraceAspect(), calls=10)
        entries = profiled_vm.profiler.entries()
        totals = [entry.total for entry in entries]
        assert totals == sorted(totals, reverse=True)

    def test_unknown_entry_is_none(self, profiled_vm):
        assert profiled_vm.profiler.entry("Engine.throttle", "Nope") is None

    def test_contained_failures_count_as_errors(self, profiled_vm):
        # Containment wraps *outside* the profiler, so the profiler still
        # times the advice that raised while the app never sees it.
        from repro.aop.hooks import AdviceContainment

        class Suppressing(AdviceContainment):
            def wrap(self, advice, callback):
                def guarded(ctx):
                    try:
                        return callback(ctx)
                    except RuntimeError:
                        return None

                return guarded

        saboteur = FaultyExtension(every=1, method_pattern="throttle")
        cls = fresh_class(Engine)
        profiled_vm.load_class(cls)
        profiled_vm.insert(saboteur, containment=Suppressing())
        engine = cls()
        engine.throttle(1)  # contained, must not raise
        entry = profiled_vm.profiler.entry("Engine.throttle", "FaultyExtension")
        assert entry is not None
        assert entry.errors == 1

    def test_exemplar_trace_captured_under_ambient_context(self, sim):
        vm = ProseVM(name="robot")
        vm.profiler = JoinPointProfiler()
        registry = MetricsRegistry(clock=sim.clock)
        runtime.install(registry)
        cls = fresh_class(Engine)
        vm.load_class(cls)
        vm.insert(TraceAspect(method_pattern="throttle"))
        engine = cls()
        with registry.span("workload") as span:
            engine.throttle(1)
        entry = vm.profiler.entry("Engine.throttle", "TraceAspect")
        assert entry.exemplar_trace == span.trace_id
        assert entry.exemplar_span == span.span_id

    def test_record_has_quantiles_and_exemplar(self):
        entry = ProfileEntry("Engine.throttle", "TraceAspect")
        entry.observe(0.002, failed=False)
        record = entry.to_record()
        assert record["type"] == "profile"
        assert record["count"] == 1
        assert record["p50_seconds"] is not None
        assert record["max_seconds"] == 0.002


class TestWeaveCost:
    def test_vm_reports_insert_and_withdraw(self, profiled_vm):
        aspect = TraceAspect()
        run_workload(profiled_vm, aspect, calls=1)
        profiled_vm.withdraw(aspect)
        costs = {
            (cost.vm, cost.operation): cost
            for cost in profiled_vm.profiler.weave_costs()
        }
        assert costs[("robot", "insert")].count == 1
        assert costs[("robot", "withdraw")].count == 1
        assert costs[("robot", "insert")].total > 0

    def test_vm_stats_accumulate_weave_seconds(self, profiled_vm):
        run_workload(profiled_vm, TraceAspect(), calls=1)
        assert profiled_vm.stats.weave_seconds > 0
        assert profiled_vm.stats.as_dict()["weave_seconds"] > 0


class TestReport:
    def test_report_lists_entries_and_costs(self, profiled_vm):
        run_workload(profiled_vm, TraceAspect(method_pattern="throttle"), calls=3)
        report = render_profile(profiled_vm.profiler.to_records())
        assert "Engine.throttle" in report
        assert "TraceAspect" in report
        assert "weave cost" in report

    def test_empty_report(self):
        report = render_profile(JoinPointProfiler().to_records())
        assert "no advice dispatches" in report

    def test_to_records_round_trip_shape(self, profiled_vm):
        run_workload(profiled_vm, TraceAspect(), calls=2)
        records = profiled_vm.profiler.to_records()
        assert {record["type"] for record in records} == {"profile", "weave_cost"}
