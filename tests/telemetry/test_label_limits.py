"""Label keys: one series per distinct label set, one interned key
object per label set."""

from repro.telemetry.registry import MetricsRegistry


class TestLabelCardinalityCap:
    """Label values are never capped: each distinct value keeps its own
    series."""

    def test_no_limits_is_byte_identical_behavior(self):
        registry = MetricsRegistry()
        for i in range(100):
            registry.count("m", node=f"n{i}")
        assert len(registry._counters) == 100
        assert registry.counter_value("m", node="n42") == 1


class TestLabelInterning:
    def test_label_keys_are_shared_across_metric_names(self):
        registry = MetricsRegistry()
        a = registry.counter("m.one", node="x", table="t")
        b = registry.counter("m.two", node="x", table="t")
        assert a.labels is b.labels
