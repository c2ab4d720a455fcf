"""Prometheus text exposition and the dropped-record surfacing in
summaries: the export side of the health-plane PR."""

from __future__ import annotations

from repro.telemetry import MetricsRegistry
from repro.telemetry.export import json_summary, prom_text, text_summary


class TestPromText:
    def test_counter_family(self):
        registry = MetricsRegistry()
        registry.count("midas.renewals", node="n1")
        registry.count("midas.renewals", 2.0, node="n2")
        text = prom_text(registry.to_records())
        assert "# TYPE midas_renewals_total counter" in text
        assert 'midas_renewals_total{node="n1"} 1.0' in text
        assert 'midas_renewals_total{node="n2"} 2.0' in text

    def test_gauge(self):
        registry = MetricsRegistry()
        registry.gauge("queue.depth", 7.0, station="b1")
        text = prom_text(registry.to_records())
        assert "# TYPE queue_depth gauge" in text
        assert 'queue_depth{station="b1"} 7.0' in text

    def test_histogram_emits_cumulative_buckets(self):
        registry = MetricsRegistry(default_buckets=(0.1, 1.0))
        for value in (0.05, 0.05, 0.5, 5.0):
            registry.observe("rpc.latency", value)
        lines = prom_text(registry.to_records()).splitlines()
        assert "# TYPE rpc_latency histogram" in lines
        assert 'rpc_latency_bucket{le="0.1"} 2' in lines
        assert 'rpc_latency_bucket{le="1.0"} 3' in lines
        assert 'rpc_latency_bucket{le="+Inf"} 4' in lines
        assert any(line.startswith("rpc_latency_sum ") for line in lines)
        assert "rpc_latency_count 4" in lines

    def test_events_and_spans_are_skipped(self):
        registry = MetricsRegistry()
        registry.event("midas.installed", node="n1")
        assert prom_text(registry.to_records()) == ""

    def test_escaping(self):
        registry = MetricsRegistry()
        registry.count("odd.name-x", label='va"lue')
        text = prom_text(registry.to_records())
        assert 'odd_name_x_total{label="va\\"lue"} 1.0' in text


class TestDroppedCountsSurface:
    def _capped_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry(max_events=2)
        for i in range(5):
            registry.event("midas.renewed", node=f"n{i}")
        assert registry.dropped_events == 3
        return registry

    def test_text_summary_warns(self):
        text = text_summary(self._capped_registry().to_records())
        assert "warning: retention cap dropped 3 event(s)" in text

    def test_json_summary_reports_counts(self):
        summary = json_summary(self._capped_registry().to_records())
        assert summary["dropped"] == {"events": 3, "spans": 0}

    def test_quiet_when_nothing_dropped(self):
        registry = MetricsRegistry()
        registry.event("midas.renewed", node="n1")
        assert "warning" not in text_summary(registry.to_records())


class TestCliPromFormat:
    def test_summary_format_prom(self, tmp_path, capsys):
        from repro.telemetry.cli import main
        from repro.telemetry.export import write_jsonl

        registry = MetricsRegistry()
        registry.count("midas.renewals", node="n1")
        path = tmp_path / "export.jsonl"
        write_jsonl(registry, path)
        assert main(["summary", str(path), "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE midas_renewals_total counter" in out
