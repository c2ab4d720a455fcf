"""Streaming rollups: pattern routing and the three kinds."""

from __future__ import annotations

import pytest

from repro.telemetry.health import RollupRule
from repro.telemetry.health.rollups import RollupBook, series_label
from repro.telemetry.metrics import label_key


class TestRollupRule:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            RollupRule("r", "midas.*", "histogram", window=10.0)

    def test_ratio_requires_bad_when(self):
        with pytest.raises(ValueError):
            RollupRule("r", "midas.*", "ratio", window=10.0)

    def test_ratio_projects_family_onto_group_by(self):
        rule = RollupRule(
            "shed",
            "pipeline.*",
            "ratio",
            window=10.0,
            bad_when=lambda metric, labels: metric.endswith(".shed"),
            group_by=("base",),
        )
        metric, kept = rule.project(
            "pipeline.shed", label_key({"base": "b1", "node": "n9"})
        )
        # Good and bad members of the family meet in ONE series: the
        # metric name folds into the pattern and only group_by survives.
        assert metric == "pipeline.*"
        assert kept == (("base", "b1"),)


class TestRollupBook:
    def test_rate_is_events_per_second(self):
        book = RollupBook([RollupRule("rate", "midas.*", "rate", window=10.0)])
        for t in range(5):
            book.on_count(float(t), "midas.renewals", (), 2.0)
        assert book.value("rate", "midas.renewals", 4.0) == pytest.approx(1.0)

    def test_ratio_folds_good_and_bad_together(self):
        rule = RollupRule(
            "shed-ratio",
            "pipeline.*",
            "ratio",
            window=10.0,
            bad_when=lambda metric, labels: metric.endswith(".shed"),
        )
        book = RollupBook([rule])
        book.on_count(1.0, "pipeline.completed", (), 9.0)
        book.on_count(1.0, "pipeline.shed", (), 1.0)
        series = book.series("shed-ratio")
        assert len(series) == 1
        assert series[0].value(1.0) == pytest.approx(0.1)

    def test_quantile_over_histogram_stream(self):
        book = RollupBook(
            [RollupRule("p99", "rpc.latency", "quantile", window=10.0, q=0.99)]
        )
        bounds = (0.01, 0.1, 1.0)
        for _ in range(90):
            book.on_observe(1.0, "rpc.latency", (), 0.005, bounds)
        for _ in range(10):
            book.on_observe(1.0, "rpc.latency", (), 0.5, bounds)
        assert book.value("p99", "rpc.latency", 1.0) == 1.0

    def test_counts_ignore_quantile_rules_and_vice_versa(self):
        book = RollupBook(
            [
                RollupRule("rate", "m", "rate", window=10.0),
                RollupRule("q", "m", "quantile", window=10.0),
            ]
        )
        book.on_count(1.0, "m", (), 1.0)
        book.on_observe(1.0, "m", (), 0.5, (0.1, 1.0))
        assert len(book.series("rate")) == 1
        assert len(book.series("q")) == 1

    def test_unmatched_metric_creates_nothing(self):
        book = RollupBook([RollupRule("rate", "midas.*", "rate", window=10.0)])
        book.on_count(1.0, "fleet.sweep", (), 1.0)
        assert book.series() == []
        assert book.value("rate", "fleet.sweep", 1.0) is None

    def test_add_rule_reroutes_memoized_metrics(self):
        book = RollupBook()
        book.on_count(1.0, "midas.renewals", (), 1.0)  # memoizes "no rules"
        book.add_rule(RollupRule("rate", "midas.*", "rate", window=10.0))
        book.on_count(2.0, "midas.renewals", (), 1.0)
        assert len(book.series("rate")) == 1

    def test_to_records_are_json_shaped(self):
        book = RollupBook([RollupRule("rate", "m", "rate", window=10.0)])
        book.on_count(1.0, "m", label_key({"node": "n1"}), 3.0)
        (record,) = book.to_records(1.0)
        assert record["type"] == "rollup"
        assert record["kind"] == "rate"
        assert record["labels"] == {"node": "n1"}
        assert record["value"] == pytest.approx(0.3)

    def test_series_label_is_human_form(self):
        book = RollupBook([RollupRule("rate", "m", "rate", window=10.0)])
        book.on_count(1.0, "m", label_key({"node": "n1"}), 1.0)
        (series,) = book.series()
        assert series_label(series) == "m{node=n1}"
