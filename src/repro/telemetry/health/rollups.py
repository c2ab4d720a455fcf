"""Streaming rollups: windowed views registered per metric *pattern*.

A :class:`RollupBook` subscribes to the registry's sample stream (via
:class:`~repro.telemetry.health.plane.HealthPlane`) and maintains one
windowed series per (rule, metric name, label set).  Rules match metric
names with the repo's ``*`` wildcards, so one rule covers a family
(``midas.pipeline.*``).  Three kinds:

- ``rate``  — events/sec over the window (counters);
- ``ratio`` — bad fraction over the window (a counter family split by a
  ``bad_when`` predicate over metric name + labels, e.g.
  ``midas.pipeline.shed`` is bad, ``midas.pipeline.completed`` good;
  good and bad fold into *one* series per ``group_by`` projection);
- ``quantile`` — windowed quantile sketch over histogram buckets.

Cost model: each incoming sample touches the (cached) list of rules
matching its metric name and does an O(1) amortized window update per
matching rule — never a scan of recorded history.  Label keys arrive
*already interned* by the registry, so equal label sets share one key
object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.telemetry.health.windows import (
    DEFAULT_SLICES,
    WindowedBuckets,
    WindowedCounts,
)
from repro.telemetry.metrics import LabelKey, format_labels
from repro.util.patterns import wildcard_match


@dataclass(frozen=True)
class RollupRule:
    """One registered rollup: what to watch and how to fold it."""

    name: str
    pattern: str
    #: "rate" | "ratio" | "quantile"
    kind: str
    window: float
    slices: int = DEFAULT_SLICES
    #: ratio rules: samples whose (metric, labels) match count as *bad*.
    bad_when: Callable[[str, LabelKey], bool] | None = None
    #: ratio rules: label names kept in the series key; all other labels
    #: (and the metric name itself) fold into one series, so the good
    #: and bad sides of a family meet in the same window.
    group_by: tuple[str, ...] = ()
    #: quantile rules: which quantile to report (e.g. 0.99).
    q: float = 0.99

    def project(self, metric: str, labels: LabelKey) -> tuple[str, LabelKey]:
        """The series identity a sample belongs to under this rule."""
        if self.kind != "ratio":
            return (metric, labels)
        kept: LabelKey = tuple(
            (k, v) for (k, v) in labels if k in self.group_by
        )
        return (self.pattern, kept)

    def __post_init__(self) -> None:
        if self.kind not in ("rate", "ratio", "quantile"):
            raise ValueError(f"unknown rollup kind {self.kind!r}")
        if self.kind == "ratio" and self.bad_when is None:
            raise ValueError(f"ratio rollup {self.name!r} needs bad_when")


class RateRollup:
    """Windowed event rate for one metric series."""

    __slots__ = ("rule", "metric", "labels", "window")

    def __init__(self, rule: RollupRule, metric: str, labels: LabelKey):
        self.rule = rule
        self.metric = metric
        self.labels = labels
        self.window = WindowedCounts(rule.window, rule.slices)

    def add(self, now: float, amount: float, bad: bool) -> None:
        self.window.add(now, good=amount)

    def value(self, now: float) -> float:
        """Events per second over the window."""
        return self.window.samples(now) / self.window.duration

    def to_record(self, now: float) -> dict[str, Any]:
        return {
            "type": "rollup",
            "rule": self.rule.name,
            "kind": "rate",
            "metric": self.metric,
            "labels": dict(self.labels),
            "window": self.window.duration,
            "value": self.value(now),
        }


class RatioRollup:
    """Windowed bad-fraction for one metric series family."""

    __slots__ = ("rule", "metric", "labels", "window")

    def __init__(self, rule: RollupRule, metric: str, labels: LabelKey):
        self.rule = rule
        self.metric = metric
        self.labels = labels
        self.window = WindowedCounts(rule.window, rule.slices)

    def add(self, now: float, amount: float, bad: bool) -> None:
        if bad:
            self.window.add(now, bad=amount)
        else:
            self.window.add(now, good=amount)

    def value(self, now: float) -> float:
        return self.window.bad_fraction(now)

    def to_record(self, now: float) -> dict[str, Any]:
        return {
            "type": "rollup",
            "rule": self.rule.name,
            "kind": "ratio",
            "metric": self.metric,
            "labels": dict(self.labels),
            "window": self.window.duration,
            "value": self.value(now),
            "samples": self.window.samples(now),
        }


class QuantileRollup:
    """Windowed quantile sketch for one histogram series."""

    __slots__ = ("rule", "metric", "labels", "window")

    def __init__(
        self,
        rule: RollupRule,
        metric: str,
        labels: LabelKey,
        bounds: tuple[float, ...],
    ):
        self.rule = rule
        self.metric = metric
        self.labels = labels
        self.window = WindowedBuckets(bounds, rule.window, rule.slices)

    def observe(self, now: float, value: float) -> None:
        self.window.observe(now, value)

    def value(self, now: float) -> float:
        return self.window.quantile(now, self.rule.q)

    def to_record(self, now: float) -> dict[str, Any]:
        return {
            "type": "rollup",
            "rule": self.rule.name,
            "kind": "quantile",
            "metric": self.metric,
            "labels": dict(self.labels),
            "window": self.window.duration,
            "q": self.rule.q,
            "value": self.value(now),
            "samples": self.window.count(now),
        }


class RollupBook:
    """All registered rollup rules plus their live series.

    Series are keyed by ``(rule, metric name, interned label key)``; the
    label key object arrives interned from the registry, so the dict key
    is cheap.
    """

    def __init__(self, rules: Iterator[RollupRule] | list[RollupRule] = ()):
        self._rules: list[RollupRule] = []
        #: metric name -> rules matching it (wildcard match memoized here).
        self._routes: dict[str, tuple[RollupRule, ...]] = {}
        self._series: dict[tuple[str, str, LabelKey], Any] = {}
        for rule in rules:
            self.add_rule(rule)

    def add_rule(self, rule: RollupRule) -> None:
        self._rules.append(rule)
        self._routes.clear()  # re-route lazily against the new rule set

    def _rules_for(self, metric: str) -> tuple[RollupRule, ...]:
        routed = self._routes.get(metric)
        if routed is None:
            routed = tuple(
                rule for rule in self._rules if wildcard_match(rule.pattern, metric)
            )
            self._routes[metric] = routed
        return routed

    # -- stream entry points (hot path) ----------------------------------------

    def on_count(self, now: float, metric: str, labels: LabelKey, amount: float) -> None:
        for rule in self._rules_for(metric):
            if rule.kind == "quantile":
                continue
            series_metric, series_labels = rule.project(metric, labels)
            key = (rule.name, series_metric, series_labels)
            series = self._series.get(key)
            if series is None:
                cls = RatioRollup if rule.kind == "ratio" else RateRollup
                series = self._series[key] = cls(rule, series_metric, series_labels)
            bad = (
                rule.bad_when(metric, labels) if rule.bad_when is not None else False
            )
            series.add(now, amount, bad)

    def on_observe(
        self,
        now: float,
        metric: str,
        labels: LabelKey,
        value: float,
        bounds: tuple[float, ...],
    ) -> None:
        for rule in self._rules_for(metric):
            if rule.kind != "quantile":
                continue
            key = (rule.name, metric, labels)
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = QuantileRollup(
                    rule, metric, labels, bounds
                )
            series.observe(now, value)

    # -- read side ---------------------------------------------------------------

    def series(self, rule_name: str | None = None) -> list[Any]:
        """Live series, optionally restricted to one rule."""
        if rule_name is None:
            return list(self._series.values())
        return [s for (r, _, _), s in self._series.items() if r == rule_name]

    def value(
        self, rule_name: str, metric: str, now: float, **labels: Any
    ) -> float | None:
        """Current value of one series (None if it never saw a sample)."""
        from repro.telemetry.metrics import label_key

        wanted = label_key(labels)
        series = self._series.get((rule_name, metric, wanted))
        if series is None:
            # The registry interns keys; a caller-built key is equal but
            # not identical, and may also predate capping — fall back to
            # an equality scan.
            for (r, m, lk), candidate in self._series.items():
                if r == rule_name and m == metric and lk == wanted:
                    series = candidate
                    break
        return series.value(now) if series is not None else None

    def to_records(self, now: float) -> list[dict[str, Any]]:
        """Every live series as a JSON-serializable record."""
        return [series.to_record(now) for series in self._series.values()]

    def describe(self) -> str:
        lines = []
        for rule in self._rules:
            n = sum(1 for (r, _, _) in self._series if r == rule.name)
            lines.append(
                f"{rule.name}: {rule.kind}({rule.pattern}) "
                f"window={rule.window}s series={n}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<RollupBook rules={len(self._rules)} series={len(self._series)}>"


def series_label(series: Any) -> str:
    """Human form of one series identity (for the control tower)."""
    return f"{series.metric}{format_labels(series.labels)}"
