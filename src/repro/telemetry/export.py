"""Exporters: JSONL dumps and human-readable text summaries.

Both exporters work on *records* — the plain-dict form produced by
:meth:`MetricsRegistry.to_records` and round-tripped through JSONL — so
the same summary code renders a live registry and a file loaded back
from disk identically (that symmetry is what the CLI's
``telemetry summary`` relies on).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any, Iterable, Union

from repro.telemetry.metrics import bucket_quantile, format_labels
from repro.telemetry.registry import MetricsRegistry

Records = list[dict[str, Any]]
_Source = Union[MetricsRegistry, Iterable[dict[str, Any]]]

#: Traces rendered in full by :func:`text_summary` before eliding.
MAX_TRACES_SHOWN = 5

#: Histogram quantiles summaries report unless the caller overrides them.
DEFAULT_QUANTILES = (0.5, 0.95, 0.99)


def _check_quantiles(quantiles: tuple[float, ...]) -> tuple[float, ...]:
    quantiles = tuple(quantiles)
    if not quantiles:
        raise ValueError("need at least one quantile")
    for q in quantiles:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantiles must be in (0, 1), got {q}")
    return quantiles


def quantile_label(q: float) -> str:
    """The conventional name of quantile ``q`` (0.5 -> 'p50', 0.999 -> 'p99.9')."""
    return f"p{q * 100:g}"


def _records_of(source: _Source) -> Records:
    if isinstance(source, MetricsRegistry):
        return source.to_records()
    return list(source)


def write_jsonl(source: _Source, destination: Union[str, Path, IO[str]]) -> int:
    """Write one JSON record per line; returns the record count."""
    records = _records_of(source)
    if hasattr(destination, "write"):
        for record in records:
            destination.write(json.dumps(record, sort_keys=True) + "\n")
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
    return len(records)


def read_jsonl(source: Union[str, Path, IO[str]]) -> Records:
    """Load records written by :func:`write_jsonl` (blank lines skipped).

    A truncated or corrupted line — half-written dump from a crashed
    process, stray shell output in the file — is *skipped and counted*
    rather than aborting the whole load: when any line fails to parse, a
    final ``{"type": "read_errors", "malformed_lines": n}`` record is
    appended so summaries can surface the damage.
    """
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        lines = Path(source).read_text(encoding="utf-8").splitlines()
    records: Records = []
    malformed = 0
    for line in lines:
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            malformed += 1
    if malformed:
        records.append({"type": "read_errors", "malformed_lines": malformed})
    return records


def _label_suffix(record: dict[str, Any]) -> str:
    return format_labels(tuple(sorted(record.get("labels", {}).items())))


def _histogram_stats(
    record: dict[str, Any], quantiles: tuple[float, ...] = DEFAULT_QUANTILES
) -> str:
    count = record["count"]
    if not count:
        return "n=0"
    mean = record["sum"] / count
    values = _quantiles_from_buckets(record, quantiles)
    rendered = " ".join(
        f"{quantile_label(q)}={_si(value)}" for q, value in zip(quantiles, values)
    )
    middle = f" {rendered}" if rendered else ""
    return f"n={count} mean={_si(mean)}{middle} max={_si(record['max'])}"


def _quantiles_from_buckets(
    record: dict[str, Any], qs: tuple[float, ...]
) -> list[float]:
    overflow = record["max"] or 0.0
    return [
        bucket_quantile(record["buckets"], record["counts"], record["count"], q, overflow)
        for q in qs
    ]


def _si(value: float | None) -> str:
    """Render seconds-ish floats compactly (1.2ms, 340us, 2.5s)."""
    if value is None:
        return "-"
    magnitude = abs(value)
    for threshold, scale, unit in ((1.0, 1.0, "s"), (1e-3, 1e3, "ms"), (1e-6, 1e6, "us")):
        if magnitude >= threshold:
            return f"{value * scale:.3g}{unit}"
    return f"{value * 1e9:.3g}ns" if magnitude > 0 else "0s"


def _span_tree_lines(spans: list[dict[str, Any]]) -> list[str]:
    by_parent: dict[str | None, list[dict[str, Any]]] = {}
    ids = {span["span_id"] for span in spans}
    for span in spans:
        parent = span["parent_id"] if span["parent_id"] in ids else None
        by_parent.setdefault(parent, []).append(span)
    for children in by_parent.values():
        children.sort(key=lambda s: (s["start"], s["span_id"]))

    lines: list[str] = []

    def walk(parent: str | None, depth: int) -> None:
        for span in by_parent.get(parent, ()):
            node = f" @{span['node']}" if span.get("node") else ""
            end = span["end"]
            window = (
                f"t={span['start']:.3f}..{end:.3f}" if end is not None
                else f"t={span['start']:.3f}.. (open)"
            )
            status = span["status"] or "open"
            lines.append(f"{'  ' * depth}- {span['name']}{node} {window} [{status}]")
            walk(span["span_id"], depth + 1)

    walk(None, 0)
    return lines


def text_summary(
    source: _Source,
    title: str | None = None,
    quantiles: tuple[float, ...] = DEFAULT_QUANTILES,
) -> str:
    """A human-readable digest of counters, histograms, events and traces.

    ``quantiles`` picks the histogram quantiles shown (bucket-resolution,
    each in the open interval (0, 1)); the default adds tail visibility
    with p99 alongside the classic p50/p95.
    """
    quantiles = _check_quantiles(quantiles)
    records = _records_of(source)
    meta = next((r for r in records if r["type"] == "meta"), None)
    counters = sorted(
        (r for r in records if r["type"] == "counter"),
        key=lambda r: (r["name"], sorted(r.get("labels", {}).items())),
    )
    gauges = sorted(
        (r for r in records if r["type"] == "gauge"),
        key=lambda r: (r["name"], sorted(r.get("labels", {}).items())),
    )
    histograms = sorted(
        (r for r in records if r["type"] == "histogram"),
        key=lambda r: (r["name"], sorted(r.get("labels", {}).items())),
    )
    events = [r for r in records if r["type"] == "event"]
    spans = [r for r in records if r["type"] == "span"]
    flights = [r for r in records if r["type"] == "flight"]
    malformed = sum(
        r.get("malformed_lines", 0) for r in records if r["type"] == "read_errors"
    )

    header = title or (f"telemetry summary — {meta['name']}" if meta else "telemetry summary")
    lines = [header, "=" * len(header)]

    if counters:
        lines += ["", "counters:"]
        lines += [
            f"  {r['name']}{_label_suffix(r)} = {r['value']:g}" for r in counters
        ]
    if gauges:
        lines += ["", "gauges:"]
        lines += [f"  {r['name']}{_label_suffix(r)} = {r['value']:g}" for r in gauges]
    if histograms:
        lines += ["", "histograms:"]
        lines += [
            f"  {r['name']}{_label_suffix(r)}  {_histogram_stats(r, quantiles)}"
            for r in histograms
        ]
    if events:
        lines += ["", f"events: {len(events)}"]
        by_name: dict[str, int] = {}
        for record in events:
            by_name[record["name"]] = by_name.get(record["name"], 0) + 1
        lines += [f"  {name} x{count}" for name, count in sorted(by_name.items())]

    if flights:
        nodes = sorted({r["node"] for r in flights})
        lines += [
            "",
            f"flight recorder: {len(flights)} events on {len(nodes)} node(s) "
            f"({', '.join(nodes)})",
        ]

    if spans:
        traces: dict[str, list[dict[str, Any]]] = {}
        for span in spans:
            traces.setdefault(span["trace_id"], []).append(span)
        lines += ["", f"traces: {len(traces)} ({len(spans)} spans)"]
        for index, (trace_id, trace_spans) in enumerate(sorted(traces.items())):
            if index >= MAX_TRACES_SHOWN:
                lines.append(f"  ... and {len(traces) - MAX_TRACES_SHOWN} more traces")
                break
            lines.append(f"  trace {trace_id}:")
            lines += ["  " + line for line in _span_tree_lines(trace_spans)]

    dropped_events = int(meta.get("dropped_events", 0) or 0) if meta else 0
    dropped_spans = int(meta.get("dropped_spans", 0) or 0) if meta else 0
    if dropped_events or dropped_spans:
        lines += [
            "",
            f"warning: retention cap dropped {dropped_events} event(s) and "
            f"{dropped_spans} span(s) before this export",
        ]

    if malformed:
        lines += ["", f"warning: {malformed} malformed line(s) skipped while reading"]

    if len(lines) == 2:
        lines.append("(empty)")
    return "\n".join(lines)


def json_summary(
    source: _Source, quantiles: tuple[float, ...] = DEFAULT_QUANTILES
) -> dict[str, Any]:
    """A machine-readable digest of the same records :func:`text_summary` shows.

    The shape is stable for scripting (``repro telemetry summary --format
    json``): every value is a plain JSON type, histogram quantiles are
    bucket-resolution like the text rendering (one ``p<q>`` key per
    requested quantile, e.g. ``p50``/``p95``/``p99``), and any malformed
    lines counted by :func:`read_jsonl` appear under ``malformed_lines``.
    """
    quantiles = _check_quantiles(quantiles)
    records = _records_of(source)
    meta = next((r for r in records if r["type"] == "meta"), None)

    def metric(record: dict[str, Any]) -> dict[str, Any]:
        return {
            "name": record["name"],
            "labels": dict(record.get("labels", {})),
            "value": record["value"],
        }

    def histogram(record: dict[str, Any]) -> dict[str, Any]:
        count = record["count"]
        values = (
            _quantiles_from_buckets(record, quantiles)
            if count
            else [None] * len(quantiles)
        )
        summary = {
            "name": record["name"],
            "labels": dict(record.get("labels", {})),
            "count": count,
            "sum": record["sum"],
            "mean": (record["sum"] / count) if count else None,
        }
        summary.update(
            (quantile_label(q), value) for q, value in zip(quantiles, values)
        )
        summary["max"] = record["max"]
        return summary

    events = [r for r in records if r["type"] == "event"]
    events_by_name: dict[str, int] = {}
    for record in events:
        events_by_name[record["name"]] = events_by_name.get(record["name"], 0) + 1

    spans = [r for r in records if r["type"] == "span"]
    trace_ids = {span["trace_id"] for span in spans}

    flights = [r for r in records if r["type"] == "flight"]
    flights_by_node: dict[str, int] = {}
    for record in flights:
        flights_by_node[record["node"]] = flights_by_node.get(record["node"], 0) + 1

    return {
        "meta": dict(meta) if meta else None,
        "counters": sorted(
            (metric(r) for r in records if r["type"] == "counter"),
            key=lambda m: (m["name"], sorted(m["labels"].items())),
        ),
        "gauges": sorted(
            (metric(r) for r in records if r["type"] == "gauge"),
            key=lambda m: (m["name"], sorted(m["labels"].items())),
        ),
        "histograms": sorted(
            (histogram(r) for r in records if r["type"] == "histogram"),
            key=lambda h: (h["name"], sorted(h["labels"].items())),
        ),
        "events": {"total": len(events), "by_name": dict(sorted(events_by_name.items()))},
        "spans": {"total": len(spans), "traces": len(trace_ids)},
        "flight": {
            "total": len(flights),
            "by_node": dict(sorted(flights_by_node.items())),
        },
        "dropped": {
            "events": int(meta.get("dropped_events", 0) or 0) if meta else 0,
            "spans": int(meta.get("dropped_spans", 0) or 0) if meta else 0,
        },
        "malformed_lines": sum(
            r.get("malformed_lines", 0)
            for r in records
            if r["type"] == "read_errors"
        ),
    }


# -- Prometheus text exposition ---------------------------------------------------

#: Characters legal in a Prometheus metric name (after the first char).
_PROM_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _prom_name(name: str) -> str:
    """Sanitize a metric name (dots become underscores, etc.)."""
    cleaned = "".join(c if c in _PROM_OK else "_" for c in name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned or "_"


def _prom_label_value(value: str) -> str:
    """Escape a label value per the exposition format."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(labels: dict[str, Any], extra: str = "") -> str:
    parts = [
        f'{_prom_name(k)}="{_prom_label_value(v)}"'
        for k, v in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _prom_float(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    return repr(float(value))


def prom_text(source: _Source) -> str:
    """Prometheus text-exposition rendering of the metric records.

    Counters get a ``_total`` suffix; histograms emit cumulative
    ``_bucket{le=...}`` series plus ``_sum``/``_count`` (and the
    implicit ``+Inf`` bucket), matching what a real scrape endpoint
    would serve.  Each label set the registry recorded is one series.
    Events, spans and flight records have no Prometheus shape and are
    skipped.
    """
    records = _records_of(source)
    lines: list[str] = []
    #: name -> (prom kind, [(labels, record)]) keeping first-seen order.
    families: dict[str, tuple[str, list[dict[str, Any]]]] = {}
    for record in records:
        kind = record.get("type")
        if kind not in ("counter", "gauge", "histogram"):
            continue
        family = families.setdefault(record["name"], (kind, []))
        if family[0] == kind:
            family[1].append(record)
    for name, (kind, members) in families.items():
        prom = _prom_name(name)
        if kind == "counter":
            prom += "_total"
        lines.append(f"# TYPE {prom} {kind}")
        for record in members:
            labels = dict(record.get("labels", {}))
            if kind in ("counter", "gauge"):
                lines.append(
                    f"{prom}{_prom_labels(labels)} {_prom_float(record['value'])}"
                )
                continue
            # Histogram: cumulative buckets, then sum and count.
            cumulative = 0
            for bound, bucket_count in zip(record["buckets"], record["counts"]):
                cumulative += bucket_count
                le = _prom_labels(labels, extra=f'le="{_prom_float(bound)}"')
                lines.append(f"{prom}_bucket{le} {cumulative}")
            inf = _prom_labels(labels, extra='le="+Inf"')
            lines.append(f"{prom}_bucket{inf} {record['count']}")
            lines.append(
                f"{prom}_sum{_prom_labels(labels)} {_prom_float(record['sum'])}"
            )
            lines.append(f"{prom}_count{_prom_labels(labels)} {record['count']}")
    return "\n".join(lines) + ("\n" if lines else "")
