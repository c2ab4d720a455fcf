"""One observability command over one run artifact: ``python -m repro obs``.

A *run artifact* is the list of typed records the layers export (the
registry's, the profiler's and the health plane's), plus one ``health``
record, one ``run`` record and one ``node`` record per base and mobile
node.  SOURCE is ``demo``, ``storm``, ``load`` or a saved artifact's
path; ``--export PATH`` saves it.  A live artifact goes through
:func:`write_jsonl` and :func:`read_jsonl` before any view sees it, so
a saved run renders exactly as the live one did.

Views: ``summary`` (registry digest and span trees), ``inspect`` (per
node: extensions, leases, breakers, quarantines, pipeline, flight tail),
``tower`` (verdict, statuses and cause chains, SLO burns, alerts,
rollups, pipelines, hot join points; the default when the artifact has
a ``health`` record) and ``profile`` (advice latency and weave cost).
``--expect healthy|burning`` exits 2 unless the run verdict matches.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
from typing import Any, Callable

from repro.telemetry.export import (
    DEFAULT_QUANTILES,
    Records,
    check_quantiles,
    json_summary,
    prom_text,
    read_jsonl,
    text_summary,
    write_jsonl,
)
from repro.telemetry.timeline import Timeline

#: Flight-recorder events shown per node by the inspect view.
TAIL_EVENTS = 10
#: Row caps for the tower's text view.
TOP_JOINPOINTS = 5
TOP_ROLLUPS = 10
TOP_ALERTS = 12

VIEWS = ("summary", "inspect", "tower", "profile")

#: A base's accept-queue pipeline stats, in inspect and the tower.
_PIPELINE = (
    "depth={depth} in_service={in_service} completed={completed} shed={shed} "
    "failed={failed}"
)


# -- the artifact -----------------------------------------------------------------


def _statuses(report: Any) -> dict[str, Any]:
    """``report`` less its SLO snapshots and alert log: the plane's ``slo``
    and ``slo_alert`` records hold those once."""
    return {k: v for k, v in report.to_dict().items() if k not in ("slos", "alerts")}


def health_records(plane: Any) -> Records:
    """The plane's records, then its ``health`` record (final and peak statuses)."""
    health = {
        "type": "health",
        "report": _statuses(plane.report()),
        "peak": None if plane.peak is None else _statuses(plane.peak),
    }
    return [*plane.to_records(), health]


def verdict(records: Records) -> str:
    """``burning`` if any SLO alert fired in the run, even one since recovered."""
    fired = any(alert["status"] == "firing" for alert in _of(records, "slo_alert"))
    return "burning" if fired else "healthy"


def storm_records(world: Any) -> Records:
    """The artifact of a finished storm world."""
    from repro.scenarios.harness import report_from

    report = report_from(world)
    run = {
        "type": "run",
        "scenario": report.spec.name,
        "seed": report.spec.seed,
        "spec": report.spec.to_json(),
        "fingerprint": report.fingerprint,
        "violations": [violation.to_dict() for violation in report.violations],
    }
    return [
        run,
        *world.platform.to_records(),
        *world.registry.to_records(),
        *health_records(world.health),
    ]


def _of(records: Records, kind: str) -> Records:
    return [record for record in records if record.get("type") == kind]


# -- sources ----------------------------------------------------------------------


def _demo(args: argparse.Namespace) -> Records:
    """hall-A and pda-1, supervised and retrying, under telemetry and the
    profiler: offer, install, advised calls, renewals, revoke."""
    from repro import Position, ProactivePlatform
    from repro.extensions import CallLogging
    from repro.resilience import RetryPolicy
    from repro.supervision import SupervisionPolicy

    platform = ProactivePlatform(
        supervision=SupervisionPolicy(), retry_policy=RetryPolicy(max_attempts=2)
    )
    registry = platform.enable_telemetry()
    profiler = platform.enable_profiler()
    try:
        hall = platform.create_base_station("hall-A", Position(0, 0))
        hall.add_extension("call-log", lambda: CallLogging(type_pattern="Thermostat"))
        device = platform.create_mobile_node("pda-1", Position(10, 0))

        # Defined per run, so each run in one process weaves a fresh class.
        class Thermostat:
            def __init__(self) -> None:
                self.target = 21.0

            def set_target(self, degrees: float) -> float:
                self.target = degrees
                return self.target

        device.load_class(Thermostat)
        platform.run_for(6.0)  # discovery, offer, signed install
        thermostat = Thermostat()
        for step in range(4):
            thermostat.set_target(19.0 + step)
        platform.run_for(8.0)  # keep-alive renewal rounds
        # Before the revoke, so the nodes still hold an extension and leases.
        nodes = platform.to_records()
        hall.extension_base.revoke(device.node_id, "call-log")
        platform.run_for(2.0)
    finally:
        platform.disable_telemetry()
    midas = {span.trace_id for span in registry.spans if span.name.startswith("midas.")}
    if len(midas) != 1:
        raise SystemExit(f"expected one connected MIDAS trace, got {len(midas)}")
    run = {"type": "run", "scenario": "demo"}
    return [run, *nodes, *registry.to_records(), *profiler.to_records()]


def _storm(args: argparse.Namespace) -> Records:
    from repro.scenarios.spec import ops_storm_spec
    from repro.scenarios.storms import StormWorld

    spec = ops_storm_spec(seed=args.seed, drop_roamed=args.drop_roamed)
    world = StormWorld(spec, dump_dir=args.dump_dir)
    try:
        world.run_for(spec.total_time)
        world.monitor.tick()  # final readings at the boundary
        world.health.tick()
        return storm_records(world)
    finally:
        world.close()


def _load(args: argparse.Namespace) -> Records:
    from repro.loadgen.harness import load_health_plane, run_scenario
    from repro.loadgen.scenario import Scenario

    scenario = Scenario(
        name="ops-load", clients=24, duration=30.0, warmup=5.0, seed=args.seed
    )
    # Our own plane, so its rollups and alert log outlive the run.
    plane = load_health_plane(scenario)
    report = run_scenario(scenario, health=plane)
    run = {
        "type": "run",
        "scenario": "load",
        "seed": scenario.seed,
        "spec": json.dumps(scenario.to_dict(), sort_keys=True),
    }
    return [run, *report.nodes, *report.registry.to_records(), *health_records(plane)]


# -- views ------------------------------------------------------------------------

#: The inspect view's list sections: text when empty, one item's line.
_NODE_LISTS = {
    "extensions": ("(none installed)", "{name} v{version} from {base}"),
    "leases": (
        "(none active)",
        "{resource} held by {holder}: {remaining:.1f}s left ({renewals} renewal(s))",
    ),
    "quarantined": (
        "(none)",
        "{extension} (contained {contained} fault(s), at t={quarantined_at:.3f})",
    ),
    "breakers": (
        "(none minted)",
        "-> {peer}: {state} (failures={failures}, opened {times_opened}x)",
    ),
}


def inspect_reports(records: Records, node: str | None, tail: int) -> Records:
    """Each node record (or only ``node``'s) with its flight-recorder tail:
    its last events up to the record's time, not what the run did after."""
    flights = _of(records, "flight")
    reports = []
    for record in _of(records, "node"):
        if node in (None, record["node"]):
            mine = (event for event in flights if event["node"] == record["node"])
            events = [event for event in mine if event["time"] <= record["time"]]
            tail_events = events[-tail:] if tail > 0 else []
            reports.append({**record, "recorder_tail": tail_events})
    return reports


def render_node(report: dict[str, Any]) -> str:
    """One node's inspect report as text."""
    header = f"{report['node']} ({report['role']}) at t={report['time']:.3f}"
    lines = [header, "-" * len(header)]
    if report["role"] == "mobile":
        keys: tuple[str, ...] = ("extensions", "leases", "quarantined", "breakers")
    else:
        keys = ("breakers",)
        adapted = ", ".join(report["adapted_nodes"]) or "(none)"
        lines.append(f"  catalog: {', '.join(report['catalog']) or '(empty)'}")
        lines.append(f"  adapted nodes: {adapted}")
        lines.append(
            f"  registrations: {report['registrations']}  "
            f"db records: {report['db_records']}"
        )
        pipeline = report["pipeline"]
        lines.append(
            "  pipeline: (direct dispatch, no accept queue)"
            if pipeline is None
            else "  pipeline: " + _PIPELINE.format(**pipeline)
        )
    for key in keys:
        empty, template = _NODE_LISTS[key]
        lines.append(f"  {key}:" if report[key] else f"  {key}: {empty}")
        lines += ["    " + template.format(**item) for item in report[key]]
    tail = report["recorder_tail"]
    lines.append(
        f"  recorder tail (last {len(tail)}):" if tail else "  recorder tail: (none)"
    )
    lines += ["  " + line for line in Timeline.from_records(tail).render().splitlines()]
    return "\n".join(lines)


def _profile_table(entries: Records) -> list[str]:
    """The profile view's table, shared with the tower's hot join points."""
    if not entries:
        return ["  (no advice dispatches profiled)"]
    header = (
        f"  {'joinpoint':<32} {'extension':<20} {'calls':>7} "
        f"{'mean':>10} {'max':>10} {'errors':>7}  exemplar"
    )
    lines = [header, "  " + "-" * (len(header) - 2)]
    for entry in entries:
        lines.append(
            f"  {entry['joinpoint']:<32} {entry['extension']:<20} "
            f"{entry['count']:>7} {entry['mean_seconds'] * 1e6:>8.1f}µs "
            f"{entry['max_seconds'] * 1e6:>8.1f}µs {entry['errors']:>7}  "
            f"{entry['exemplar_trace'] or '-'}"
        )
    return lines


def render_profile(records: Records) -> str:
    """Advice latency per (join point, extension), then weave cost."""
    lines = ["join-point profile (hottest first)", ""]
    lines += _profile_table(_of(records, "profile"))
    costs = _of(records, "weave_cost")
    if costs:
        lines += ["", "weave cost"]
    for cost in costs:
        lines.append(
            f"  {cost['vm']:<12} {cost['operation']:<12} n={cost['count']:<4} "
            f"total={cost['total_seconds'] * 1e3:.3f}ms "
            f"mean={cost['mean_seconds'] * 1e6:.1f}µs"
        )
    return "\n".join(lines)


def tower_view(records: Records) -> dict[str, Any]:
    """Everything the control tower shows, from the artifact's records."""
    (health,) = _of(records, "health")
    alerts = _of(records, "slo_alert")
    latest = {(alert["slo"], alert["pair"]): alert for alert in alerts}
    return {
        "run": next(iter(_of(records, "run")), {}),
        "verdict": verdict(records),
        "report": health["report"],
        "peak": health["peak"],
        "slos": _of(records, "slo"),
        "alerts": alerts,
        # An (slo, pair) burns now when its latest edge is a fire.
        "burning": [
            latest[key] for key in sorted(latest) if latest[key]["status"] == "firing"
        ],
        "rollups": _of(records, "rollup"),
        "hot_joinpoints": _of(records, "profile"),
        "pipelines": {
            node["node"]: node["pipeline"]
            for node in _of(records, "node")
            if node["role"] == "base" and node["pipeline"]
        },
    }


def _render_cause(cause: dict[str, Any], indent: int, lines: list[str]) -> None:
    head = f"{'  ' * indent}{cause['kind']}[{cause['subject']}]"
    lines.append(f"{head}: {cause['detail']}" if cause.get("detail") else head)
    for sub in cause.get("causes", ()):
        _render_cause(sub, indent + 1, lines)


def _render_report(report: dict[str, Any], lines: list[str]) -> None:
    for subsystem, status in sorted(report["subsystems"].items()):
        mark = "ok" if status == "healthy" else status.upper()
        lines.append(f"  {subsystem:<14} {mark}")
    problems = [c for c in report["conditions"] if c["status"] != "healthy"]
    if problems:
        lines.append("  conditions:")
    for condition in problems:
        lines.append(
            f"    [{condition['status']}] {condition['subsystem']}: "
            f"{condition['summary']}"
        )
        if condition.get("cause"):
            _render_cause(condition["cause"], 3, lines)


def _burning_line(alert: dict[str, Any]) -> str:
    worst = alert["worst"]
    blame = f" blame={worst.get('node', worst.get('station', '?'))}" if worst else ""
    return (
        f"  [{alert['severity']}] {alert['slo']}/{alert['pair']}: "
        f"burn {alert['burn_long']:.1f}x/{alert['burn_short']:.1f}x "
        f"over {alert['threshold']:g}x since t={alert['time']:.1f}s{blame}"
    )


def _slo_lines(slos: Records) -> list[str]:
    if not slos:
        return ["  (no objectives registered)"]
    header = (
        f"  {'slo':<22} {'pair':<6} {'sev':<7} {'windows':>13} "
        f"{'burn L/S':>15} {'thr':>6}  state"
    )
    lines = [header, "  " + "-" * (len(header) - 2)]
    for slo in slos:
        for pair in slo["pairs"]:
            windows = f"{pair['long_window']:g}/{pair['short_window']:g}s"
            burns = f"{pair['burn_long']:.1f}x/{pair['burn_short']:.1f}x"
            lines.append(
                f"  {slo['name']:<22} {pair['name']:<6} {pair['severity']:<7} "
                f"{windows:>13} {burns:>15} {pair['threshold']:>5.1f}x  "
                f"{'FIRING' if pair['burning'] else '-'}"
            )
    return lines


def render_tower(snapshot: dict[str, Any], top: int = TOP_JOINPOINTS) -> str:
    """The control tower's text dashboard."""
    report, overall = snapshot["report"], snapshot["report"]["overall"]
    title = (
        f"control tower :: {snapshot['run'].get('scenario')} @ t={report['time']:.1f}s "
        f":: overall {overall.upper()} :: run verdict {snapshot['verdict'].upper()}"
    )
    lines = ["=" * len(title), title, "=" * len(title)]
    _render_report(report, lines)
    if snapshot["burning"]:
        lines.append("burning now:")
    lines += [_burning_line(alert) for alert in snapshot["burning"]]
    lines += ["slo burn table:", *_slo_lines(snapshot["slos"])]
    peak = snapshot["peak"]
    if peak is not None and peak["overall"] != overall:
        lines.append(
            f"peak incident (t={peak['time']:.1f}s, "
            f"overall {peak['overall'].upper()} — since recovered):"
        )
        _render_report(peak, lines)
    alerts = snapshot["alerts"][-TOP_ALERTS:]
    if alerts:
        lines.append(f"alert log (last {len(alerts)}):")
    for alert in alerts:
        lines.append(
            f"  t={alert['time']:>7.1f} {alert['status']:<9} "
            f"[{alert['severity']}] {alert['slo']}/{alert['pair']} "
            f"burn={alert['burn_long']:.1f}x"
        )
    rollups = snapshot["rollups"][:TOP_ROLLUPS]
    if rollups:
        lines.append("rollups:")
    for record in rollups:
        labels = ",".join(f"{k}={v}" for k, v in sorted(record["labels"].items()))
        suffix = f"{{{labels}}}" if labels else ""
        lines.append(
            f"  {record['rule']:<18} {record['metric']}{suffix}: "
            f"{record['value']:.4g} ({record['kind']})"
        )
    pipelines = sorted(snapshot["pipelines"].items())
    if pipelines:
        lines.append("pipelines:")
    lines += [f"  {base}: " + _PIPELINE.format(**stats) for base, stats in pipelines]
    hot = snapshot["hot_joinpoints"][:top]
    if hot:
        lines += [f"hot join points (top {len(hot)}):", *_profile_table(hot)]
    return "\n".join(lines)


# -- the command ------------------------------------------------------------------


def quantiles(text: str) -> tuple[float, ...]:
    return check_quantiles(tuple(float(q) for q in text.split(",") if q.strip()))


def main(argv: list[str] | None = None, out: Callable[[str], None] = print) -> int:
    sources = {"demo": _demo, "storm": _storm, "load": _load}
    parser = argparse.ArgumentParser(
        prog="python -m repro obs",
        description="Observe one run, live or saved, through one of four views.",
    )
    parser.add_argument(
        "source",
        nargs="?",
        default="demo",
        help="demo (the default), storm, load, or the path of a saved artifact",
    )
    parser.add_argument(
        "--view",
        choices=VIEWS,
        help="default: tower for an artifact with a health record, unless prom format",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "prom"),
        default="text",
        help="json for any view; prom (Prometheus text) for the summary",
    )
    parser.add_argument(
        "--quantiles",
        type=quantiles,
        default=DEFAULT_QUANTILES,
        help="summary: histogram quantiles in (0, 1), e.g. 0.5,0.99,0.999",
    )
    parser.add_argument("--export", metavar="PATH", help="write the artifact to PATH")
    parser.add_argument("--node", help="inspect: this node only (default: all)")
    parser.add_argument(
        "--tail", type=int, default=TAIL_EVENTS, help="inspect: flight events per node"
    )
    parser.add_argument(
        "--top", type=int, default=TOP_JOINPOINTS, help="tower: hot join points shown"
    )
    parser.add_argument(
        "--expect",
        choices=("healthy", "burning"),
        help="exit 2 unless the run verdict matches (the CI replay gate)",
    )
    parser.add_argument("--seed", type=int, default=7, help="storm and load seed")
    parser.add_argument(
        "--drop-roamed",
        type=float,
        default=0.4,
        help="storm: ROAMED announcement drop fraction (0 = a clean run)",
    )
    parser.add_argument("--dump-dir", help="storm: flight-ring dumps on slo.burn")
    args = parser.parse_args(argv)
    # Before a live run, so a wrong combination costs no storm.
    if args.format == "prom" and args.view not in (None, "summary"):
        parser.error("--format prom renders the summary view only")

    if args.source in sources:
        # Through the one writer and reader, as a saved artifact reads back.
        buffer = io.StringIO()
        write_jsonl(sources[args.source](args), buffer)
        buffer.seek(0)
        records = read_jsonl(buffer)
    else:
        try:
            records = read_jsonl(args.source)
        except (OSError, ValueError) as error:
            parser.error(f"cannot read artifact {args.source!r}: {error}")
    if args.export is not None:
        write_jsonl(records, args.export)
    health = _of(records, "health")
    view = args.view or ("tower" if health and args.format != "prom" else "summary")

    as_json = args.format == "json"
    dumps = functools.partial(json.dumps, indent=2, sort_keys=True)
    if view == "summary" and args.format == "prom":
        output = prom_text(records)
    elif view == "summary" and as_json:
        output = dumps(json_summary(records, quantiles=args.quantiles))
    elif view == "summary":
        output = text_summary(records, quantiles=args.quantiles)
    elif view == "inspect":
        reports = inspect_reports(records, args.node, args.tail)
        if args.node is not None and not reports:
            known = ", ".join(node["node"] for node in _of(records, "node"))
            parser.error(f"unknown node {args.node!r} (known: {known or 'none'})")
        rendered = dumps(reports) if as_json else "\n\n".join(map(render_node, reports))
        output = rendered or "(no node records)"
    elif view == "tower":
        if not health:
            parser.error("the tower view needs a health record (a storm or load run)")
        snapshot = tower_view(records)
        output = dumps(snapshot) if as_json else render_tower(snapshot, top=args.top)
    else:
        entries = _of(records, "profile") + _of(records, "weave_cost")
        output = dumps(entries) if as_json else render_profile(records)
    out(output)

    run_verdict = verdict(records) if health else None
    if args.expect is not None and run_verdict != args.expect:
        out(f"EXPECTATION FAILED: wanted {args.expect}, run verdict was {run_verdict}")
        return 2
    return 0
