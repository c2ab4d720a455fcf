"""Live node inspection: ``python -m repro inspect``.

Renders one platform node's current health as an operator would want to
see it mid-incident:

- installed extensions with versions and the base that pushed them,
- the lease table with remaining TTLs (the paper's liveness contract:
  an extension whose lease lapses is withdrawn),
- circuit-breaker states on the node's resilient clients,
- the supervisor's quarantine list,
- the tail of the node's flight recorder — the last things that
  happened to it.

:func:`node_report` builds the structured report (plain dict, JSON-safe)
from a live :class:`~repro.core.platform.ProactivePlatform`;
:func:`render_report` turns it into text.  The CLI runs the shared demo
world (the quickstart wiring) far enough to have installs, leases and
recorder traffic, then inspects it — point :func:`node_report` at your
own platform for real use.
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Callable

#: Flight-recorder events shown by default in a report's tail.
TAIL_EVENTS = 10


def _breaker_states(*clients: Any) -> list[dict[str, Any]]:
    out = []
    for client in clients:
        if client is None:
            continue
        for peer, breaker in sorted(client.breakers().items()):
            out.append(
                {
                    "owner": breaker.owner,
                    "peer": peer,
                    "state": breaker.state.value,
                    "failures": breaker.failures,
                    "times_opened": breaker.times_opened,
                }
            )
    return out


def _recorder_tail(platform: Any, node_id: str, count: int) -> list[dict[str, Any]]:
    registry = platform.telemetry
    if registry is None or registry.flight is None:
        return []
    return [
        event.to_record() for event in registry.flight.recorder(node_id).tail(count)
    ]


def node_report(
    platform: Any, node_id: str, tail: int = TAIL_EVENTS
) -> dict[str, Any]:
    """The structured health report for one node (mobile or base).

    Raises ``KeyError`` for a node id the platform does not know.
    """
    now = platform.now
    mobile = platform.mobile_nodes.get(node_id)
    if mobile is not None:
        supervisor = mobile.supervisor
        return {
            "node": node_id,
            "role": "mobile",
            "time": now,
            "extensions": [
                {
                    "name": installed.name,
                    "version": installed.envelope.version,
                    "base": installed.base_id,
                    "lease_id": installed.lease_id,
                }
                for installed in mobile.adaptation.installed()
            ],
            "leases": [
                {
                    "resource": str(lease.resource),
                    "holder": lease.holder,
                    "remaining": lease.remaining(now),
                    "renewals": lease.renewals,
                }
                for lease in sorted(
                    mobile.adaptation.leases.active(),
                    key=lambda lease: str(lease.resource),
                )
            ],
            "breakers": _breaker_states(mobile.discovery.resilient_client),
            "quarantined": (
                []
                if supervisor is None
                else [health.as_dict() for health in supervisor.quarantined()]
            ),
            "recorder_tail": _recorder_tail(platform, node_id, tail),
        }
    station = platform.base_stations.get(node_id)
    if station is not None:
        pipeline = getattr(station.extension_base, "pipeline", None)
        return {
            "node": node_id,
            "role": "base",
            "time": now,
            "catalog": station.catalog.names(),
            "adapted_nodes": station.extension_base.adapted_nodes(),
            "registrations": station.lookup.registration_count(),
            "db_records": len(station.db),
            "pipeline": pipeline.stats() if pipeline is not None else None,
            "breakers": _breaker_states(station.extension_base.resilient_client),
            "recorder_tail": _recorder_tail(platform, node_id, tail),
        }
    raise KeyError(f"no node {node_id!r} on this platform")


def platform_report(platform: Any, tail: int = TAIL_EVENTS) -> list[dict[str, Any]]:
    """Reports for every node, bases first, each sorted by id."""
    return [
        node_report(platform, node_id, tail=tail)
        for node_id in sorted(platform.base_stations) + sorted(platform.mobile_nodes)
    ]


def _render_tail(tail: list[dict[str, Any]], lines: list[str]) -> None:
    if not tail:
        lines.append("  recorder tail: (no flight recorder attached)")
        return
    lines.append(f"  recorder tail (last {len(tail)}):")
    for record in tail:
        fields = record.get("fields", {})
        detail = ", ".join(
            f"{key}={value}"
            for key, value in fields.items()
            if key not in ("trace_id", "span_id", "node")
        )
        trace = f"  [{record['trace_id']}]" if record.get("trace_id") else ""
        lines.append(
            f"    t={record['time']:8.3f} #{record['seq']:<4} "
            f"{record['kind']:<26} {detail}{trace}"
        )


def render_report(report: dict[str, Any]) -> str:
    """Human-readable rendering of one :func:`node_report`."""
    header = f"{report['node']} ({report['role']}) at t={report['time']:.3f}"
    lines = [header, "-" * len(header)]
    if report["role"] == "mobile":
        extensions = report["extensions"]
        if extensions:
            lines.append("  extensions:")
            for ext in extensions:
                lines.append(
                    f"    {ext['name']} v{ext['version']} from {ext['base']}"
                )
        else:
            lines.append("  extensions: (none installed)")
        leases = report["leases"]
        if leases:
            lines.append("  leases:")
            for lease in leases:
                lines.append(
                    f"    {lease['resource']} held by {lease['holder']}: "
                    f"{lease['remaining']:.1f}s left "
                    f"({lease['renewals']} renewal(s))"
                )
        else:
            lines.append("  leases: (none active)")
        quarantined = report["quarantined"]
        if quarantined:
            lines.append("  quarantined:")
            for health in quarantined:
                lines.append(
                    f"    {health['extension']} "
                    f"(contained {health['contained']} fault(s), "
                    f"at t={health['quarantined_at']:.3f})"
                )
        else:
            lines.append("  quarantined: (none)")
    else:
        lines.append(f"  catalog: {', '.join(report['catalog']) or '(empty)'}")
        lines.append(
            f"  adapted nodes: {', '.join(report['adapted_nodes']) or '(none)'}"
        )
        lines.append(
            f"  registrations: {report['registrations']}  "
            f"db records: {report['db_records']}"
        )
        pipeline = report.get("pipeline")
        if pipeline is not None:
            lines.append(
                f"  pipeline: depth={pipeline['depth']} "
                f"in_service={pipeline['in_service']} "
                f"completed={pipeline['completed']} shed={pipeline['shed']} "
                f"failed={pipeline['failed']}"
            )
        else:
            lines.append("  pipeline: (direct dispatch, no accept queue)")
    breakers = report["breakers"]
    if breakers:
        lines.append("  breakers:")
        for breaker in breakers:
            lines.append(
                f"    -> {breaker['peer']}: {breaker['state']} "
                f"(failures={breaker['failures']}, "
                f"opened {breaker['times_opened']}x)"
            )
    else:
        lines.append("  breakers: (none minted)")
    _render_tail(report["recorder_tail"], lines)
    return "\n".join(lines)


def _demo_platform() -> Any:
    """The shared demo world, run far enough to have live state."""
    from repro.resilience import RetryPolicy
    from repro.telemetry.cli import build_demo_world

    # A retrying world mints breakers worth inspecting.
    world = build_demo_world(
        telemetry=True, supervised=True, retry_policy=RetryPolicy(max_attempts=2)
    )
    world.platform.run_for(6.0)  # discovery, offer, signed install
    thermostat = world.thermostat_cls()
    for step in range(3):
        thermostat.set_target(20.0 + step)
    world.platform.run_for(5.0)  # keep-alives renew the extension lease
    return world.platform


def main(
    argv: list[str] | None = None, out: Callable[[str], None] = print
) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro inspect",
        description="Render node health: extensions, leases, breakers, "
        "quarantines, and the flight-recorder tail.",
    )
    parser.add_argument(
        "node",
        nargs="?",
        help="node id to inspect (default: every node in the demo world)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report(s) as JSON"
    )
    parser.add_argument(
        "--tail",
        type=int,
        default=TAIL_EVENTS,
        metavar="N",
        help="flight-recorder events to show per node",
    )
    args = parser.parse_args(argv)

    platform = _demo_platform()
    try:
        if args.node is not None:
            try:
                reports = [node_report(platform, args.node, tail=args.tail)]
            except KeyError:
                known = sorted(platform.base_stations) + sorted(platform.mobile_nodes)
                parser.error(f"unknown node {args.node!r} (known: {', '.join(known)})")
        else:
            reports = platform_report(platform, tail=args.tail)
        if args.json:
            out(json.dumps(reports, indent=2, sort_keys=True))
        else:
            out("\n\n".join(render_report(report) for report in reports))
        return 0
    finally:
        platform.disable_telemetry()


if __name__ == "__main__":
    raise SystemExit(main())
