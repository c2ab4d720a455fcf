"""The control tower: ``python -m repro ops``.

One screen for an operator mid-incident, built entirely from the health
plane's outputs (plus a few platform surfaces):

- the overall verdict and per-subsystem statuses, with explicit cause
  chains for everything non-healthy,
- the SLO burn table — every objective, every window pair, its burn
  multiples and whether it is firing,
- the run's alert log (firing/recovered edges, oldest first),
- streaming rollup series (rates, error ratios, quantile sketches),
- the hottest join points from the advice profiler,
- base-station pipeline depth / shedding.

Everything renders from one JSON-safe snapshot dict
(:func:`tower_snapshot`), so ``--json`` is the same data the text view
shows — and so CI can replay a seeded storm and assert on the verdict
with ``--expect burning`` / ``--expect healthy`` (exit 2 on mismatch).
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Callable

#: Sparkline blocks, lowest to highest.
BLOCKS = "▁▂▃▄▅▆▇█"

#: Default row caps for the text view.
TOP_JOINPOINTS = 5
TOP_ROLLUPS = 10
TOP_ALERTS = 12


def sparkline(values: list[float]) -> str:
    """One unicode sparkline; empty input renders empty."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi <= lo:
        return BLOCKS[0] * len(values)
    span = hi - lo
    return "".join(
        BLOCKS[int((value - lo) / span * (len(BLOCKS) - 1))] for value in values
    )


# -- snapshot ---------------------------------------------------------------------


def tower_snapshot(
    scenario: str,
    plane: Any,
    *,
    platform: Any = None,
    profiler: Any = None,
    extra: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Everything the tower shows, as one JSON-safe dict."""
    now = plane._now()
    report = plane.report(now)
    alerts = [alert.to_dict() for alert in plane.engine.alerts]
    active = set(plane.engine.active())
    latest_firing: dict[tuple[str, str], dict[str, Any]] = {}
    for alert in alerts:
        key = (alert["slo"], alert["pair"])
        if alert["status"] == "firing" and key in active:
            latest_firing[key] = alert
    ever_burned = any(alert["status"] == "firing" for alert in alerts)
    snapshot: dict[str, Any] = {
        "scenario": scenario,
        "time": now,
        "overall": report.overall,
        "verdict": "burning" if ever_burned else "healthy",
        "report": report.to_dict(),
        "peak": plane.peak.to_dict() if plane.peak is not None else None,
        "burning": [latest_firing[key] for key in sorted(latest_firing)],
        "alerts": alerts,
        "rollups": plane.book.to_records(now),
        "hot_joinpoints": (
            [entry.to_record() for entry in profiler.entries()]
            if profiler is not None
            else []
        ),
        "pipelines": _pipeline_stats(platform) if platform is not None else {},
    }
    if extra:
        snapshot.update(extra)
    return snapshot


def _pipeline_stats(platform: Any) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for base_id, station in sorted(platform.base_stations.items()):
        pipeline = getattr(station.extension_base, "pipeline", None)
        if pipeline is not None:
            out[base_id] = pipeline.stats()
    return out


# -- rendering --------------------------------------------------------------------

_STATUS_MARK = {"healthy": "ok", "degraded": "DEGRADED", "critical": "CRITICAL"}


def _render_cause(cause: dict[str, Any], indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    head = f"{pad}{cause['kind']}[{cause['subject']}]"
    if cause.get("detail"):
        head += f": {cause['detail']}"
    lines.append(head)
    for sub in cause.get("causes", ()):
        _render_cause(sub, indent + 1, lines)


def _render_report(report: dict[str, Any], lines: list[str]) -> None:
    for subsystem, status in sorted(report["subsystems"].items()):
        lines.append(f"  {subsystem:<14} {_STATUS_MARK.get(status, status)}")
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


def _render_slos(slos: list[dict[str, Any]], lines: list[str]) -> None:
    lines.append("slo burn table:")
    if not slos:
        lines.append("  (no objectives registered)")
        return
    header = (
        f"  {'slo':<22} {'pair':<6} {'sev':<7} {'windows':>13} "
        f"{'burn L/S':>15} {'thr':>6}  state"
    )
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for slo in slos:
        for pair in slo["pairs"]:
            state = "FIRING" if pair["burning"] else "-"
            windows = f"{pair['long_window']:g}/{pair['short_window']:g}s"
            burns = f"{pair['burn_long']:.1f}x/{pair['burn_short']:.1f}x"
            lines.append(
                f"  {slo['name']:<22} {pair['name']:<6} {pair['severity']:<7} "
                f"{windows:>13} {burns:>15} {pair['threshold']:>5.1f}x  {state}"
            )


def _render_rollups(rollups: list[dict[str, Any]], top: int, lines: list[str]) -> None:
    shown = [r for r in rollups if r.get("type") == "rollup"][:top]
    if not shown:
        return
    lines.append("rollups:")
    for record in shown:
        labels = ",".join(
            f"{k}={v}" for k, v in sorted(record.get("labels", {}).items())
        )
        suffix = f"{{{labels}}}" if labels else ""
        lines.append(
            f"  {record['rule']:<18} {record['metric']}{suffix}: "
            f"{record['value']:.4g} ({record['kind']})"
        )


def render_tower(snapshot: dict[str, Any], top: int = TOP_JOINPOINTS) -> str:
    """The full text dashboard for one snapshot."""
    overall = snapshot["overall"]
    title = (
        f"control tower :: {snapshot['scenario']} @ t={snapshot['time']:.1f}s "
        f":: overall {overall.upper()} :: run verdict {snapshot['verdict'].upper()}"
    )
    lines = ["=" * len(title), title, "=" * len(title)]
    _render_report(snapshot["report"], lines)

    burning = snapshot["burning"]
    if burning:
        lines.append("burning now:")
        for alert in burning:
            worst = alert.get("worst") or {}
            blame = f" blame={worst.get('node', worst.get('station', '?'))}" if worst else ""
            lines.append(
                f"  [{alert['severity']}] {alert['slo']}/{alert['pair']}: "
                f"burn {alert['burn_long']:.1f}x/{alert['burn_short']:.1f}x "
                f"over {alert['threshold']:g}x since t={alert['time']:.1f}s{blame}"
            )

    _render_slos(snapshot["report"].get("slos", []), lines)

    peak = snapshot.get("peak")
    if peak is not None and peak["overall"] != overall:
        lines.append(
            f"peak incident (t={peak['time']:.1f}s, "
            f"overall {peak['overall'].upper()} — since recovered):"
        )
        _render_report(peak, lines)

    alerts = snapshot["alerts"]
    if alerts:
        lines.append(f"alert log (last {min(len(alerts), TOP_ALERTS)}):")
        for alert in alerts[-TOP_ALERTS:]:
            lines.append(
                f"  t={alert['time']:>7.1f} {alert['status']:<9} "
                f"[{alert['severity']}] {alert['slo']}/{alert['pair']} "
                f"burn={alert['burn_long']:.1f}x"
            )

    _render_rollups(snapshot["rollups"], TOP_ROLLUPS, lines)

    pipelines = snapshot.get("pipelines") or {}
    if pipelines:
        lines.append("pipelines:")
        for base_id, stats in sorted(pipelines.items()):
            lines.append(
                f"  {base_id}: depth={stats.get('depth', 0)} "
                f"in_service={stats.get('in_service', 0)} "
                f"completed={stats.get('completed', 0)} "
                f"shed={stats.get('shed', 0)} failed={stats.get('failed', 0)}"
            )

    hot = snapshot.get("hot_joinpoints") or []
    if hot:
        lines.append(f"hot join points (top {min(len(hot), top)}):")
        for entry in hot[:top]:
            lines.append(
                f"  {entry['joinpoint']:<32} {entry['extension']:<18} "
                f"calls={entry['count']} mean={entry['mean'] * 1e6:.1f}us "
                f"max={entry['maximum'] * 1e6:.1f}us"
            )

    return "\n".join(lines)


# -- scenario runners -------------------------------------------------------------


def ops_storm_spec(
    seed: int = 7, drop_roamed: float = 0.4, nodes: int = 60, bases: int = 3
):
    """The seeded roaming storm the tower (and CI) replays.

    With ``drop_roamed=0.4`` and single-shot announcements this burns
    the roam-convergence SLO deterministically; with ``drop_roamed=0``
    the same seed stays green end to end.
    """
    from repro.scenarios.spec import roaming_storm

    return roaming_storm(nodes=nodes, bases=bases, seed=seed).with_overrides(
        drop_roamed=drop_roamed,
        announce_attempts=1,
        roam_sync_interval=6.0,
    )


def run_storm_ops(args: argparse.Namespace) -> dict[str, Any]:
    from repro.scenarios.harness import report_from
    from repro.scenarios.storms import StormWorld

    spec = ops_storm_spec(seed=args.seed, drop_roamed=args.drop_roamed)
    world = StormWorld(spec, dump_dir=args.dump_dir)
    profiler = world.platform.enable_profiler()
    try:
        world.run_for(spec.total_time)
        world.monitor.tick()
        world.health.tick()
        report = report_from(world)
        return tower_snapshot(
            "storm",
            world.health,
            platform=world.platform,
            profiler=profiler,
            extra={
                "seed": spec.seed,
                "drop_roamed": spec.drop_roamed,
                "violations": len(report.violations),
                "fingerprint": report.fingerprint,
            },
        )
    finally:
        world.close()


def run_load_ops(args: argparse.Namespace) -> dict[str, Any]:
    from repro.loadgen.harness import load_health_plane, run_scenario
    from repro.loadgen.scenario import Scenario

    scenario = Scenario(
        name="ops-load", clients=24, duration=30.0, warmup=5.0, seed=args.seed
    )
    # Pass our own plane so its rollups and alert log survive the run.
    plane = load_health_plane(scenario)
    report = run_scenario(scenario, health=plane)
    snapshot = tower_snapshot("load", plane, extra={"seed": scenario.seed})
    snapshot["pipelines"] = {"base": report.station}
    snapshot["throughput"] = report.stable.get("throughput")
    return snapshot


RUNNERS: dict[str, Callable[[argparse.Namespace], dict[str, Any]]] = {
    "storm": run_storm_ops,
    "load": run_load_ops,
}


def main(
    argv: list[str] | None = None, out: Callable[[str], None] = print
) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro ops",
        description="Control tower: health statuses, SLO burn, hot join "
        "points, pipelines — over a seeded scenario.",
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        default="storm",
        choices=sorted(RUNNERS),
        help="scenario to run under the tower (default: storm)",
    )
    parser.add_argument("--seed", type=int, default=7, help="scenario seed")
    parser.add_argument(
        "--drop-roamed",
        type=float,
        default=0.4,
        metavar="F",
        help="storm only: ROAMED announcement drop fraction (0 = clean run)",
    )
    parser.add_argument(
        "--dump-dir",
        metavar="DIR",
        help="storm only: flight-ring auto-dump directory for slo.burn events",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=TOP_JOINPOINTS,
        metavar="N",
        help="hot join points to show",
    )
    parser.add_argument("--json", action="store_true", help="emit the snapshot as JSON")
    parser.add_argument(
        "--expect",
        choices=("healthy", "burning"),
        help="exit 2 unless the run verdict matches (CI replay gate)",
    )
    args = parser.parse_args(argv)

    snapshot = RUNNERS[args.scenario](args)
    if args.json:
        out(json.dumps(snapshot, indent=2, sort_keys=True, default=str))
    else:
        out(render_tower(snapshot, top=args.top))
    if args.expect is not None and snapshot["verdict"] != args.expect:
        out(
            f"EXPECTATION FAILED: wanted {args.expect}, "
            f"run verdict was {snapshot['verdict']}"
        )
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
