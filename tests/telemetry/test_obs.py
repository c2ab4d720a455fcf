"""``python -m repro obs``: one artifact, rendered alike live and saved.

The run artifact is the list of records a live run exports; a saved
one is that list read back with :func:`read_jsonl`.  Every view must
render the same from both, in text and in JSON.
"""

from __future__ import annotations

import json

import pytest

from repro.core.platform import ProactivePlatform
from repro.net.geometry import Position
from repro.resilience import RetryPolicy
from repro.scenarios import spec as storm_specs
from repro.scenarios.storms import StormWorld
from repro.supervision import SupervisionPolicy
from repro.telemetry import obs, read_jsonl
from repro.telemetry.obs import VIEWS, main, storm_records

from tests.support import TraceAspect, export_artifacts, fresh_class

#: (source, views that render for it): the demo has no health plane,
#: so no tower.
SOURCES = (
    ("demo", ("summary", "inspect", "profile")),
    ("storm", VIEWS),
    ("load", VIEWS),
)


@pytest.fixture
def small_storm(monkeypatch):
    """``obs storm`` at 16 nodes and 2 bases, same seed and faults."""
    preset = storm_specs.ops_storm_spec
    monkeypatch.setattr(
        storm_specs,
        "ops_storm_spec",
        lambda seed, drop_roamed: preset(seed, drop_roamed, nodes=16, bases=2),
    )


def _render(argv: list[str]) -> tuple[int, str]:
    lines: list[str] = []
    code = main(argv, out=lines.append)
    return code, "\n".join(lines)


@pytest.mark.parametrize("fmt", ("text", "json"))
@pytest.mark.parametrize(
    "source,view", [(source, view) for source, views in SOURCES for view in views]
)
def test_every_view_renders_alike_live_and_saved(
    source, view, fmt, tmp_path, small_storm
):
    path = tmp_path / f"{source}.jsonl"
    args = ["--view", view, "--format", fmt]
    live = _render([source, *args, "--export", str(path)])
    saved = _render([str(path), *args])
    assert live == saved
    assert live[0] == 0 and live[1]
    if fmt == "json":
        json.loads(live[1])


def test_saved_artifact_holds_one_of_each_new_record(tmp_path, small_storm):
    path = tmp_path / "storm.jsonl"
    assert _render(["storm", "--export", str(path)])[0] == 0
    records = read_jsonl(path)
    kinds = [record["type"] for record in records]
    assert kinds.count("run") == kinds.count("health") == 1
    assert kinds.count("node") == 2  # one per base; storm nodes are stubs
    assert {"meta", "counter", "event", "span", "flight"} <= set(kinds)
    assert {"rollup", "slo", "slo_alert"} <= set(kinds)
    (run,) = [record for record in records if record["type"] == "run"]
    spec = storm_specs.StormSpec.from_json(run["spec"])
    assert (spec.nodes, spec.seed, run["seed"]) == (16, 7, 7)
    assert len(run["fingerprint"]) == 64
    assert run["violations"] == []
    # One copy of the SLO snapshots and alert log: the slo and slo_alert
    # records, not the health record.
    (health,) = [record for record in records if record["type"] == "health"]
    assert set(health["report"]) == {"time", "overall", "subsystems", "conditions"}


def test_prom_with_another_view_fails_before_the_run(monkeypatch):
    def no_run(args):
        raise AssertionError("the storm ran")

    monkeypatch.setattr(obs, "_storm", no_run)
    with pytest.raises(SystemExit):
        main(["storm", "--view", "tower", "--format", "prom"], out=lambda _: None)


def test_prom_renders_the_summary_of_a_health_artifact(tmp_path, small_storm):
    path = tmp_path / "storm.jsonl"
    assert _render(["storm", "--view", "summary", "--export", str(path)])[0] == 0
    code, text = _render([str(path), "--format", "prom"])
    assert code == 0 and "# TYPE" in text


def test_plain_telemetry_exports_still_load(tmp_path):
    """An export with registry records only: the summary view is the
    default and the only one with content."""
    from repro.telemetry import MetricsRegistry, write_jsonl

    registry = MetricsRegistry()
    registry.count("midas.renewals", node="n1")
    path = tmp_path / "plain.jsonl"
    write_jsonl(registry, path)
    code, text = _render([str(path)])
    assert code == 0 and "midas.renewals{node=n1} = 1" in text
    assert _render([str(path), "--view", "inspect"]) == (0, "(no node records)")
    with pytest.raises(SystemExit):
        _render([str(path), "--view", "tower"])


def test_failure_artifact_renders_without_a_rerun(tmp_path, monkeypatch):
    """What a red scenarios job uploads: one file every view reads."""
    monkeypatch.setenv("REPRO_ARTIFACTS_DIR", str(tmp_path))
    spec = storm_specs.ops_storm_spec(nodes=12, bases=2)
    world = StormWorld(spec)
    try:
        world.run_for(spec.total_time)
        path = export_artifacts("storm", lambda: storm_records(world))
    finally:
        world.close()
    assert path == tmp_path / "storm.jsonl"
    for view in ("summary", "inspect", "tower"):
        code, text = _render([str(path), "--view", view])
        assert code == 0 and text


class TestPlatformSummary:
    """``ProactivePlatform.summary()`` carries the whole node report."""

    @pytest.fixture
    def summary(self):
        platform = ProactivePlatform(
            supervision=SupervisionPolicy(), retry_policy=RetryPolicy(max_attempts=2)
        )
        hall = platform.create_base_station("hall", Position(0, 0))
        hall.add_extension("trace", lambda: TraceAspect(type_pattern="Engine"))
        robot = platform.create_mobile_node("robot", Position(5, 0))
        cls = fresh_class()
        robot.load_class(cls)
        try:
            platform.run_for(8.0)
            cls().start()
            return platform.summary()
        finally:
            robot.vm.unload_class(cls)

    def test_mobile_fields(self, summary):
        robot = summary["mobile_nodes"]["robot"]
        (ext,) = robot["extensions"]
        assert (ext["name"], ext["version"], ext["base"]) == ("trace", 1, "hall")
        assert ext["lease_id"]
        (lease,) = robot["leases"]
        assert (lease["resource"], lease["holder"]) == ("trace", "hall")
        assert 0 < lease["remaining"] <= 10.0 and lease["renewals"] >= 1
        assert [b["peer"] for b in robot["breakers"]] == ["hall"]
        assert robot["breakers"][0]["state"] == "closed"
        assert robot["quarantined"] == []
        assert robot["interceptions"] >= 1

    def test_base_fields(self, summary):
        hall = summary["base_stations"]["hall"]
        assert hall["catalog"] == ["trace"] and hall["adapted_nodes"] == ["robot"]
        assert hall["pipeline"] is None  # inline dispatch, no accept queue
        assert [b["peer"] for b in hall["breakers"]] == ["robot"]
        assert hall["registrations"] >= 1

    def test_is_plain_json(self, summary):
        assert json.loads(json.dumps(summary))["time"] == summary["time"]

    def test_node_records_are_summary_entries(self):
        platform = ProactivePlatform()
        platform.create_base_station("b", Position(0, 0))
        platform.create_mobile_node("m", Position(5, 0))
        platform.create_base_station("a", Position(0, 5))
        platform.run_for(1.0)
        records = platform.to_records()
        assert [(r["node"], r["role"]) for r in records] == [
            ("a", "base"),
            ("b", "base"),
            ("m", "mobile"),
        ]
        summary = platform.summary()
        for record in records:
            key = "base_stations" if record["role"] == "base" else "mobile_nodes"
            entry = {k: v for k, v in record.items() if k not in ("type", "node", "role")}
            assert entry == {"time": 1.0, **summary[key][record["node"]]}
