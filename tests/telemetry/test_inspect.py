"""Live node inspection: structured reports and their text rendering."""

import json

import pytest

from repro.telemetry.cli import build_demo_world
from repro.telemetry.inspect import (
    main as inspect_main,
    node_report,
    platform_report,
    render_report,
)


@pytest.fixture(scope="module")
def world():
    """One demo world run far enough to have installs, leases, a tail."""
    world = build_demo_world(telemetry=True, supervised=True)
    try:
        world.platform.run_for(6.0)
        thermostat = world.thermostat_cls()
        thermostat.set_target(20.0)
        world.platform.run_for(5.0)
        yield world
    finally:
        world.platform.disable_telemetry()


class TestNodeReport:
    def test_mobile_report_shape(self, world):
        report = node_report(world.platform, "pda-1")
        assert report["role"] == "mobile"
        assert [ext["name"] for ext in report["extensions"]] == ["call-log"]
        assert report["extensions"][0]["base"] == "hall-A"
        assert report["quarantined"] == []
        assert report["recorder_tail"]

    def test_lease_ttls_are_live(self, world):
        report = node_report(world.platform, "pda-1")
        assert report["leases"]
        for lease in report["leases"]:
            assert lease["remaining"] > 0
            assert lease["holder"] == "hall-A"

    def test_base_report_shape(self, world):
        report = node_report(world.platform, "hall-A")
        assert report["role"] == "base"
        assert report["catalog"] == ["call-log"]
        assert report["adapted_nodes"] == ["pda-1"]
        assert report["registrations"] >= 1

    def test_unknown_node_raises(self, world):
        with pytest.raises(KeyError):
            node_report(world.platform, "nope")

    def test_report_is_json_safe(self, world):
        for report in platform_report(world.platform):
            json.dumps(report)

    def test_platform_report_lists_bases_first(self, world):
        nodes = [report["node"] for report in platform_report(world.platform)]
        assert nodes == ["hall-A", "pda-1"]

    def test_tail_is_bounded(self, world):
        report = node_report(world.platform, "pda-1", tail=2)
        assert len(report["recorder_tail"]) == 2


class TestRendering:
    def test_mobile_rendering_mentions_all_sections(self, world):
        text = render_report(node_report(world.platform, "pda-1"))
        assert "pda-1 (mobile)" in text
        assert "call-log v1 from hall-A" in text
        assert "leases:" in text
        assert "quarantined: (none)" in text
        assert "recorder tail" in text

    def test_base_rendering(self, world):
        text = render_report(node_report(world.platform, "hall-A"))
        assert "hall-A (base)" in text
        assert "catalog: call-log" in text
        assert "adapted nodes: pda-1" in text


class TestCli:
    def test_json_output_parses(self):
        lines = []
        assert inspect_main(["--json", "pda-1"], out=lines.append) == 0
        reports = json.loads("\n".join(lines))
        assert len(reports) == 1
        assert reports[0]["node"] == "pda-1"

    def test_text_output_covers_all_nodes(self):
        lines = []
        assert inspect_main([], out=lines.append) == 0
        text = "\n".join(lines)
        assert "hall-A (base)" in text
        assert "pda-1 (mobile)" in text

    def test_unknown_node_errors(self):
        with pytest.raises(SystemExit):
            inspect_main(["no-such-node"], out=lambda _: None)


class TestPipelineInReport:
    def test_base_report_includes_pipeline_stats_or_none(self, world):
        report = node_report(world.platform, "hall-A")
        assert "pipeline" in report
        pipeline = report["pipeline"]
        if pipeline is not None:
            assert {"depth", "shed", "completed"} <= set(pipeline)

    def test_rendering_shows_dispatch_mode(self, world):
        text = render_report(node_report(world.platform, "hall-A"))
        assert "pipeline" in text  # stats line or the direct-dispatch note

