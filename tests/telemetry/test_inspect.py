"""The inspect view of ``python -m repro obs``: node records from the
platform summary, their flight-recorder tails, and the text rendering."""

import json

import pytest

from repro.telemetry import read_jsonl
from repro.telemetry.obs import inspect_reports, main as obs_main, render_node


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    """The demo's saved artifact: its nodes were recorded before the revoke."""
    path = tmp_path_factory.mktemp("inspect") / "demo.jsonl"
    assert obs_main(["demo", "--export", str(path)], out=lambda _: None) == 0
    return path


@pytest.fixture(scope="module")
def records(artifact):
    return read_jsonl(artifact)


def report_of(records, node_id, tail=10):
    (report,) = inspect_reports(records, node_id, tail)
    return report


class TestNodeReport:
    def test_mobile_report_shape(self, records):
        report = report_of(records, "pda-1")
        assert report["role"] == "mobile"
        assert [ext["name"] for ext in report["extensions"]] == ["call-log"]
        assert report["extensions"][0]["base"] == "hall-A"
        assert report["extensions"][0]["version"] == 1
        assert report["quarantined"] == []
        assert report["recorder_tail"]

    def test_lease_ttls_are_live(self, records):
        report = report_of(records, "pda-1")
        assert report["leases"]
        for lease in report["leases"]:
            assert lease["remaining"] > 0
            assert lease["holder"] == "hall-A"
            assert lease["renewals"] > 0

    def test_base_report_shape(self, records):
        report = report_of(records, "hall-A")
        assert report["role"] == "base"
        assert report["catalog"] == ["call-log"]
        assert report["adapted_nodes"] == ["pda-1"]
        assert report["registrations"] >= 1

    def test_unknown_node_raises(self, records):
        assert inspect_reports(records, "nope", 10) == []

    def test_report_is_json_safe(self, records):
        for report in inspect_reports(records, None, 10):
            json.dumps(report)

    def test_platform_report_lists_bases_first(self, records):
        nodes = [report["node"] for report in inspect_reports(records, None, 10)]
        assert nodes == ["hall-A", "pda-1"]

    def test_tail_is_bounded(self, records):
        report = report_of(records, "pda-1", tail=2)
        assert len(report["recorder_tail"]) == 2
        assert report_of(records, "pda-1", tail=0)["recorder_tail"] == []
        # The tail is the node's own latest flight events up to its record's
        # time, oldest first.
        flights = [
            r
            for r in records
            if r["type"] == "flight"
            and r["node"] == "pda-1"
            and r["time"] <= report["time"]
        ]
        assert report["recorder_tail"] == flights[-2:]

    def test_tail_ends_at_the_record_time(self, records):
        """The demo records its nodes before the revoke: their tails stop
        there, though the artifact holds the revoke's events too."""
        for report in inspect_reports(records, None, 100):
            assert report["recorder_tail"]
            assert all(e["time"] <= report["time"] for e in report["recorder_tail"])
        taken = report_of(records, "pda-1")["time"]
        later = [
            r
            for r in records
            if r["type"] == "flight" and r["node"] == "pda-1" and r["time"] > taken
        ]
        assert later  # the revoke reached pda-1 after its record was taken


class TestRendering:
    def test_mobile_rendering_mentions_all_sections(self, records):
        text = render_node(report_of(records, "pda-1"))
        assert "pda-1 (mobile)" in text
        assert "call-log v1 from hall-A" in text
        assert "leases:" in text
        assert "quarantined: (none)" in text
        assert "breakers:" in text
        assert "recorder tail" in text

    def test_base_rendering(self, records):
        text = render_node(report_of(records, "hall-A"))
        assert "hall-A (base)" in text
        assert "catalog: call-log" in text
        assert "adapted nodes: pda-1" in text


class TestCli:
    def test_json_output_parses(self, artifact):
        lines = []
        argv = [str(artifact), "--view", "inspect", "--node", "pda-1"]
        assert obs_main([*argv, "--format", "json"], out=lines.append) == 0
        reports = json.loads("\n".join(lines))
        assert len(reports) == 1
        assert reports[0]["node"] == "pda-1"

    def test_text_output_covers_all_nodes(self, artifact):
        lines = []
        assert obs_main([str(artifact), "--view", "inspect"], out=lines.append) == 0
        text = "\n".join(lines)
        assert "hall-A (base)" in text
        assert "pda-1 (mobile)" in text

    def test_unknown_node_errors(self, artifact):
        with pytest.raises(SystemExit) as exit_info:
            argv = [str(artifact), "--view", "inspect", "--node", "no-such-node"]
            obs_main(argv, out=lambda _: None)
        assert exit_info.value.code != 0


class TestPipelineInReport:
    def test_base_report_includes_pipeline_stats_or_none(self, records):
        report = report_of(records, "hall-A")
        assert "pipeline" in report
        pipeline = report["pipeline"]
        if pipeline is not None:
            assert {"depth", "shed", "completed"} <= set(pipeline)

    def test_rendering_shows_dispatch_mode(self, records):
        text = render_node(report_of(records, "hall-A"))
        assert "pipeline" in text  # stats line or the direct-dispatch note
