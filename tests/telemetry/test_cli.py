"""``python -m repro obs`` over the demo: the traced lifecycle, the
summary formats and the profile view, live and from a saved artifact."""

import json

from repro.__main__ import main as repro_main
from repro.telemetry import read_jsonl, runtime
from repro.telemetry.obs import main


def _run(argv: list[str]) -> str:
    lines: list[str] = []
    assert main(argv, out=lines.append) == 0
    return "\n".join(lines)


class TestDemo:
    def test_demo_produces_single_trace_and_restores_recorder(self, tmp_path):
        path = tmp_path / "demo.jsonl"
        text = _run(["demo", "--export", str(path)])
        midas = [
            record
            for record in read_jsonl(path)
            if record["type"] == "span" and record["name"].startswith("midas.")
        ]
        assert len(midas) == 12
        assert len({span["trace_id"] for span in midas}) == 1
        assert not runtime.enabled()  # recorder restored on exit
        assert "traces: 1" in text

    def test_demo_export_round_trips_through_summary(self, tmp_path, capsys):
        path = tmp_path / "demo.jsonl"
        assert main(["demo", "--export", str(path)]) == 0
        live = capsys.readouterr().out
        assert main([str(path)]) == 0
        saved = capsys.readouterr().out
        assert "midas.offer" in saved
        assert "traces: 1" in saved
        assert saved == live

    def test_bare_invocation_defaults_to_demo(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert out.startswith("telemetry summary")
        assert "traces: 1" in out


class TestJsonSummary:
    def test_summary_format_json_is_machine_readable(self, tmp_path):
        path = tmp_path / "demo.jsonl"
        _run(["demo", "--export", str(path)])
        summary = json.loads(_run([str(path), "--format", "json"]))
        assert summary["spans"]["traces"] == 1
        assert summary["events"]["total"] > 0
        assert summary["flight"]["total"] > 0
        assert set(summary["flight"]["by_node"]) == {"hall-A", "pda-1"}
        assert summary["malformed_lines"] == 0

    def test_malformed_lines_surface_in_json_summary(self, tmp_path):
        path = tmp_path / "demo.jsonl"
        _run(["demo", "--export", str(path)])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{broken\n")
        summary = json.loads(_run([str(path), "--format", "json"]))
        assert summary["malformed_lines"] == 1


class TestProfile:
    def test_run_profile_reports_demo_joinpoints(self, tmp_path):
        path = tmp_path / "demo.jsonl"
        _run(["demo", "--export", str(path)])
        entries = json.loads(_run([str(path), "--view", "profile", "--format", "json"]))
        profiled = {
            (entry["joinpoint"], entry["extension"])
            for entry in entries
            if entry["type"] == "profile"
        }
        assert profiled == {
            ("Thermostat.set_target", "CallLogging"),
            ("Thermostat.__init__", "CallLogging"),
        }
        report = _run([str(path), "--view", "profile"])
        assert "Thermostat.set_target" in report
        assert "weave cost" in report
        assert not runtime.enabled()

    def test_profile_subcommand(self):
        assert "join-point profile" in _run(["--view", "profile"])


class TestMainDelegation:
    def test_repro_main_routes_telemetry(self, capsys):
        assert repro_main(["obs", "demo", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["spans"]["traces"] == 1

    def test_repro_main_routes_inspect(self, capsys):
        assert repro_main(["obs", "--view", "inspect", "--node", "pda-1"]) == 0
        assert "pda-1 (mobile)" in capsys.readouterr().out
