"""CLI entry-point tests."""

import pytest

from repro.__main__ import COMMANDS, SCENARIOS, main


class TestCli:
    def test_listing_without_arguments(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_every_subcommand_dispatches(self, name, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([name, "--help"])
        assert exit_info.value.code == 0
        usage = capsys.readouterr().out.splitlines()[0]
        assert usage.startswith("usage:") and f" {name} " in usage

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["not-a-scenario"])

    def test_runs_quickstart(self, capsys, monkeypatch):
        import sys
        from pathlib import Path

        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[2]))
        assert main(["quickstart"]) == 0
        assert "quickstart OK" in capsys.readouterr().out
