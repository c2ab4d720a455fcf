"""Acceptance: a seeded storm that drops 40% of ROAMED announcements
must deterministically burn the roaming SLOs — page alert, cause chain
naming a node, flight-ring dump on disk — while the same seed with the
drops turned off stays green end to end."""

from __future__ import annotations

import pytest

from repro.scenarios.harness import run_storm
from repro.scenarios.spec import ops_storm_spec

#: Small enough for the suite (~0.5s a run), large enough that the
#: faulted seed has been verified to fire both roaming SLOs.
NODES = 40


def _spec(drop_roamed: float):
    return ops_storm_spec(seed=7, drop_roamed=drop_roamed, nodes=NODES, bases=3)


@pytest.fixture(scope="module")
def faulted_report(tmp_path_factory):
    dump_dir = tmp_path_factory.mktemp("flight-dumps")
    report = run_storm(_spec(drop_roamed=0.4), dump_dir=str(dump_dir))
    return report, dump_dir


class TestFaultedStormBurns:
    def test_convergence_slo_fires_a_page(self, faulted_report):
        report, _ = faulted_report
        firing = [
            a for a in report.health["alerts"] if a["status"] == "firing"
        ]
        fired = {(a["slo"], a["severity"]) for a in firing}
        assert ("roam-convergence", "page") in fired
        assert ("roam-delivery", "page") in fired
        # The slow (ticket) pairs corroborate: sustained, not a blip.
        assert {"ticket"} <= {a["severity"] for a in firing}

    def test_peak_report_carries_cause_chain(self, faulted_report):
        report, _ = faulted_report
        peak = report.health["peak"]
        assert peak["overall"] == "critical"
        assert peak["subsystems"]["roaming"] == "critical"
        burns = [
            c
            for c in peak["conditions"]
            if c.get("cause", {}).get("kind") == "slo.burn"
        ]
        assert burns, "peak incident must explain itself with slo.burn causes"
        # At least one chain bottoms out in a blamed sample.
        samples = [
            sub
            for c in burns
            for sub in c["cause"].get("causes", ())
            if sub["kind"] == "sample"
        ]
        assert samples and any(
            sub["subject"].startswith("storm-") for sub in samples
        )

    def test_burn_alert_dumped_a_flight_ring(self, faulted_report):
        from repro.telemetry.recorder import read_flight_jsonl

        _, dump_dir = faulted_report
        dumps = sorted(dump_dir.glob("flight-*.jsonl"))
        assert dumps, "slo.burn must auto-dump the blamed node's ring"
        kinds = {
            event.kind for path in dumps for event in read_flight_jsonl(path)
        }
        assert "slo.burn" in kinds

    def test_faulted_run_is_deterministic(self, faulted_report):
        report, _ = faulted_report
        twin = run_storm(_spec(drop_roamed=0.4))
        assert twin.fingerprint == report.fingerprint
        edges = lambda r: [
            (a["slo"], a["pair"], a["status"], round(a["time"], 6))
            for a in r.health["alerts"]
        ]
        assert edges(twin) == edges(report)


class TestCleanTwinStaysGreen:
    @pytest.fixture(scope="class")
    def clean_report(self):
        return run_storm(_spec(drop_roamed=0.0))

    def test_no_alert_ever_fires(self, clean_report):
        assert clean_report.clean
        assert clean_report.health["alerts"] == []
        assert "peak" not in clean_report.health

    def test_overall_healthy(self, clean_report):
        assert clean_report.health["overall"] == "healthy"
        assert clean_report.health["subsystems"]["roaming"] == "healthy"

    def test_slos_still_measured(self, clean_report):
        slos = {s["name"]: s for s in clean_report.health["slos"]}
        assert set(slos) == {"roam-convergence", "roam-delivery"}
        # Green means "observed and passing", not "never sampled".
        assert slos["roam-delivery"]["good_total"] > 0
        assert slos["roam-convergence"]["good_total"] > 0
