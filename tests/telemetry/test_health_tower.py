"""The control tower: snapshot shape, rendering, and the CLI gate."""

from __future__ import annotations

import json

import pytest

from repro.telemetry.health import (
    BurnPair,
    CounterRatioSLI,
    HealthPlane,
    RollupRule,
    SLO,
)
from repro.telemetry.health.tower import (
    main,
    ops_storm_spec,
    render_tower,
    tower_snapshot,
)

ONE_PAIR = (BurnPair("only", long_window=10.0, short_window=10.0, threshold=2.0),)


def _plane(burning: bool) -> HealthPlane:
    plane = HealthPlane(
        slos=[
            SLO(
                "renewals",
                "midas",
                target=0.9,
                sli=CounterRatioSLI(
                    good=("midas.renewals",), bad=("midas.failures",)
                ),
                pairs=ONE_PAIR,
                min_samples=1,
            )
        ],
        rules=[RollupRule("rate", "midas.*", "rate", window=10.0)],
    )
    metric = "midas.failures" if burning else "midas.renewals"
    for t in range(4):
        plane.ingest_count(float(t), metric, 1.0, node="n1")
    plane.tick()
    return plane


class TestTowerSnapshot:
    def test_healthy_snapshot_shape(self):
        snapshot = tower_snapshot("unit", _plane(burning=False))
        assert snapshot["scenario"] == "unit"
        assert snapshot["overall"] == "healthy"
        assert snapshot["verdict"] == "healthy"
        assert snapshot["burning"] == []
        assert any(r["type"] == "rollup" for r in snapshot["rollups"])

    def test_burning_verdict_is_cumulative(self, sim, registry):
        plane = _plane(burning=True)
        assert tower_snapshot("unit", plane)["verdict"] == "burning"
        # Even after recovery the *run* verdict stays burning — the
        # tower judges the run, not the final instant.
        plane.ingest_count(100.0, "midas.renewals", 50.0)
        plane.tick()
        snapshot = tower_snapshot("unit", plane)
        assert snapshot["report"]["overall"] == "healthy"
        assert snapshot["verdict"] == "burning"
        assert snapshot["peak"]["overall"] == "critical"

    def test_render_mentions_the_burn(self):
        text = render_tower(tower_snapshot("unit", _plane(burning=True)))
        assert "BURNING" in text
        assert "renewals" in text

    def test_render_healthy(self):
        text = render_tower(tower_snapshot("unit", _plane(burning=False)))
        assert "HEALTHY" in text


class TestOpsCli:
    def test_load_json_healthy(self):
        lines: list[str] = []
        code = main(["load", "--json", "--expect", "healthy"], out=lines.append)
        assert code == 0
        snapshot = json.loads("\n".join(lines))
        assert snapshot["verdict"] == "healthy"
        assert snapshot["pipelines"]["base"]["completed"] > 0

    def test_expect_mismatch_exits_2(self):
        lines: list[str] = []
        code = main(["load", "--expect", "burning"], out=lines.append)
        assert code == 2
        assert any("EXPECTATION FAILED" in line for line in lines)


class TestOpsStormSpec:
    def test_faulted_and_clean_share_everything_but_drops(self):
        faulted = ops_storm_spec(seed=7)
        clean = ops_storm_spec(seed=7, drop_roamed=0.0)
        assert faulted.drop_roamed == pytest.approx(0.4)
        assert clean.drop_roamed == 0.0
        assert faulted.seed == clean.seed
        assert faulted.announce_attempts == clean.announce_attempts == 1
