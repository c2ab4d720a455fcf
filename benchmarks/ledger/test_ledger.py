"""Self-tests of the ledger benchmark.

Run from the repository root: ``PYTHONPATH=src python -m pytest benchmarks/ledger``.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from ledger import layers, run  # noqa: E402
from ledger.workloads import (  # noqa: E402
    GateFailure,
    Meter,
    RoamStorm,
    WorkloadSuite,
    check_storms,
    check_witnesses,
)
from repro.scenarios import StormWorld, plant_dual_home  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def invoke(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300, check=False,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """All four workloads, two repetitions each and a traced twin."""
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    done = invoke("--smoke", "--trace", "1", "--out", str(out))
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines(), json.loads(out.read_text())


def test_spec_shape():
    assert list(SPEC) == [
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    ]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert SPEC["paths"] == ["benchmarks/ledger"]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": max(m["bound"] for m in SPEC["end_to_end"])}


def test_smoke_emits_every_metric_with_its_unit(smoke):
    lines, results = smoke
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    for workload in run.WORKLOAD_NAMES:
        for metric in SPEC["per_layer"]:
            got = result["metrics"][f"{workload}.{metric['name']}"]
            assert got["unit"] == metric["unit"]
        for metric in SPEC["end_to_end"]:
            row = results["summary"][workload][metric["name"]]
            assert row["unit"] == metric["unit"] and row["median"] > 0
            assert any(line.split()[:1] == [metric["name"]] for line in lines)


def test_trace_covers_the_traced_wall(smoke):
    _, results = smoke
    for workload in run.WORKLOAD_NAMES:
        assert results["layers"][workload]["trace.coverage"] >= 0.95
        assert results["layers"][workload]["trace.overhead"] > 0


def test_untraced_entry_points_lower_trace_coverage(monkeypatch):
    full = run.measure("policy_churn", 1, SPEC["run_seconds"], True, True)
    # Plant untraced code: the simulator's loop, events and callbacks.
    kept = {key: layer for key, layer in layers.TABLE.items()
            if not key.startswith("repro.sim.kernel:")}
    monkeypatch.setattr(layers, "TABLE", kept)
    planted = run.measure("policy_churn", 1, SPEC["run_seconds"], True, True)
    assert full["layers"]["trace.coverage"] >= 0.95
    assert planted["layers"]["trace.coverage"] < 0.9


def test_two_smoke_runs_agree_on_virtual_time(smoke):
    _, results = smoke
    for workload in run.WORKLOAD_NAMES:
        runs = [r for r in results["runs"] if r["workload"] == workload]
        assert len(runs) == 3  # 2 untraced, 1 traced
        assert all(r["virtual"] == runs[0]["virtual"] for r in runs)


def test_policy_churn_records_unvetted_replacements(smoke):
    _, results = smoke
    layers = results["layers"]["policy_churn"]
    assert layers["vetting.unvetted_installs"] == layers["midas.installs"] > 0


def test_planted_wrong_witness_fails_the_gate(monkeypatch):
    with pytest.raises(GateFailure):
        check_witnesses({"plain": 7, "hooked": 7, "advised": 8})
    drifting = itertools.count()
    monkeypatch.setattr(WorkloadSuite, "run_once", lambda self: next(drifting))
    assert run.main(["--worker", "app_calls", "--smoke"]) == 1


def test_planted_dual_home_fails_the_gate():
    storm = RoamStorm(seed=1, seconds=SPEC["run_seconds"], smoke=True)
    spec = storm.specs[0]
    world = StormWorld(spec)
    plant_dual_home(world, "storm-0000", at=spec.storm_start + 2.0)
    _, report, _ = storm.storm(Meter(), spec, world)
    with pytest.raises(GateFailure):
        check_storms([report])


def test_compare_verdicts():
    parent = [100.0 + i % 3 for i in range(10)]
    assert run.verdict(parent, [x * 1.2 for x in parent], "higher", 0.1) == "improved"
    assert run.verdict(parent, [x * 0.8 for x in parent], "higher", 0.1) == "regressed"
    noisy = [50.0, 150.0] * 5
    assert run.verdict(noisy, noisy[::-1], "higher", 0.1) == "unresolved"
    assert run.verdict(parent, parent, "higher", 0.1) == "within bound"
    # Unbounded (information) metrics: a consistent loss, or no verdict.
    assert run.verdict(parent, [x * 0.8 for x in parent], "higher", None) == "regressed"
    assert run.verdict(parent, parent, "higher", None) == "unresolved"


def test_compare_exact_verdicts():
    parent = [(1, 11.3), (1, 11.3), (2, 12.0)]
    assert run.exact_verdict(parent, [(1, 10.0), (2, 12.0)], "lower") == "improved"
    assert run.exact_verdict(parent, [(1, 11.3), (2, 12.5)], "lower") == "regressed"
    assert run.exact_verdict(parent, [(2, 12.0), (2, 12.0)], "lower") == "same"
    assert run.exact_verdict(parent, [(1, 10.0), (2, 12.5)], "lower") == "mixed"
    assert run.exact_verdict(parent, [(1, 10.0), (1, 10.5)], "lower") == "nondeterministic"


def test_compare_fails_only_on_gated_regressions(tmp_path):
    def results(name: str, ops_per_ref: float, adapt_p99_ms: float) -> str:
        runs = [{"workload": "hall_lifecycle", "seed": seed, "rep": 0, "traced": False,
                 "setup_s": 0.05, "ops_per_ref": ops_per_ref, "peak_rss_mb": 56.0,
                 "ops_per_s": 900.0, "attempted": 1200, "failed": 0,
                 "virtual": {"adapt_p99_ms": adapt_p99_ms}, "wall": {}}
                for seed in range(10)]
        path = tmp_path / name
        path.write_text(json.dumps({"runs": runs}))
        return str(path)

    parent = results("parent.json", 0.031, 11.3)
    assert run.compare(parent, results("faster.json", 0.031, 10.0)) == 0
    assert run.compare(parent, results("slower.json", 0.031, 12.0)) == 0
    assert run.compare(parent, results("fewer.json", 0.02, 11.3)) == 1


def test_seconds_must_match_the_spec():
    assert run.main(["--seconds", str(SPEC["run_seconds"] + 1), "--smoke"]) == 2


def test_reps_must_replay():
    with pytest.raises(SystemExit):
        run.parse(["--reps", "1"])


def test_fails_without_the_platform_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = invoke("--workload", "app_calls", "--seed", "1",
                  "--seconds", str(SPEC["run_seconds"]), "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
