"""Shared benchmark helpers.

Benchmarks measure two different things and label them clearly:

- *wall time* (what pytest-benchmark reports) — the real cost of running
  the scenario on this machine;
- *simulated time / derived metrics* — protocol latencies inside the
  discrete-event world and paper-comparison ratios, attached to each
  benchmark via ``benchmark.extra_info`` and summarized in
  EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Callable

import pytest

# Make the test-suite support module importable from benchmarks too.
REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from repro.aop.vm import ProseVM  # noqa: E402


def append_bench_row(name: str, row: dict) -> Path:
    """Append one machine-readable trajectory row to ``BENCH_<name>.json``.

    The file at the repo root holds a JSON list of rows, one per recorded
    run, so derived metrics can be tracked across commits without
    scraping pytest-benchmark output.  Rows should contain only
    deterministic, simulation-derived numbers (plus explicit context like
    a git revision if the caller wants it) — not wall-clock noise.  A row
    equal to the file's last row is not appended again, so re-running a
    benchmark on an unchanged tree does not repeat its row.
    """
    path = REPO_ROOT / f"BENCH_{name}.json"
    rows = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    row = json.loads(json.dumps(row))  # the form it takes in the file
    if rows and rows[-1] == row:
        return path
    rows.append(row)
    path.write_text(
        json.dumps(rows, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def per_call_seconds(fn: Callable[[], object], calls: int) -> float:
    """Mean wall seconds per call of ``fn`` over ``calls`` calls, after
    one warm-up call."""
    fn()
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) / calls


def interleaved_min(trials: int, *measures: Callable[[], float]) -> list[float]:
    """The least of ``trials`` readings of each measure, taken in turn.

    Each trial reads every measure once, back to back, so drift on a
    CPU-contended box (CI) reaches all sides alike instead of biasing
    whichever side runs in the later block; the minimum is the
    least-noisy estimate of each side's true cost.
    """
    readings: list[list[float]] = [[] for _ in measures]
    for _ in range(trials):
        for reading, measure in zip(readings, measures):
            reading.append(measure())
    return [min(reading) for reading in readings]


@pytest.fixture
def bench_trajectory():
    """Fixture handle on :func:`append_bench_row` for benchmark modules."""
    return append_bench_row


@pytest.fixture
def vm():
    """A VM that restores every class it instrumented at teardown."""
    machine = ProseVM()
    yield machine
    for cls in list(machine.loaded_classes):
        machine.unload_class(cls)
