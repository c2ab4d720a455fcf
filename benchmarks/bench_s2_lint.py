"""S2 — full-tree lint cost: cold parse and warm memoized-AST runs.

The issue's gate: one full ``python -m repro lint`` pass over
``src/repro`` must finish in **under 10 seconds cold** — parsing every
file, building the tree index, and running both passes from empty
caches — or the CI lint job becomes the slowest thing in the pipeline.
The warm number pins the value of the memoized AST cache: a second run
over an unchanged tree re-parses nothing (file entries key on
``(mtime, size)``), so it should be a large multiple faster than cold.

Both numbers are wall time, reported via pytest-benchmark; the
deterministic row appended to ``BENCH_lint.json`` carries only
scan-shape facts (files scanned, findings by bucket), not raw seconds.
Run standalone::

    PYTHONPATH=src python -m pytest benchmarks/bench_s2_lint.py
"""

import time
from pathlib import Path

import pytest

from repro.analysis.baseline import DEFAULT_BASELINE_NAME, load_baseline
from repro.analysis.core import clear_ast_caches
from repro.analysis.runner import LintConfig, run_lint

#: The issue's ceiling for one cold full-tree lint.
COLD_BUDGET_SECONDS = 10.0

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_TREE = REPO_ROOT / "src" / "repro"


def _config() -> LintConfig:
    return LintConfig(
        root=SRC_TREE,
        targets=[SRC_TREE],
        baseline=load_baseline(SRC_TREE / DEFAULT_BASELINE_NAME),
    )


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_ast_caches()
    yield
    clear_ast_caches()


def test_cold_full_tree_lint_under_budget(benchmark, bench_trajectory):
    def cold_run():
        clear_ast_caches()
        return run_lint(_config())

    result = benchmark(cold_run)

    # The tree the gate protects must itself be clean.
    assert result.errors() == []
    assert result.warnings() == []
    assert result.files_scanned > 100

    # Gate on a directly measured run, not the benchmark statistics, so
    # a pathological first iteration cannot hide behind the median.
    clear_ast_caches()
    start = time.perf_counter()
    cold = run_lint(_config())
    cold_seconds = time.perf_counter() - start
    assert cold_seconds < COLD_BUDGET_SECONDS, (
        f"cold full-tree lint took {cold_seconds:.2f}s "
        f"(budget {COLD_BUDGET_SECONDS}s)"
    )

    # Warm runs hit the memoized AST cache: same results, no re-parse.
    start = time.perf_counter()
    warm = run_lint(_config())
    warm_seconds = time.perf_counter() - start
    assert warm.files_scanned == cold.files_scanned
    assert [f.fingerprint() for f in warm.findings] == [
        f.fingerprint() for f in cold.findings
    ]
    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")

    benchmark.extra_info["files_scanned"] = cold.files_scanned
    benchmark.extra_info["cold_seconds"] = round(cold_seconds, 4)
    benchmark.extra_info["warm_seconds"] = round(warm_seconds, 4)
    benchmark.extra_info["warm_speedup"] = round(speedup, 1)

    bench_trajectory(
        "lint",
        {
            "benchmark": "s2_lint",
            "files_scanned": cold.files_scanned,
            "errors": len(cold.errors()),
            "warnings": len(cold.warnings()),
            "waived": len(cold.waived),
            "baselined": len(cold.baselined),
        },
    )


def test_warm_lint_reuses_parsed_files(benchmark):
    run_lint(_config())  # prime the cache

    result = benchmark(lambda: run_lint(_config()))
    assert result.errors() == []
    assert result.warnings() == []
