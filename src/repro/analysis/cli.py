"""``python -m repro lint`` — the platform lint's command line.

Exit codes follow the vetting CLI convention:

- ``0`` — clean (no gating findings);
- ``1`` — findings gate the run (errors, or warnings under ``--strict``);
- ``2`` — usage error (bad target, unreadable baseline).

``--json`` emits the full machine-readable report (the CI job uploads
it as an artifact on failure); ``--baseline`` points at an accepted-
findings file (``lint-baseline.json`` next to the first target is
auto-loaded when present); ``--write-baseline`` accepts the current
tree's findings wholesale — for bootstrapping only, justify entries by
editing the file afterwards.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.baseline import (
    DEFAULT_BASELINE_NAME,
    Baseline,
    load_baseline,
)
from repro.analysis.findings import LintResult
from repro.analysis.runner import LintConfig, run_lint


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Static analysis over the platform source tree: determinism "
            "and protocol completeness."
        ),
    )
    parser.add_argument(
        "targets",
        nargs="*",
        default=[],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the full report as JSON on stdout",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also gate on warnings (errors always gate)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help=(
            "accepted-findings file (default: lint-baseline.json next to "
            "the first target, when present)"
        ),
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        default=None,
        help="write the current findings as the new baseline and exit 0",
    )
    return parser


def _default_targets() -> list[Path]:
    here = Path.cwd()
    for candidate in (here / "src" / "repro", here / "repro"):
        if candidate.is_dir():
            return [candidate]
    return [here]


def _render_text(result: LintResult, strict: bool) -> str:
    lines = [finding.render() for finding in result.findings]
    for entry in result.stale_baseline:
        lines.append(
            f"stale baseline entry: {entry['rule']} {entry['path']} "
            f"{entry['key']!r} matched nothing (prune it)"
        )
    summary = result.as_dict()["summary"]
    verdict = "FAIL" if result.failed(strict) else "OK"
    lines.append(
        f"{verdict}: {summary['files_scanned']} files, "
        f"{summary['errors']} errors, {summary['warnings']} warnings, "
        f"{summary['info']} info, {summary['waived']} waived, "
        f"{summary['baselined']} baselined "
        f"({summary['elapsed_seconds']:.2f}s)"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    targets = [Path(t) for t in args.targets] or _default_targets()
    for target in targets:
        if not target.exists():
            print(f"repro lint: no such target: {target}", file=sys.stderr)
            return 2
    root = targets[0] if targets[0].is_dir() else targets[0].parent

    baseline = Baseline()
    if args.baseline is not None:
        baseline_path = Path(args.baseline)
        if not baseline_path.is_file():
            print(
                f"repro lint: no such baseline: {baseline_path}",
                file=sys.stderr,
            )
            return 2
        baseline = load_baseline(baseline_path)
    elif args.write_baseline is None:
        implicit = root / DEFAULT_BASELINE_NAME
        if implicit.is_file():
            baseline = load_baseline(implicit)

    config = LintConfig(root=root, targets=targets, baseline=baseline)
    result = run_lint(config)

    if args.write_baseline is not None:
        fresh = Baseline.from_findings(
            result.findings, justification="accepted at baseline creation"
        )
        fresh.save(Path(args.write_baseline))
        print(
            f"wrote {len(fresh.entries)} baseline entries to "
            f"{args.write_baseline}"
        )
        return 0

    if args.json:
        print(json.dumps(result.as_dict(), indent=2))
    else:
        print(_render_text(result, args.strict))

    # Info-only findings never gate; stale baseline entries gate under
    # --strict so the accepted set cannot silently rot.
    if result.failed(args.strict):
        return 1
    if args.strict and result.stale_baseline:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
