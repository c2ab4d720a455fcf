"""The lint runner: scopes, passes, waivers, baseline — one entry point.

:func:`run_lint` parses the tree once (memoized in
:mod:`repro.analysis.core`), applies each pass to its configured scope,
filters inline waivers, then filters the baseline.  Scopes mirror the
platform's determinism contract: the fingerprint-critical packages get
the determinism pass, and the protocol pass is whole-tree by
construction (its question — "does anything register this op?" — is
global).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis import determinism, protocol
from repro.analysis.baseline import Baseline
from repro.analysis.core import FileAst, TreeIndex, load_tree
from repro.analysis.findings import LintFinding, LintResult

#: Packages whose behavior feeds replay fingerprints: the simulator and
#: everything the storm fingerprints hash over.
DETERMINISM_SCOPE = (
    "repro/sim/",
    "repro/scenarios/",
    "repro/net/",
    "repro/midas/",
    "repro/discovery/",
    "repro/leasing/",
    "repro/tuplespace/",
)


@dataclass
class LintConfig:
    """What to lint and which suppressions to honor."""

    root: Path
    targets: list[Path] = field(default_factory=list)
    baseline: Baseline = field(default_factory=Baseline)
    determinism_scope: tuple[str, ...] = DETERMINISM_SCOPE


def _in_scope(rel_path: str, scope: tuple[str, ...]) -> bool:
    """Whether ``rel_path`` falls under a scope prefix.

    Scope prefixes are rooted at the ``repro`` package; rel paths vary
    with the lint root (``src`` → ``repro/net/...``, ``src/repro`` →
    ``net/...``, repo root → ``src/repro/net/...``), so match both the
    path as-is (re-anchored under ``repro/``) and by containment.
    """
    candidates = (rel_path, f"repro/{rel_path}")
    for prefix in scope:
        if any(c == prefix or c.startswith(prefix) for c in candidates):
            return True
        if f"/{prefix}" in f"/{rel_path}":
            return True
    return False


def _apply_waivers(
    files_by_path: dict[str, FileAst], findings: list[LintFinding]
) -> tuple[list[LintFinding], list[LintFinding]]:
    kept: list[LintFinding] = []
    waived: list[LintFinding] = []
    for finding in findings:
        file = files_by_path.get(finding.path)
        if file is not None and file.waived(finding.rule, finding.line):
            waived.append(finding)
        else:
            kept.append(finding)
    return kept, waived


def run_lint(config: LintConfig) -> LintResult:
    """Run every pass over the configured tree and fold in suppressions."""
    started = time.perf_counter()  # lint: allow(det.wall-clock) — tooling timer, never in a fingerprint
    tree: TreeIndex = load_tree(
        config.root, config.targets if config.targets else None
    )
    files_by_path = {file.rel_path: file for file in tree.files}

    raw: list[LintFinding] = []
    for file in tree.files:
        if _in_scope(file.rel_path, config.determinism_scope):
            raw.extend(determinism.check_file(file))
    raw.extend(protocol.check_tree(tree))

    raw.sort(key=lambda f: (f.path, f.line, f.rule, f.key))

    kept, waived = _apply_waivers(files_by_path, raw)
    kept, baselined, stale = config.baseline.partition(kept)

    return LintResult(
        findings=kept,
        waived=waived,
        baselined=baselined,
        stale_baseline=stale,
        files_scanned=len(tree.files),
        elapsed=time.perf_counter() - started,  # lint: allow(det.wall-clock) — tooling timer
    )
