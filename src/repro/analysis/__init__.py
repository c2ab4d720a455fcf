"""Platform static analysis: determinism and protocol lints.

Run as ``python -m repro lint``.  Two passes over the platform's own
source tree, sharing one memoized AST core with :mod:`repro.vetting`:

- :mod:`repro.analysis.determinism` — wall clocks, unseeded randomness,
  ambient entropy, unstable hashes and unordered set iteration inside
  fingerprint-critical modules;
- :mod:`repro.analysis.protocol` — every sent transport op
  cross-referenced against registered handlers, plus unguarded request
  paths and mixed send modes.

Suppression is two-tier: inline ``# lint: allow(rule) — why`` waivers
for sanctioned sites, and a checked-in ``lint-baseline.json`` for
accepted findings (matched line-independently).  See ``docs/lint.md``.
"""

from repro.analysis.baseline import Baseline, load_baseline
from repro.analysis.core import (
    FileAst,
    TreeIndex,
    clear_ast_caches,
    load_file,
    load_tree,
)
from repro.analysis.findings import (
    ERROR,
    INFO,
    RULES,
    WARNING,
    LintFinding,
    LintResult,
)
from repro.analysis.runner import (
    DETERMINISM_SCOPE,
    LintConfig,
    run_lint,
)

__all__ = [
    "Baseline",
    "DETERMINISM_SCOPE",
    "ERROR",
    "FileAst",
    "INFO",
    "LintConfig",
    "LintFinding",
    "LintResult",
    "RULES",
    "TreeIndex",
    "WARNING",
    "clear_ast_caches",
    "load_baseline",
    "load_file",
    "load_tree",
    "run_lint",
]
