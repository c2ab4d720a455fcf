"""The acceptance gate: the platform's own tree lints clean.

These tests are the CI lint job in miniature — they run the exact
configuration ``python -m repro lint --strict src/repro`` uses and pin
the tree at zero errors and zero warnings.  A regression in any linted
property (a new wall-clock read in ``sim/``, an unguarded request, a
typo'd op) fails here before it fails in CI.
"""

from __future__ import annotations

from repro.analysis import findings as F
from repro.analysis.baseline import DEFAULT_BASELINE_NAME, load_baseline
from repro.analysis.runner import LintConfig, run_lint


def _real_result(repo_src):
    baseline = load_baseline(repo_src / DEFAULT_BASELINE_NAME)
    return run_lint(
        LintConfig(root=repo_src, targets=[repo_src], baseline=baseline)
    )


class TestRealTree:
    def test_strict_clean(self, repo_src):
        result = _real_result(repo_src)
        rendered = "\n".join(f.render() for f in result.findings)
        assert result.errors() == [], rendered
        assert result.warnings() == [], rendered

    def test_no_stale_baseline_entries(self, repo_src):
        result = _real_result(repo_src)
        assert result.stale_baseline == [], result.stale_baseline

    def test_scans_the_whole_tree(self, repo_src):
        result = _real_result(repo_src)
        assert result.files_scanned > 100

    def test_every_request_is_guarded(self, repo_src):
        """Regression for the fix sweep: no request path in the tree may
        lose a timeout silently (discovery cancels, tuplespace
        renew/retract/listen, fleet tree and population sends, store
        client queries, loadgen registration were all fixed)."""
        result = _real_result(repo_src)
        unguarded = [
            f for f in result.findings + result.baselined
            if f.rule == F.RULE_UNGUARDED_REQUEST
        ]
        assert unguarded == []

    def test_no_op_is_sent_in_mixed_modes(self, repo_src):
        """Every op is either requested or notified, never both — not
        even behind a waiver or a baseline entry (ROAMED is only ever an
        acknowledged request)."""
        result = _real_result(repo_src)
        mixed = [
            f for f in result.findings + result.waived + result.baselined
            if f.rule == F.RULE_MIXED_SEND_MODES
        ]
        assert mixed == []

    def test_dynamic_ops_are_baselined_with_justifications(self, repo_src):
        baseline = load_baseline(repo_src / DEFAULT_BASELINE_NAME)
        assert baseline.entries, "expected checked-in lint-baseline.json"
        for entry in baseline.entries.values():
            assert entry["rule"] == F.RULE_DYNAMIC_OP
            assert len(entry["justification"]) > 10
