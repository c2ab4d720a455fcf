"""The platform lint's finding model and rule registry.

A :class:`LintFinding` is file-anchored (path, line) rather than
class-anchored like :class:`repro.vetting.report.Finding` — platform
lints walk source *trees*, not live aspect classes.  Each finding also
carries a ``key``: a line-number-independent identity (rule + path +
the symbol or expression at fault) that the baseline file matches on,
so accepted findings survive unrelated edits that shift line numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Severity levels, in increasing order of consequence (mirrors
#: :mod:`repro.vetting.report`, kept separate so the analysis core does
#: not depend on the vetting data model).
INFO = "info"
WARNING = "warning"
ERROR = "error"

SEVERITIES = (INFO, WARNING, ERROR)

# -- determinism rules ------------------------------------------------------

#: Wall-clock read (``time.time``, ``datetime.now``, ``perf_counter``,
#: ...) inside a fingerprint-critical module.
RULE_WALL_CLOCK = "det.wall-clock"
#: Module-level ``random.*`` call (process-global, unseeded stream) or a
#: ``random.Random()`` constructed without a seed.
RULE_UNSEEDED_RANDOM = "det.unseeded-random"
#: Ambient entropy: ``uuid.uuid1/uuid4``, ``os.urandom``, ``secrets.*``.
RULE_ENTROPY = "det.entropy"
#: Builtin ``hash()`` / ``id()`` — both vary across processes (hash
#: randomization, allocator addresses) so neither may feed replayable
#: state in a fingerprint-critical module.
RULE_UNSTABLE_HASH = "det.unstable-hash"
#: Iteration over a set expression whose order feeds ordered output.
RULE_UNORDERED_ITER = "det.unordered-iter"

# -- protocol rules ---------------------------------------------------------

#: Operation sent via request/notify/broadcast with no registered
#: handler anywhere in the analyzed tree.
RULE_UNHANDLED_OP = "proto.unhandled-op"
#: ``transport.request`` with no ``on_error`` and no retry wrapper: a
#: timeout or remote fault vanishes into a debug log.
RULE_UNGUARDED_REQUEST = "proto.unguarded-request"
#: Operation sent both via ``request`` (deduped, acked) and via
#: ``notify`` (neither): the notify copies bypass at-most-once dedup, so
#: the handler must be idempotent — justify or fix.
RULE_MIXED_SEND_MODES = "proto.mixed-send-modes"
#: Operation expression not statically resolvable (dynamic dispatch).
RULE_DYNAMIC_OP = "proto.dynamic-op"

#: rule id -> (default severity, one-line description).
RULES: dict[str, tuple[str, str]] = {
    RULE_WALL_CLOCK: (
        ERROR,
        "wall-clock read in a fingerprint-critical module (use the "
        "simulator clock)",
    ),
    RULE_UNSEEDED_RANDOM: (
        ERROR,
        "process-global or unseeded random stream in a fingerprint-"
        "critical module (use a seeded random.Random)",
    ),
    RULE_ENTROPY: (
        ERROR,
        "ambient entropy source (uuid4, os.urandom, secrets) in a "
        "fingerprint-critical module",
    ),
    RULE_UNSTABLE_HASH: (
        WARNING,
        "builtin hash()/id() varies across processes; use a stable hash "
        "(zlib.crc32, hashlib) for replayable state",
    ),
    RULE_UNORDERED_ITER: (
        WARNING,
        "iteration over a set expression; wrap in sorted() when the "
        "order can feed ordered output or hashes",
    ),
    RULE_UNHANDLED_OP: (
        ERROR,
        "operation sent but never registered with any transport",
    ),
    RULE_UNGUARDED_REQUEST: (
        WARNING,
        "request with no on_error and no retry wrapper; failures vanish",
    ),
    RULE_MIXED_SEND_MODES: (
        WARNING,
        "operation sent via both request and notify; notify bypasses "
        "at-most-once dedup",
    ),
    RULE_DYNAMIC_OP: (
        INFO,
        "operation expression not statically resolvable",
    ),
}


@dataclass(frozen=True)
class LintFinding:
    """One platform-lint defect, anchored to a source file."""

    rule: str
    severity: str
    path: str
    line: int
    message: str
    #: Stable, line-independent identity for baseline matching:
    #: typically the enclosing ``Class.method`` plus the symbol at fault.
    key: str = ""

    def fingerprint(self) -> tuple[str, str, str]:
        """What the baseline matches on (never the line number)."""
        return (self.rule, self.path, self.key)

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "key": self.key,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LintFinding":
        return cls(
            rule=str(data["rule"]),
            severity=str(data["severity"]),
            path=str(data["path"]),
            line=int(data.get("line", 0)),
            message=str(data["message"]),
            key=str(data.get("key", "")),
        )

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}: {self.severity.upper():7s} "
            f"{self.rule} {self.message}"
        )


@dataclass
class LintResult:
    """Outcome of one lint run over a tree."""

    findings: list[LintFinding] = field(default_factory=list)
    #: Findings suppressed by an inline ``# lint: allow(...)`` waiver.
    waived: list[LintFinding] = field(default_factory=list)
    #: Findings matched (and suppressed) by the baseline file.
    baselined: list[LintFinding] = field(default_factory=list)
    #: Baseline entries that matched nothing (stale — should be pruned).
    stale_baseline: list[dict] = field(default_factory=list)
    files_scanned: int = 0
    #: Wall seconds spent (reported, never part of any verdict).
    elapsed: float = 0.0

    def by_severity(self, severity: str) -> list[LintFinding]:
        return [f for f in self.findings if f.severity == severity]

    def errors(self) -> list[LintFinding]:
        return self.by_severity(ERROR)

    def warnings(self) -> list[LintFinding]:
        return self.by_severity(WARNING)

    def failed(self, strict: bool = False) -> bool:
        """True when the run should gate (exit non-zero).

        Plain mode fails on errors; ``strict`` also fails on warnings
        (info findings never gate).
        """
        if self.errors():
            return True
        return bool(strict and self.warnings())

    def as_dict(self) -> dict:
        return {
            "findings": [f.as_dict() for f in self.findings],
            "waived": [f.as_dict() for f in self.waived],
            "baselined": [f.as_dict() for f in self.baselined],
            "stale_baseline": list(self.stale_baseline),
            "summary": {
                "files_scanned": self.files_scanned,
                "errors": len(self.errors()),
                "warnings": len(self.warnings()),
                "info": len(self.by_severity(INFO)),
                "waived": len(self.waived),
                "baselined": len(self.baselined),
                "elapsed_seconds": self.elapsed,
            },
        }
