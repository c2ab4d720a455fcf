"""The determinism lint: sources of replay divergence in critical modules.

Storm fingerprints, replays and chaos tests all rest on one claim:
the same seed produces the same run, bit for bit.  Any ambient
nondeterminism inside the modules those fingerprints observe breaks the
claim silently — the replay test that catches it fires *after* the
divergence shipped.  This pass moves the check to lint time:

- **wall-clock reads** — ``time.time``/``monotonic``/``perf_counter``,
  ``datetime.now``/``utcnow``/``today``: virtual time must come from the
  simulator's clock;
- **unseeded randomness** — module-level ``random.choice`` etc. (the
  process-global stream any import can perturb) and ``random.Random()``
  with no seed;
- **ambient entropy** — ``uuid.uuid1``/``uuid4``, ``os.urandom``,
  anything from ``secrets``;
- **unstable hashes** — builtin ``hash()`` (randomized per process) and
  ``id()`` (allocator addresses): neither may feed replayable state;
- **unordered iteration** — ``for x in {…}`` / ``set(…)`` /
  set-comprehensions / ``a | b`` on sets, unless wrapped in ``sorted``:
  set order is insertion-and-hash dependent and must not feed ordered
  output.

Scope is configured per tree (default: the fingerprint-critical
packages); telemetry and the AOP engine intentionally read real clocks
and stay out of scope.
"""

from __future__ import annotations

import ast

from repro.analysis import findings as F
from repro.analysis.core import FileAst, dotted_name

#: Dotted call targets that read the wall clock.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "date.today",
        "datetime.date.today",
    }
)

#: Dotted call targets that draw ambient entropy.
ENTROPY_CALLS = frozenset(
    {"uuid.uuid1", "uuid.uuid4", "os.urandom", "os.getrandom"}
)

#: ``random.<fn>`` calls on the module (not on an instance) are the
#: process-global stream; constructing ``random.Random`` / ``Random``
#: *with* a seed argument is the sanctioned pattern.
_RANDOM_CONSTRUCTORS = frozenset({"random.Random", "random.SystemRandom"})

def _origin(file: FileAst, dotted: str) -> str:
    """Rewrite the head of ``dotted`` through the file's import map."""
    head, _, rest = dotted.partition(".")
    resolved = file.imports.get(head)
    if resolved is None:
        return dotted
    return f"{resolved}.{rest}" if rest else resolved


def _is_set_expression(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        # a | b, a & b, a - b where either side is itself a set display.
        return _is_set_expression(node.left) or _is_set_expression(node.right)
    return False


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, file: FileAst, out: list[F.LintFinding]):
        self.file = file
        self.out = out
        self._scope: list[str] = []

    # -- scope tracking ------------------------------------------------------

    def _qualname(self) -> str:
        return ".".join(self._scope) or "<module>"

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    # -- findings ------------------------------------------------------------

    def _emit(self, rule: str, line: int, message: str, symbol: str) -> None:
        severity = F.RULES[rule][0]
        self.out.append(
            F.LintFinding(
                rule=rule,
                severity=severity,
                path=self.file.rel_path,
                line=line,
                message=message,
                key=f"{self._qualname()}:{symbol}",
            )
        )

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if dotted is not None:
            origin = _origin(self.file, dotted)
            if origin in WALL_CLOCK_CALLS or dotted in WALL_CLOCK_CALLS:
                self._emit(
                    F.RULE_WALL_CLOCK,
                    node.lineno,
                    f"{dotted}() reads the wall clock; fingerprint-critical "
                    "code must use the simulator clock",
                    dotted,
                )
            elif origin in ENTROPY_CALLS or dotted in ENTROPY_CALLS:
                self._emit(
                    F.RULE_ENTROPY,
                    node.lineno,
                    f"{dotted}() draws ambient entropy; derive ids from "
                    "seeded state instead",
                    dotted,
                )
            elif origin.startswith("secrets.") or dotted.startswith("secrets."):
                self._emit(
                    F.RULE_ENTROPY,
                    node.lineno,
                    f"{dotted}() draws ambient entropy (secrets module)",
                    dotted,
                )
            elif self._is_global_random(dotted, origin):
                self._emit(
                    F.RULE_UNSEEDED_RANDOM,
                    node.lineno,
                    f"{dotted}() uses the process-global random stream; "
                    "draw from a seeded random.Random instance",
                    dotted,
                )
            elif (
                (origin in _RANDOM_CONSTRUCTORS or dotted in _RANDOM_CONSTRUCTORS)
                and not node.args
                and not node.keywords
            ):
                self._emit(
                    F.RULE_UNSEEDED_RANDOM,
                    node.lineno,
                    f"{dotted}() constructed without a seed is entropy-"
                    "seeded; pass an explicit seed",
                    dotted,
                )
        if isinstance(node.func, ast.Name) and node.func.id in ("hash", "id"):
            self._emit(
                F.RULE_UNSTABLE_HASH,
                node.lineno,
                f"builtin {node.func.id}() varies across processes; use "
                "zlib.crc32/hashlib for replayable state",
                node.func.id,
            )
        self.generic_visit(node)

    @staticmethod
    def _is_global_random(dotted: str, origin: str) -> bool:
        for name in (dotted, origin):
            head, _, rest = name.partition(".")
            if head == "random" and rest and rest not in (
                "Random",
                "SystemRandom",
            ) and "." not in rest:
                return True
        return False

    # -- unordered iteration -------------------------------------------------

    def _check_iter(self, node: ast.expr, line: int) -> None:
        if _is_set_expression(node):
            self._emit(
                F.RULE_UNORDERED_ITER,
                line,
                "iterating a set expression; wrap in sorted() so the "
                "order cannot leak into ordered output",
                "set-iteration",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter, node.lineno)
        self.generic_visit(node)


def check_file(file: FileAst) -> list[F.LintFinding]:
    """All determinism findings in one file (waivers not yet applied)."""
    out: list[F.LintFinding] = []
    visitor = _DeterminismVisitor(file, out)
    visitor.visit(file.tree)
    # Comprehension generators are not visited by NodeVisitor by default
    # name; walk them explicitly for the set-iteration check.
    for node in ast.walk(file.tree):
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for generator in node.generators:
                if _is_set_expression(generator.iter):
                    scope = "<comprehension>"
                    out.append(
                        F.LintFinding(
                            rule=F.RULE_UNORDERED_ITER,
                            severity=F.RULES[F.RULE_UNORDERED_ITER][0],
                            path=file.rel_path,
                            line=node.lineno,
                            message=(
                                "comprehension iterates a set expression; "
                                "wrap in sorted() so the order cannot leak "
                                "into ordered output"
                            ),
                            key=f"{scope}:set-iteration",
                        )
                    )
    return out
