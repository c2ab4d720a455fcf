"""Shared static-analysis core: ASTs, import maps, waivers, caching.

Both analysis consumers sit on this module:

- :mod:`repro.vetting.footprint` (extension vetting) resolves dotted
  names, module import maps and class source through it;
- :mod:`repro.analysis` (the platform lints) walks whole source trees
  through :class:`FileAst` and :class:`TreeIndex`.

Everything here is memoized.  Class-level caches key on the class object
(sources cannot change under a live class); file-level caches key on
``(path, mtime, size)`` so a repeated ``python -m repro lint`` run — or
the warm half of the lint benchmark — re-parses nothing that did not
change on disk.
"""

from __future__ import annotations

import ast
import inspect
import re
import sys
import textwrap
from dataclasses import dataclass, field
from pathlib import Path

# -- dotted names -----------------------------------------------------------


def dotted_name(node: ast.AST) -> str | None:
    """Render a ``Name``/``Attribute`` chain as a dotted path, if pure.

    ``a.b.c`` becomes ``"a.b.c"``; anything with a call or subscript in
    the chain returns None (not a static name).
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# -- import maps ------------------------------------------------------------


def import_map_from_tree(tree: ast.AST) -> dict[str, str]:
    """local alias -> dotted origin, from a module AST's import statements.

    Matches the historical :mod:`repro.vetting.footprint` semantics:
    ``import a.b`` binds ``a`` -> ``a`` (the root package is what the
    name reaches), ``import a.b as c`` binds ``c`` -> ``a.b``, and
    ``from m import x as y`` binds ``y`` -> ``m.x``.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                target = alias.name if alias.asname else bound
                aliases[bound] = target
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                bound = alias.asname or alias.name
                aliases[bound] = f"{node.module}.{alias.name}"
    return aliases


_module_imports_cache: dict[str, dict[str, str]] = {}


def module_import_map(module_name: str) -> dict[str, str]:
    """Import aliases of a *live* module (by name in ``sys.modules``).

    The vetting path: a class's defining module is imported already, so
    its source is retrieved via :func:`inspect.getsource`.  Returns an
    empty map when the source is unavailable.
    """
    cached = _module_imports_cache.get(module_name)
    if cached is not None:
        return cached
    aliases: dict[str, str] = {}
    module = sys.modules.get(module_name)
    if module is not None:
        try:
            tree = ast.parse(inspect.getsource(module))
        except (OSError, TypeError, SyntaxError):
            tree = None
        if tree is not None:
            aliases = import_map_from_tree(tree)
    _module_imports_cache[module_name] = aliases
    return aliases


# -- class source -----------------------------------------------------------

_class_def_cache: dict[type, ast.ClassDef | None] = {}


def class_def(cls: type) -> ast.ClassDef | None:
    """The parsed ``ClassDef`` of ``cls``, or None when unavailable.

    Memoized per class object — the vetting hot path re-analyzes the
    same catalog classes on every publish→install round.
    """
    if cls in _class_def_cache:
        return _class_def_cache[cls]
    node: ast.ClassDef | None = None
    try:
        source = textwrap.dedent(inspect.getsource(cls))
        tree = ast.parse(source)
    except (OSError, TypeError, SyntaxError):
        tree = None
    if tree is not None:
        node = next(
            (item for item in tree.body if isinstance(item, ast.ClassDef)), None
        )
    _class_def_cache[cls] = node
    return node


# -- waivers ----------------------------------------------------------------

#: ``# lint: allow(rule-a, rule-b) — justification`` (justification
#: optional but strongly encouraged; the doc asks for one).
_WAIVER_RE = re.compile(r"#\s*lint:\s*allow\(([^)]*)\)")


def parse_waivers(source_lines: list[str]) -> dict[int, frozenset[str]]:
    """line number (1-based) -> rules waived on that line.

    A waiver covers the line it sits on *and* the following line, so
    both trailing-comment and comment-above styles work::

        key = id(x)  # lint: allow(det.unstable-hash) — memo key only
        # lint: allow(det.wall-clock) — operator-facing timestamp only
        stamp = time.time()
    """
    waivers: dict[int, set[str]] = {}
    for index, line in enumerate(source_lines, start=1):
        match = _WAIVER_RE.search(line)
        if match is None:
            continue
        rules = {
            rule.strip() for rule in match.group(1).split(",") if rule.strip()
        }
        if not rules:
            continue
        waivers.setdefault(index, set()).update(rules)
        waivers.setdefault(index + 1, set()).update(rules)
    return {line: frozenset(rules) for line, rules in waivers.items()}


# -- files and trees --------------------------------------------------------


@dataclass
class FileAst:
    """One parsed source file plus the per-file facts every pass needs."""

    path: Path
    #: Path relative to the lint root, with forward slashes (stable in
    #: findings and baselines across platforms).
    rel_path: str
    tree: ast.Module
    source_lines: list[str] = field(default_factory=list)
    #: line -> waived rules (see :func:`parse_waivers`).
    waivers: dict[int, frozenset[str]] = field(default_factory=dict)
    #: Module-level ``NAME = "literal"`` string constants.
    constants: dict[str, str] = field(default_factory=dict)
    #: local alias -> dotted import origin.
    imports: dict[str, str] = field(default_factory=dict)

    def waived(self, rule: str, line: int) -> bool:
        return rule in self.waivers.get(line, frozenset())


def _module_constants(tree: ast.Module) -> dict[str, str]:
    constants: dict[str, str] = {}
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if not isinstance(value, ast.Constant) or not isinstance(value.value, str):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                constants[target.id] = value.value
    return constants


#: (resolved path) -> (mtime_ns, size, FileAst) — the lint's memoized AST
#: cache.  Hit when the file is unchanged on disk.
_file_cache: dict[str, tuple[int, int, FileAst]] = {}


def load_file(path: Path, root: Path) -> FileAst | None:
    """Parse ``path`` (memoized by mtime+size); None on syntax errors."""
    resolved = str(path.resolve())
    try:
        stat = path.stat()
    except OSError:
        return None
    cached = _file_cache.get(resolved)
    if cached is not None and cached[0] == stat.st_mtime_ns and cached[1] == stat.st_size:
        return cached[2]
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
    except (OSError, SyntaxError):
        return None
    try:
        rel = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        rel = path.as_posix()
    lines = source.splitlines()
    file_ast = FileAst(
        path=path,
        rel_path=rel,
        tree=tree,
        source_lines=lines,
        waivers=parse_waivers(lines),
        constants=_module_constants(tree),
        imports=import_map_from_tree(tree),
    )
    _file_cache[resolved] = (stat.st_mtime_ns, stat.st_size, file_ast)
    return file_ast


class TreeIndex:
    """All parsed files under one lint root, with cross-file resolution."""

    def __init__(self, root: Path, files: list[FileAst]):
        self.root = root
        self.files = files
        #: dotted module name fragments -> FileAst, for resolving
        #: ``from repro.discovery.registrar import OFFER`` style constants
        #: against the defining file.  Keyed by the rel path without the
        #: ``.py`` suffix, dots for slashes (``repro/midas/base`` maps
        #: from both ``repro.midas.base`` and ``midas.base``).
        self._by_module: dict[str, FileAst] = {}
        for file in files:
            stem = file.rel_path[:-3] if file.rel_path.endswith(".py") else file.rel_path
            if stem.endswith("/__init__"):
                stem = stem[: -len("/__init__")]
            dotted = stem.replace("/", ".")
            parts = dotted.split(".")
            for start in range(len(parts)):
                self._by_module.setdefault(".".join(parts[start:]), file)
            # Prefer the exact dotted name over suffix matches.
            self._by_module[dotted] = file

    def module(self, dotted: str) -> FileAst | None:
        """Best-effort lookup of a module by (suffix of a) dotted name."""
        while dotted:
            found = self._by_module.get(dotted)
            if found is not None:
                return found
            _, _, dotted = dotted.partition(".")
        return None

    def resolve_constant(self, file: FileAst, node: ast.expr) -> str | None:
        """The string value of ``node`` in ``file``'s namespace, if static.

        Handles literals, module-level constants, imported constants
        (``from m import OP``) and attribute reads of imported modules
        (``m.OP``) — the shapes transport operations take in this tree.
        """
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.JoinedStr):
            return None  # f-string: dynamic by construction
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if not rest:
            if head in file.constants:
                return file.constants[head]
            origin = file.imports.get(head)
            if origin is None:
                return None
            origin_module, _, symbol = origin.rpartition(".")
            defining = self.module(origin_module)
            if defining is not None and symbol in defining.constants:
                return defining.constants[symbol]
            return None
        origin = file.imports.get(head)
        if origin is None:
            return None
        defining = self.module(origin)
        if defining is not None and rest in defining.constants:
            return defining.constants[rest]
        return None


def discover_files(targets: list[Path]) -> list[Path]:
    """All ``*.py`` files under the targets, sorted, de-duplicated."""
    seen: set[str] = set()
    out: list[Path] = []
    for target in targets:
        if target.is_dir():
            candidates = sorted(target.rglob("*.py"))
        elif target.suffix == ".py":
            candidates = [target]
        else:
            candidates = []
        for path in candidates:
            resolved = str(path.resolve())
            if resolved in seen or "__pycache__" in path.parts:
                continue
            seen.add(resolved)
            out.append(path)
    return out


def load_tree(root: Path, targets: list[Path] | None = None) -> TreeIndex:
    """Parse every source file under ``root`` (or explicit targets)."""
    files = []
    for path in discover_files(targets if targets else [root]):
        file_ast = load_file(path, root)
        if file_ast is not None:
            files.append(file_ast)
    return TreeIndex(root, files)


def clear_ast_caches() -> None:
    """Drop all memoized parses (tests redefining sources use this)."""
    _module_imports_cache.clear()
    _class_def_cache.clear()
    _file_cache.clear()
