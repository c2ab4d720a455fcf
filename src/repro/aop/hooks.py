"""Minimal hooks and advice dispatch.

This module is the Python analogue of PROSE's JIT-level weaving (Fig. 1).
When a class is loaded, every method is replaced by a *stub* produced by
:func:`make_method_stub`.  A stub closes over a one-element ``cell``:

- fast path — ``cell[0] is None`` — no advice anywhere at this join
  point; the stub calls the original directly.  This is the "minimal
  hook" whose constant cost experiment E1 measures.
- slow path — ``cell[0]`` holds a compiled dispatch closure built from
  the currently active advice; the stub delegates to it.  This is the
  interception path experiment E2 measures.

Inserting or withdrawing an aspect edits the :class:`MethodHookTable`
advice lists and recompiles the cell, so the cost of (de)activation is
paid at weave time, never per call.

Field-write join points use a stubbed ``__setattr__``
(:func:`make_setattr_stub`) that has no fast path: its
:class:`FieldHookTable` plants it with the first field advice and takes it
out again with the last, so an unadvised field write costs nothing.
Methods cannot work that way, because callers capture bound methods and
``Cls.method`` references that a later re-stub would miss; every field
write, by contrast, looks up ``type(obj).__setattr__`` afresh.
"""

from __future__ import annotations

import functools
from time import perf_counter
from typing import Any, Callable

from repro.aop.advice import Advice, AdviceKind
from repro.aop.context import ExecutionContext, FieldWriteContext, _MISSING
from repro.aop.crosscut import ExceptionCut, FieldWriteCut
from repro.aop.joinpoint import JoinPoint, JoinPointKind
from repro.telemetry import runtime as _telemetry

# Stub call-target styles.
INSTANCE = "instance"
CLASS = "class"
STATIC = "static"


class AdviceContainment:
    """Weaver-level containment hook applied to advice at weave time.

    When an aspect is inserted with a containment object
    (:meth:`ProseVM.insert(..., containment=...)`), every advice callback
    is passed through :meth:`wrap` *after* sandbox wrapping, so the
    containment layer is outermost: it sees everything the advice does —
    exceptions it raises, sandbox violations it triggers, time it burns —
    before any of it reaches the application call path.

    The base implementation is transparent.  The extension supervisor
    (:mod:`repro.supervision`) subclasses this to build its error
    barrier; custom runtimes can install their own (e.g. an
    advice-profiling wrapper) without touching the weaver.
    """

    __slots__ = ()

    def wrap(
        self, advice: Advice, callback: Callable[..., Any]
    ) -> Callable[..., Any]:
        """Return the callback to weave in place of ``callback``."""
        return callback


def _sort_key(entry: tuple[int, int, Any]) -> tuple[int, int]:
    order, seq, _ = entry
    return (order, seq)


class MethodHookTable:
    """Per-method-join-point advice registry and dispatch compiler."""

    __slots__ = (
        "joinpoint",
        "original",
        "style",
        "owner",
        "cell",
        "interceptions",
        "_entries",
        "_seq",
        "_jp_label",
    )

    def __init__(
        self,
        joinpoint: JoinPoint,
        original: Callable[..., Any],
        style: str = INSTANCE,
        owner: str = "prose",
    ):
        self.joinpoint = joinpoint
        self.original = original
        self.style = style
        #: Name of the VM (= node id on platform nodes) owning this hook;
        #: stamps dispatch-error events onto the right flight ring.
        self.owner = owner
        #: One-element list read by the stub: None, or the dispatch closure.
        self.cell: list[Callable[..., Any] | None] = [None]
        #: Number of times the slow (interception) path ran.
        self.interceptions = 0
        # entries: kind -> list of (order, seq, Advice)
        self._entries: dict[AdviceKind, list[tuple[int, int, Advice]]] = {
            kind: [] for kind in AdviceKind
        }
        self._seq = 0
        # Telemetry label, precomputed so dispatch never formats strings.
        self._jp_label = f"{joinpoint.cls.__name__}.{joinpoint.member}"

    @property
    def advised(self) -> bool:
        """True if any advice is active at this join point."""
        return self.cell[0] is not None

    def advice_count(self) -> int:
        """Total number of active advice entries."""
        return sum(len(entries) for entries in self._entries.values())

    def advices(self) -> list[Advice]:
        """All active advice, in (kind, order) registration order."""
        out = []
        for entries in self._entries.values():
            out.extend(advice for _, _, advice in sorted(entries, key=_sort_key))
        return out

    def add(self, advice: Advice, callback: Callable[..., Any]) -> None:
        """Activate ``advice`` here, using ``callback`` (possibly wrapped)."""
        bound = Advice(
            advice.kind,
            advice.crosscut,
            callback,
            order=advice.order,
            aspect=advice.aspect,
            name=advice.name,
        )
        self._entries[advice.kind].append((advice.order, self._seq, bound))
        self._seq += 1
        self._recompile()

    def remove_aspect(self, aspect: object) -> int:
        """Deactivate all advice contributed by ``aspect``; returns count."""
        removed = 0
        for kind, entries in self._entries.items():
            kept = [entry for entry in entries if entry[2].aspect is not aspect]
            removed += len(entries) - len(kept)
            self._entries[kind] = kept
        if removed:
            self._recompile()
        return removed

    def _recompile(self) -> None:
        if self.advice_count() == 0:
            self.cell[0] = None
            return
        befores = tuple(
            entry[2].callback
            for entry in sorted(self._entries[AdviceKind.BEFORE], key=_sort_key)
        )
        afters = tuple(
            entry[2].callback
            for entry in sorted(self._entries[AdviceKind.AFTER], key=_sort_key)
        )
        arounds = tuple(
            entry[2].callback
            for entry in sorted(self._entries[AdviceKind.AROUND], key=_sort_key)
        )
        throwers = tuple(
            (entry[2].crosscut, entry[2].callback)
            for entry in sorted(
                self._entries[AdviceKind.AFTER_THROWING], key=_sort_key
            )
        )
        joinpoint = self.joinpoint
        if self.style == STATIC:
            # Static methods take no target; drop it before the real call.
            raw = self.original

            def original(_target: Any, *args: Any, **kwargs: Any) -> Any:
                return raw(*args, **kwargs)

        else:
            original = self.original
        table = self
        jp_label = self._jp_label
        owner = self.owner
        telemetry_cell = _telemetry.cell()

        def dispatch(target: Any, args: tuple, kwargs: dict) -> Any:
            table.interceptions += 1
            recorder = telemetry_cell[0]
            if recorder is None:
                # Untimed path: identical to the timed one below, kept
                # inline so an uninstrumented interception pays only the
                # cell read and this branch.
                ctx = ExecutionContext(
                    joinpoint, target, args, kwargs, original, arounds
                )
                for callback in befores:
                    callback(ctx)
                try:
                    ctx.result = ctx.proceed()
                except BaseException as exc:
                    ctx.exception = exc
                    for crosscut, callback in throwers:
                        if not isinstance(crosscut, ExceptionCut) or crosscut.accepts(exc):
                            callback(ctx)
                    raise
                for callback in afters:
                    callback(ctx)
                return ctx.result
            start = perf_counter()
            try:
                ctx = ExecutionContext(
                    joinpoint, target, args, kwargs, original, arounds
                )
                for callback in befores:
                    callback(ctx)
                try:
                    ctx.result = ctx.proceed()
                except BaseException as exc:
                    ctx.exception = exc
                    for crosscut, callback in throwers:
                        if not isinstance(crosscut, ExceptionCut) or crosscut.accepts(exc):
                            callback(ctx)
                    recorder.event(
                        "prose.dispatch_error",
                        node=owner,
                        joinpoint=jp_label,
                        error=type(exc).__name__,
                    )
                    raise
                for callback in afters:
                    callback(ctx)
                return ctx.result
            finally:
                recorder.observe(
                    "prose.dispatch", perf_counter() - start, joinpoint=jp_label
                )
                recorder.count("prose.interceptions", 1, joinpoint=jp_label)

        self.cell[0] = dispatch

    def __repr__(self) -> str:
        return f"<MethodHookTable {self.joinpoint} advice={self.advice_count()}>"


def _codegen_stub(table: MethodHookTable) -> Callable | None:
    """Generate a stub with the original's exact signature.

    Avoiding ``*args`` packing on the fast path roughly halves the hook's
    constant cost — the Python analogue of keeping the minimal hook down
    to a couple of instructions.  Returns None for signatures the
    generator does not handle (keyword-only parameters, a receiver that
    only ``*args`` holds); the caller falls back to the generic wrapper.
    The signature is the function's own, not that of a ``__wrapped__``
    function a decorator may have copied over.
    """
    import inspect

    original = table.original
    try:
        signature = inspect.signature(original, follow_wrapped=False)
    except (TypeError, ValueError):
        return None

    declared: list[str] = []
    passthrough: list[str] = []
    tuple_items: list[str] = []
    var_keyword: str | None = None
    for param in signature.parameters.values():
        if param.name.startswith("_prose"):
            return None  # would shadow the generator's internals
        if param.kind in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD):
            declared.append(param.name)
            passthrough.append(param.name)
            tuple_items.append(param.name)
        elif param.kind is param.VAR_POSITIONAL:
            declared.append(f"*{param.name}")
            passthrough.append(f"*{param.name}")
            tuple_items.append(f"*{param.name}")
        elif param.kind is param.VAR_KEYWORD:
            declared.append(f"**{param.name}")
            passthrough.append(f"**{param.name}")
            var_keyword = param.name
        else:  # keyword-only: not worth the complexity here
            return None

    if table.style == INSTANCE or table.style == CLASS:
        if not tuple_items or tuple_items[0].startswith("*"):
            return None  # no named receiver parameter
        target = tuple_items[0]
        rest = tuple_items[1:]
    else:  # STATIC
        target = "None"
        rest = tuple_items

    args_tuple = "(" + ", ".join(rest) + ("," if rest else "") + ")"
    kwargs_expr = var_keyword if var_keyword is not None else "{}"
    name = getattr(original, "__name__", "method")
    if not name.isidentifier():
        return None

    source = (
        "def _factory(_prose_original, _prose_cell):\n"
        f" def {name}({', '.join(declared)}):\n"
        "  _prose_d = _prose_cell[0]\n"
        "  if _prose_d is None:\n"
        f"   return _prose_original({', '.join(passthrough)})\n"
        f"  return _prose_d({target}, {args_tuple}, {kwargs_expr})\n"
        f" return {name}\n"
    )
    namespace: dict[str, Any] = {}
    try:
        exec(source, namespace)  # noqa: S102 - controlled codegen
    except SyntaxError:
        return None
    stub = namespace["_factory"](original, table.cell)
    try:
        stub.__defaults__ = original.__defaults__
    except AttributeError:
        pass
    return stub


def make_method_stub(table: MethodHookTable) -> Callable:
    """Build the minimal-hook wrapper installed in place of a method."""
    original = table.original
    cell = table.cell
    style = table.style

    generated = _codegen_stub(table)
    if generated is not None:
        functools.update_wrapper(generated, original)
        generated.__prose_table__ = table  # type: ignore[attr-defined]
        return generated

    if style == INSTANCE:

        def prose_stub(self: Any, *args: Any, **kwargs: Any) -> Any:
            dispatch = cell[0]
            if dispatch is None:
                return original(self, *args, **kwargs)
            return dispatch(self, args, kwargs)

    elif style == CLASS:

        def prose_stub(cls: Any, *args: Any, **kwargs: Any) -> Any:  # type: ignore[misc]
            dispatch = cell[0]
            if dispatch is None:
                return original(cls, *args, **kwargs)
            return dispatch(cls, args, kwargs)

    elif style == STATIC:

        def prose_stub(*args: Any, **kwargs: Any) -> Any:  # type: ignore[misc]
            dispatch = cell[0]
            if dispatch is None:
                return original(*args, **kwargs)
            return dispatch(None, args, kwargs)

    else:  # pragma: no cover - internal misuse
        raise ValueError(f"unknown stub style {style!r}")

    functools.update_wrapper(prose_stub, original)
    prose_stub.__prose_table__ = table  # type: ignore[attr-defined]
    return prose_stub


class FieldHookTable:
    """Per-class field-write advice registry and owner of the class's
    ``__setattr__`` stub.

    Field names have no static declaration in Python, so entries hold
    (crosscut, advice) pairs and the compiled chain is cached per
    ``(dynamic type, field name)`` the first time that field is written.
    The dynamic type (``type(target)``) is used for type-pattern matching
    so a crosscut on a subclass works even when the ``__setattr__`` stub
    was installed on a base class.

    The stub exists only while advice is active: the first :meth:`add`
    plants it, and the last withdrawal or :meth:`restore` (on unload)
    puts back the class's own or inherited ``__setattr__``.
    """

    __slots__ = ("cls", "original_setattr", "saved_setattr", "interceptions",
                 "_entries", "_seq", "_chains")

    def __init__(self, cls: type):
        self.cls = cls
        #: Set when the stub is planted: the ``__setattr__`` it forwards
        #: writes to, and the class's own one it replaced (None if inherited).
        self.original_setattr: Callable[..., None] = object.__setattr__
        self.saved_setattr: Callable[..., None] | None = None
        self.interceptions = 0
        self._entries: list[tuple[int, int, Advice]] = []
        self._seq = 0
        # (type, field) -> compiled (befores, afters, joinpoint) or None
        self._chains: dict[tuple[type, str], tuple | None] = {}

    def advice_count(self) -> int:
        """Number of active field-write advice entries."""
        return len(self._entries)

    def add(self, advice: Advice, callback: Callable[..., Any]) -> None:
        """Activate field-write ``advice`` on this class's instances."""
        if not self._entries:
            self._plant()
        bound = Advice(
            advice.kind,
            advice.crosscut,
            callback,
            order=advice.order,
            aspect=advice.aspect,
            name=advice.name,
        )
        self._entries.append((advice.order, self._seq, bound))
        self._seq += 1
        self._chains.clear()

    def remove_aspect(self, aspect: object) -> int:
        """Deactivate all field advice contributed by ``aspect``."""
        kept = [entry for entry in self._entries if entry[2].aspect is not aspect]
        removed = len(self._entries) - len(kept)
        if removed:
            self._entries = kept
            self._chains.clear()
            if not kept:
                self.restore()
        return removed

    def _plant(self) -> None:
        cls = self.cls
        self.saved_setattr = vars(cls).get("__setattr__")
        current = cls.__setattr__
        # Already stubbed by an advised base (or another VM): forward to
        # that stub's original, so a write is not intercepted twice.
        stubbed = getattr(current, "__prose_field_table__", None)
        self.original_setattr = current if stubbed is None else stubbed.original_setattr
        cls.__setattr__ = make_setattr_stub(self)  # type: ignore[assignment]

    def restore(self) -> None:
        """Take out the stub if this table planted it."""
        cls = self.cls
        if getattr(vars(cls).get("__setattr__"), "__prose_field_table__", None) is not self:
            return
        if self.saved_setattr is None:
            delattr(cls, "__setattr__")
        else:
            cls.__setattr__ = self.saved_setattr  # type: ignore[assignment]

    def _chain_for(self, cls: type, field: str) -> tuple | None:
        key = (cls, field)
        chain = self._chains.get(key, _MISSING)
        if chain is not _MISSING:
            return chain  # type: ignore[return-value]
        joinpoint = JoinPoint(JoinPointKind.FIELD_WRITE, cls, field)
        befores: list = []
        afters: list = []
        for _, _, advice in sorted(self._entries, key=_sort_key):
            crosscut = advice.crosscut
            if isinstance(crosscut, FieldWriteCut) and crosscut.matches(joinpoint):
                if advice.kind is AdviceKind.BEFORE:
                    befores.append(advice.callback)
                elif advice.kind is AdviceKind.AFTER:
                    afters.append(advice.callback)
        compiled = (tuple(befores), tuple(afters), joinpoint) if befores or afters else None
        self._chains[key] = compiled
        return compiled

    def _dispatch(self, target: Any, field: str, value: Any) -> None:
        chain = self._chain_for(type(target), field)
        if chain is None:
            self.original_setattr(target, field, value)
            return
        self.interceptions += 1
        recorder = _telemetry.cell()[0]
        start = perf_counter() if recorder is not None else 0.0
        befores, afters, joinpoint = chain
        old = target.__dict__.get(field, _MISSING) if hasattr(target, "__dict__") else _MISSING
        ctx = FieldWriteContext(joinpoint, target, field, old, value)
        for callback in befores:
            callback(ctx)
        self.original_setattr(target, field, ctx.new_value)
        for callback in afters:
            callback(ctx)
        if recorder is not None:
            label = f"{joinpoint.cls.__name__}.{field}"
            recorder.observe("prose.dispatch", perf_counter() - start, joinpoint=label)
            recorder.count("prose.field_interceptions", 1, joinpoint=label)

    def __repr__(self) -> str:
        return f"<FieldHookTable {self.cls.__name__} advice={self.advice_count()}>"


def make_setattr_stub(table: FieldHookTable) -> Callable[..., None]:
    """Build the ``__setattr__`` stub planted while ``table`` has advice."""
    dispatch = table._dispatch

    def prose_setattr(self: Any, name: str, value: Any) -> None:
        dispatch(self, name, value)

    prose_setattr.__name__ = "__setattr__"
    prose_setattr.__qualname__ = f"{table.cls.__name__}.__setattr__"
    prose_setattr.__prose_field_table__ = table  # type: ignore[attr-defined]
    return prose_setattr
