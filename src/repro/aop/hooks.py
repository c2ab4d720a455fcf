"""Minimal hooks and advice dispatch.

This module is the Python analogue of PROSE's JIT-level weaving (Fig. 1),
with one rule for every join point: nothing stands in front of a member
until advice needs it.

Methods.  When a class is loaded, each method is replaced by a plain copy
of its function, owned by a :class:`MethodHookTable`.  Unadvised, the
copy runs its own code, so the minimal hook that experiment E1 measures
costs nothing.  The first advice sets the copy's ``__code__`` to a
*dispatcher*: generated code with the method's own signature that hands
the call to the table's compiled dispatch closure, the interception path
experiment E2 measures.  The last withdrawal puts the method's code back.
Callers capture bound methods and ``Cls.method`` references; all of them
share the copy's function object, so every reference sees the swap.

The dispatcher reaches its table through a weak reference among its
constants.  The cycle collector does not look inside code objects, so a
strong reference there would keep every advised class alive.  Dispatcher
code is compiled once per method code object; each table only binds its
weak reference into a copy of it.

Inserting or withdrawing an aspect edits the table's advice lists and
recompiles the dispatch closure, so the cost of (de)activation is paid at
weave time, never per call.

Field writes.  :class:`FieldHookTable` plants a stubbed ``__setattr__``
(:func:`make_setattr_stub`) with the first field advice and takes it out
with the last.  Every write looks up ``type(obj).__setattr__`` afresh, so
a stub planted later still sees all of them.
"""

from __future__ import annotations

import functools
import warnings
import weakref
from inspect import CO_VARARGS, CO_VARKEYWORDS
from time import perf_counter
from types import CodeType, FunctionType
from typing import Any, Callable

from repro.aop.advice import Advice, AdviceKind
from repro.aop.context import ExecutionContext, FieldWriteContext, _MISSING
from repro.aop.crosscut import ExceptionCut, FieldWriteCut
from repro.aop.joinpoint import JoinPoint, JoinPointKind
from repro.telemetry import runtime as _telemetry

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
    """Per-method-join-point advice registry and dispatch compiler, and
    owner of the copy of the method that the class holds."""

    __slots__ = (
        "joinpoint",
        "original",
        "function",
        "static",
        "owner",
        "dispatch",
        "interceptions",
        "_entries",
        "_seq",
        "_jp_label",
        "__weakref__",
    )

    def __init__(
        self,
        joinpoint: JoinPoint,
        original: FunctionType,
        static: bool = False,
        owner: str = "prose",
    ):
        self.joinpoint = joinpoint
        #: The method as defined; advised calls run its body.
        self.original = original
        #: The copy the class holds, whose ``__code__`` advice swaps.
        self.function = _copy_function(original)
        self.function.__prose_table__ = self  # type: ignore[attr-defined]
        #: A static method has no receiver: its target is None.
        self.static = static
        #: Name of the VM (= node id on platform nodes) owning this hook;
        #: stamps dispatch-error events onto the right flight ring.
        self.owner = owner
        #: The compiled dispatch closure while advice is active, else None.
        self.dispatch: Callable[[Any, tuple, dict], Any] | None = None
        #: Number of advised calls dispatched here.
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
        return self.dispatch is not None

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

    def restore(self) -> None:
        """Put the method's own code back: every call runs plain again."""
        self.function.__code__ = self.original.__code__
        self.dispatch = None

    def _recompile(self) -> None:
        if self.advice_count() == 0:
            self.restore()
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
        if self.static:
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

        swap = self.dispatch is None
        self.dispatch = dispatch
        if swap:
            self.function.__code__ = _bind_dispatcher(self)

    def __repr__(self) -> str:
        return f"<MethodHookTable {self.joinpoint} advice={self.advice_count()}>"


def _copy_function(function: FunctionType) -> FunctionType:
    """A second function object over ``function``'s code and state.

    Advice swaps the copy's code, never the original's: classes may share
    function objects (one class built from another's namespace), and
    advice on one must not reach the others.
    """
    copy = FunctionType(
        function.__code__,
        function.__globals__,
        function.__name__,
        function.__defaults__,
        function.__closure__,
    )
    copy.__kwdefaults__ = function.__kwdefaults__
    for attribute in functools.WRAPPER_ASSIGNMENTS:
        setattr(copy, attribute, getattr(function, attribute))
    copy.__dict__.update(function.__dict__)
    return copy


#: Stands for the weak reference to the table in compiled dispatcher
#: code; not an identifier, so no parameter name can share the constant.
_TABLE = "<prose table>"

#: Dispatcher code per method code object, for instance and static
#: methods.  Shared by every VM, because nodes load classes built from
#: the same code; keyed weakly, so code that goes away takes its entry.
_TEMPLATES: dict[bool, weakref.WeakKeyDictionary] = {
    False: weakref.WeakKeyDictionary(),
    True: weakref.WeakKeyDictionary(),
}


def _bind_dispatcher(table: MethodHookTable) -> CodeType:
    """The dispatcher for ``table``'s method, bound to a weak reference."""
    code = table.original.__code__
    templates = _TEMPLATES[table.static]
    template = templates.get(code)
    if template is None:
        template = templates[code] = _compile_dispatcher(code, table.static)
    consts = template.co_consts
    at = consts.index(_TABLE)
    ref = weakref.ref(table)
    return template.replace(co_consts=consts[:at] + (ref,) + consts[at + 1 :])


def _compile_dispatcher(code: CodeType, static: bool) -> CodeType:
    """Dispatcher code for a method whose code is ``code``.

    It has the method's parameters, read from the code object, and as
    many free variables, so the copy's closure (a ``super()`` cell
    included) still fits.  Its one line passes the receiver, the
    positional arguments and the keyword-only and ``**`` arguments to
    the table's dispatch closure.  Name, file and first line are the
    method's, so tracebacks and ``inspect`` still point at its source.
    """
    names = code.co_varnames
    positional = list(names[: code.co_argcount])
    keyword = names[code.co_argcount : code.co_argcount + code.co_kwonlyargcount]
    extra = iter(names[len(positional) + len(keyword) :])
    star = next(extra) if code.co_flags & CO_VARARGS else None
    starstar = next(extra) if code.co_flags & CO_VARKEYWORDS else None

    params = list(positional)
    if code.co_posonlyargcount:
        params.insert(code.co_posonlyargcount, "/")
    if star or keyword:
        params.append("*" + (star or ""))
    params += keyword
    if starstar:
        params.append("**" + starstar)

    items = positional + ([f"*{star}"] if star else [])
    if static or not items:
        target = "None"
    elif positional:
        target = items.pop(0)
    else:  # the receiver is the first of *args
        target, items = f"{star}[0]", [f"*{star}[1:]"]
    args = "(" + "".join(f"{item}, " for item in items) + ")"
    kwargs = (
        "{"
        + "".join(f"{name!r}: {name}, " for name in keyword)
        + (f"**{starstar}" if starstar else "")
        + "}"
    )
    free = code.co_freevars
    # The unreachable list declares the free variables at no cost per call.
    source = (
        "def _outer():\n"
        + "".join(f" {name} = None\n" for name in free)
        + f" def _dispatcher({', '.join(params)}):"
        f" return {_TABLE!r}().dispatch({target}, {args}, {kwargs})"
        f" if 1 else [{', '.join(free)}]\n"
        " return _dispatcher\n"
    )
    namespace: dict[str, Any] = {}
    with warnings.catch_warnings():
        # Calling the marker string draws a SyntaxWarning; the call runs
        # on the weak reference bound in its place.
        warnings.simplefilter("ignore", SyntaxWarning)
        exec(source, namespace)  # noqa: S102 - controlled codegen
    where = {
        "co_name": code.co_name,
        "co_filename": code.co_filename,
        "co_firstlineno": code.co_firstlineno,
    }
    if hasattr(code, "co_qualname"):  # Python 3.11+
        where["co_qualname"] = code.co_qualname
    return namespace["_outer"]().__code__.replace(**where)


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
