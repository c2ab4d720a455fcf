"""The PROSE-enabled virtual machine.

:class:`ProseVM` is the run-time weaver — the analogue of the paper's
modified JVM.  Loading a class rewrites it in place, and nothing stands
in front of a join point until advice needs it (:mod:`repro.aop.hooks`):

- every method defined on the class is replaced by a plain copy of its
  function, creating one method join point per method.  The copy runs
  the method's own code until advice arrives; then its ``__code__`` is
  swapped for a dispatcher, and back on the last withdrawal.  Callers
  capture bound methods and ``Cls.method`` references, and all of them
  share the copy, so every reference sees the swap.  Functions without
  Python code (``staticmethod(len)``) are not join points;
- field-write join points are created lazily per assigned field, through
  a ``__setattr__`` stub that exists only while some field advice applies
  to the class.  Every write looks up ``type(obj).__setattr__`` again,
  so a stub planted later still sees all of them.

Aspects are inserted and withdrawn at any time; insertion matches each
advice's crosscut against every loaded join point and activates the
matching hooks.  Classes loaded *after* an insertion are matched against
all currently inserted aspects, so the order of arrival (application code
vs. extensions) does not matter — exactly the property MIDAS relies on.

Unloading a class puts its original functions back.
"""

from __future__ import annotations

import inspect
import logging
from time import perf_counter
from typing import Any, Callable, Iterator

from repro.aop.advice import Advice, AdviceKind
from repro.aop.aspect import Aspect
from repro.aop.crosscut import FieldWriteCut
from repro.aop.hooks import AdviceContainment, FieldHookTable, MethodHookTable
from repro.aop.joinpoint import JoinPoint, JoinPointKind
from repro.aop.sandbox import AspectSandbox
from repro.errors import (
    ClassNotLoadedError,
    NotWovenError,
    WeaveError,
)
from repro.telemetry import runtime as _telemetry

logger = logging.getLogger(__name__)

#: Dunder members that are still valid join points.  ``__init__`` is
#: needed by e.g. the age/trust extension (record construction time);
#: ``__call__`` by function-object services.
_ALLOWED_DUNDERS = {"__init__", "__call__"}


def _is_weavable(name: str, value: object) -> bool:
    """True if a class attribute is a method join point: a Python
    function, or a static or class method over one."""
    if name.startswith("__") and name.endswith("__") and name not in _ALLOWED_DUNDERS:
        return False
    return inspect.isfunction(_unwrap(value))


class _LoadedClass:
    """Bookkeeping for one instrumented class."""

    __slots__ = ("cls", "method_tables", "field_table", "saved_attrs")

    def __init__(self, cls: type):
        self.cls = cls
        # method name -> MethodHookTable
        self.method_tables: dict[str, MethodHookTable] = {}
        self.field_table = FieldHookTable(cls)
        # original attribute objects, for unload
        self.saved_attrs: dict[str, Any] = {}


class _Insertion:
    """Bookkeeping for one inserted aspect."""

    __slots__ = ("aspect", "advices", "sandbox", "containment", "tables")

    def __init__(
        self,
        aspect: Aspect,
        advices: list[tuple[Advice, Callable[..., Any]]],
        sandbox: AspectSandbox | None,
        containment: "AdviceContainment | None" = None,
    ):
        self.aspect = aspect
        # (advice, possibly-sandbox/containment-wrapped callback) pairs
        self.advices = advices
        self.sandbox = sandbox
        self.containment = containment
        # tables currently holding entries for this aspect
        self.tables: set[MethodHookTable | FieldHookTable] = set()


class VMStats:
    """Aggregate counters over a VM's lifetime.

    Since the telemetry subsystem exists this is a thin compatibility
    view: every increment also feeds the global recorder as a
    ``prose.vm.<field>`` counter labelled with the VM's name, while the
    attributes keep their original always-available integer semantics.
    """

    __slots__ = ("classes_loaded", "methods_stubbed", "inserts", "withdrawals",
                 "weave_seconds", "_vm")

    #: Attributes mirrored as ``prose.vm.*`` counters.
    FIELDS = ("classes_loaded", "methods_stubbed", "inserts", "withdrawals")

    def __init__(self, vm: str = "prose"):
        self.classes_loaded = 0
        self.methods_stubbed = 0
        self.inserts = 0
        self.withdrawals = 0
        #: Cumulative weave/unweave time (mirrors ``ProseVM.weave_seconds``).
        self.weave_seconds = 0.0
        self._vm = vm

    def note(self, field: str, amount: int = 1) -> None:
        """Bump ``field`` locally and in the installed metrics registry."""
        setattr(self, field, getattr(self, field) + amount)
        _telemetry.get_recorder().count(f"prose.vm.{field}", amount, vm=self._vm)

    def as_dict(self) -> dict[str, int | float]:
        """All counters (plus cumulative weave time), keyed by field name."""
        out: dict[str, int | float] = {
            field: getattr(self, field) for field in self.FIELDS
        }
        out["weave_seconds"] = self.weave_seconds
        return out

    def __repr__(self) -> str:
        return (
            f"<VMStats classes={self.classes_loaded} methods={self.methods_stubbed}"
            f" inserts={self.inserts} withdrawals={self.withdrawals}>"
        )


class ProseVM:
    """A run-time weaver over ordinary Python classes."""

    def __init__(self, name: str = "prose"):
        self.name = name
        self.stats = VMStats(vm=name)
        #: Optional :class:`~repro.telemetry.profiler.JoinPointProfiler`
        #: (duck-typed: anything with ``wrap(advice, callback)`` and
        #: ``record_weave(vm, operation, seconds)``).  Attach *before*
        #: inserting aspects — wrapping happens at weave time.
        self.profiler: Any = None
        #: Cumulative seconds spent weaving and unweaving aspects.
        self.weave_seconds = 0.0
        self._loaded: dict[type, _LoadedClass] = {}
        self._insertions: dict[Aspect, _Insertion] = {}

    # -- class loading --------------------------------------------------------

    @property
    def loaded_classes(self) -> tuple[type, ...]:
        """Classes currently instrumented by this VM."""
        return tuple(self._loaded)

    def load_class(self, cls: type, include_inherited: bool = False) -> type:
        """Instrument ``cls`` in place: a copy of each method, with a hook
        table.

        With ``include_inherited=True``, public methods inherited from
        uninstrumented bases are materialized as class-local copies too,
        so crosscuts naming ``cls`` can reach them.  Returns ``cls``.
        """
        if cls in self._loaded:
            return cls
        if not isinstance(cls, type):
            raise WeaveError(f"can only load classes, got {cls!r}")

        record = _LoadedClass(cls)
        self._loaded[cls] = record

        names = list(vars(cls))
        if include_inherited:
            own = set(names)
            for name in dir(cls):
                if name in own or name.startswith("_"):
                    continue
                names.append(name)

        for name in names:
            if name in vars(cls):
                raw = vars(cls)[name]
                inherited = False
            else:
                raw = _find_inherited(cls, name)
                if raw is None:
                    continue
                inherited = True
            if not _is_weavable(name, raw):
                continue
            original = _unwrap(raw)
            if hasattr(original, "__prose_table__"):
                continue  # already a copy (e.g. inherited from a loaded base)
            table = MethodHookTable(
                JoinPoint(JoinPointKind.METHOD, cls, name),
                original,
                static=isinstance(raw, staticmethod),
                owner=self.name,
            )
            if not inherited:
                record.saved_attrs[name] = raw
            record.method_tables[name] = table
            copy: Any = table.function
            if isinstance(raw, staticmethod):
                copy = staticmethod(copy)
            elif isinstance(raw, classmethod):
                copy = classmethod(copy)
            setattr(cls, name, copy)
            self.stats.note("methods_stubbed")

        self.stats.note("classes_loaded")

        # Late loading: weave already-inserted aspects through the new class.
        for insertion in self._insertions.values():
            self._register_on_class(insertion, record)
        return cls

    def unload_class(self, cls: type) -> None:
        """Restore ``cls`` to its original, uninstrumented definition.

        The copies get their own code back too, so references captured
        while the class was loaded run plain.
        """
        record = self._loaded.pop(cls, None)
        if record is None:
            raise ClassNotLoadedError(f"{cls!r} is not loaded in this VM")
        for name, table in record.method_tables.items():
            table.restore()
            if name in record.saved_attrs:
                setattr(cls, name, record.saved_attrs[name])
            else:
                delattr(cls, name)  # materialized inherited copy
            for insertion in self._insertions.values():
                insertion.tables.discard(table)
        record.field_table.restore()
        for insertion in self._insertions.values():
            insertion.tables.discard(record.field_table)

    # -- join point queries ----------------------------------------------------

    def joinpoints(self, kind: JoinPointKind | None = None) -> list[JoinPoint]:
        """All static join points currently hooked (method join points;
        field join points are dynamic and not enumerated)."""
        out = []
        for record in self._loaded.values():
            for table in record.method_tables.values():
                if kind is None or table.joinpoint.kind is kind:
                    out.append(table.joinpoint)
        return out

    def advised_joinpoints(self) -> list[JoinPoint]:
        """Method join points with at least one active advice."""
        return [
            table.joinpoint
            for record in self._loaded.values()
            for table in record.method_tables.values()
            if table.advised
        ]

    def interception_count(self) -> int:
        """Total dispatches through advised join points."""
        total = 0
        for record in self._loaded.values():
            for table in record.method_tables.values():
                total += table.interceptions
            total += record.field_table.interceptions
        return total

    def table_for(self, cls: type, method: str) -> MethodHookTable:
        """The hook table of ``cls.method`` (mainly for tests/benchmarks)."""
        record = self._loaded.get(cls)
        if record is None:
            raise ClassNotLoadedError(f"{cls!r} is not loaded in this VM")
        try:
            return record.method_tables[method]
        except KeyError:
            raise ClassNotLoadedError(
                f"{cls.__name__}.{method} has no hook in this VM"
            ) from None

    # -- aspect insertion -------------------------------------------------------

    @property
    def aspects(self) -> tuple[Aspect, ...]:
        """Aspects currently inserted, in insertion order."""
        return tuple(self._insertions)

    def is_inserted(self, aspect: Aspect) -> bool:
        """True if ``aspect`` is currently woven into this VM."""
        return aspect in self._insertions

    def insert(
        self,
        aspect: Aspect,
        sandbox: AspectSandbox | None = None,
        containment: AdviceContainment | None = None,
    ) -> None:
        """Weave ``aspect`` through all loaded classes, atomically visible.

        If ``sandbox`` is given, every advice callback runs with that
        sandbox current (see :mod:`repro.aop.sandbox`).  If
        ``containment`` is given, each (sandbox-wrapped) callback is
        additionally passed through its :meth:`AdviceContainment.wrap`,
        making the containment barrier the outermost layer around the
        foreign code.
        """
        if aspect in self._insertions:
            raise WeaveError(f"{aspect!r} is already inserted")
        start = perf_counter()
        advices = []
        for advice in aspect.advices():
            if isinstance(advice.crosscut, FieldWriteCut) and advice.kind not in (
                AdviceKind.BEFORE,
                AdviceKind.AFTER,
            ):
                raise WeaveError(
                    "field-write crosscuts support only before/after advice"
                )
            callback = advice.callback
            if sandbox is not None:
                callback = sandbox.wrap(callback)
            if self.profiler is not None:
                # Inside containment: the barrier still sees (and may
                # suppress) advice failures, the profiler still times them.
                callback = self.profiler.wrap(advice, callback)
            if containment is not None:
                callback = containment.wrap(advice, callback)
            advices.append((advice, callback))
        insertion = _Insertion(aspect, advices, sandbox, containment)
        self._insertions[aspect] = insertion
        for record in self._loaded.values():
            self._register_on_class(insertion, record)
        self.stats.note("inserts")
        self._note_weave("prose.weave", "insert", aspect, perf_counter() - start)
        aspect.on_insert(self)

    def withdraw(self, aspect: Aspect) -> None:
        """Remove every trace of ``aspect`` from the VM."""
        insertion = self._insertions.pop(aspect, None)
        if insertion is None:
            raise NotWovenError(f"{aspect!r} is not inserted in this VM")
        start = perf_counter()
        for table in insertion.tables:
            table.remove_aspect(aspect)
        self.stats.note("withdrawals")
        self._note_weave("prose.unweave", "withdraw", aspect, perf_counter() - start)
        aspect.on_withdraw(self)

    def _note_weave(
        self, event: str, operation: str, aspect: Aspect, seconds: float
    ) -> None:
        """Account one (un)weave: cumulative total, telemetry, profiler."""
        self.weave_seconds += seconds
        self.stats.weave_seconds = self.weave_seconds
        recorder = _telemetry.get_recorder()
        if recorder.enabled:
            recorder.observe(
                "prose.weave_seconds", seconds, vm=self.name, operation=operation
            )
            recorder.event(
                event,
                node=self.name,
                aspect=type(aspect).__name__,
                seconds=seconds,
            )
        if self.profiler is not None:
            self.profiler.record_weave(self.name, operation, seconds)

    def withdraw_all(self) -> None:
        """Withdraw every inserted aspect (in reverse insertion order)."""
        for aspect in reversed(list(self._insertions)):
            self.withdraw(aspect)

    def _register_on_class(self, insertion: _Insertion, record: _LoadedClass) -> None:
        for advice, callback in insertion.advices:
            if isinstance(advice.crosscut, FieldWriteCut):
                if self._field_cut_relevant(advice.crosscut, record.cls):
                    record.field_table.add(advice, callback)
                    insertion.tables.add(record.field_table)
                continue
            for table in record.method_tables.values():
                if advice.crosscut.matches(table.joinpoint, table.original):
                    table.add(advice, callback)
                    insertion.tables.add(table)

    @staticmethod
    def _field_cut_relevant(cut: FieldWriteCut, cls: type) -> bool:
        """Could ``cut`` match writes going through ``cls``'s field stub?

        True if the type pattern matches the class, any ancestor, or any
        (current) subclass — subclass instances dispatch through the base
        stub when they do not carry their own.
        """
        if cut.type_pattern.is_universal:
            return True
        for base in cls.__mro__:
            if base is not object and cut.type_pattern.matches(base.__name__):
                return True
        return any(
            cut.type_pattern.matches(sub.__name__) for sub in _all_subclasses(cls)
        )

    def __repr__(self) -> str:
        return (
            f"<ProseVM {self.name!r} classes={len(self._loaded)} "
            f"aspects={len(self._insertions)}>"
        )


def _unwrap(raw: Any) -> Callable[..., Any]:
    if isinstance(raw, (staticmethod, classmethod)):
        return raw.__func__
    return raw


def _find_inherited(cls: type, name: str) -> Any:
    for base in cls.__mro__[1:]:
        if name in vars(base):
            return vars(base)[name]
    return None


def _all_subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)
