"""Dynamic execution contexts passed to advice.

When an advised method is called, its dispatch closure builds a context
describing the dynamic join point — the target object, arguments, result
or exception — and hands it to every piece of advice.  Advice
communicates back through the same object: a ``before`` advice may
rewrite ``args`` (the paper's encryption example), an ``around`` advice
calls :meth:`ExecutionContext.proceed`, an ``after`` advice may replace
``result``.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.aop.joinpoint import JoinPoint

_MISSING = object()


class ExecutionContext:
    """The dynamic context of one intercepted method execution."""

    __slots__ = (
        "joinpoint",
        "target",
        "args",
        "kwargs",
        "result",
        "exception",
        "session",
        "proceeded",
        "escaped",
        "_original",
        "_arounds",
        "_depth",
        "_last_proceed",
    )

    def __init__(
        self,
        joinpoint: JoinPoint,
        target: Any,
        args: tuple[Any, ...],
        kwargs: dict[str, Any],
        original: Callable[..., Any],
        arounds: tuple[Callable[["ExecutionContext"], Any], ...] = (),
    ):
        self.joinpoint = joinpoint
        #: The object the method was invoked on.
        self.target = target
        #: Positional arguments; advice may replace this tuple.
        self.args = args
        #: Keyword arguments; advice may mutate or replace this dict.
        self.kwargs = kwargs
        #: Return value, available to ``after`` advice (and replaceable).
        self.result: Any = None
        #: The escaping exception, available to ``after_throwing`` advice.
        self.exception: BaseException | None = None
        #: Scratch space shared by all advice of this execution.  The
        #: session-management extension stores caller identity here for the
        #: access-control extension to read (Fig. 2, steps 2-3).
        self.session: dict[str, Any] = {}
        #: Number of :meth:`proceed` calls that completed normally.  The
        #: supervision layer reads this to tell whether a failing
        #: ``around`` advice already ran the rest of the chain.
        self.proceeded = 0
        #: The exception (if any) that escaped :meth:`proceed` — i.e. one
        #: raised by the application (or deeper advice), not by the advice
        #: currently on top.  Containment barriers let it pass through.
        self.escaped: BaseException | None = None
        self._original = original
        self._arounds = arounds
        self._depth = -1
        self._last_proceed: Any = None

    @property
    def method_name(self) -> str:
        """Name of the intercepted method."""
        return self.joinpoint.member

    def proceed(self) -> Any:
        """Continue to the next ``around`` advice, or the real method.

        Only meaningful inside ``around`` advice (the dispatcher also uses
        it to start the chain).  Each level may call it zero times (to
        short-circuit) or once; calling it repeatedly re-executes the
        remainder of the chain, which around-caching advice may exploit.
        """
        self._depth += 1
        try:
            if self._depth < len(self._arounds):
                value = self._arounds[self._depth](self)
            else:
                value = self._original(self.target, *self.args, **self.kwargs)
        except BaseException as exc:
            self.escaped = exc
            raise
        finally:
            self._depth -= 1
        self.proceeded += 1
        self._last_proceed = value
        return value

    def __repr__(self) -> str:
        return f"<ExecutionContext {self.joinpoint.class_name}.{self.method_name}>"


class FieldWriteContext:
    """The dynamic context of one intercepted field assignment."""

    __slots__ = ("joinpoint", "target", "field", "old_value", "new_value", "_had_old")

    def __init__(
        self,
        joinpoint: JoinPoint,
        target: Any,
        field: str,
        old_value: Any = _MISSING,
        new_value: Any = None,
    ):
        self.joinpoint = joinpoint
        self.target = target
        #: Name of the field being assigned.
        self.field = field
        self._had_old = old_value is not _MISSING
        #: Previous value (None if the field did not exist yet).
        self.old_value = None if old_value is _MISSING else old_value
        #: Value being assigned; ``before`` advice may replace it.
        self.new_value = new_value

    @property
    def is_initialization(self) -> bool:
        """True when the field is being created rather than updated."""
        return not self._had_old

    def __repr__(self) -> str:
        return (
            f"<FieldWriteContext {self.joinpoint.class_name}.{self.field} "
            f"= {self.new_value!r}>"
        )


AdviceCallable = Callable[[ExecutionContext], Any]
FieldAdviceCallable = Callable[[FieldWriteContext], Any]


def snapshot_call(ctx: ExecutionContext) -> Mapping[str, Any]:
    """A serializable summary of a call context (used by logging advice)."""
    return {
        "class": ctx.joinpoint.class_name,
        "method": ctx.method_name,
        "args": ctx.args,
        "kwargs": dict(ctx.kwargs),
    }
