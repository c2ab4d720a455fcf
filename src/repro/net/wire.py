"""Wire-value copying: what a message payload looks like on arrival.

The simulated radio hands each receiver its own copy of the payload, so
two nodes never share mutable state through a message, the discipline a
serializing network imposes.  :func:`clone` is that copy.  It returns
exactly what :func:`copy.deepcopy` returns: equal values of the same
types, the same aliasing and cycles (one copy per input object, through
an ``id()``-keyed memo as ``deepcopy`` keeps), and no mutable object
shared with the input.  It is faster only because it takes direct paths
for what the platform actually sends:

- atoms (``None``, numbers, strings, bytes, classes, functions) are
  returned as they are, as ``deepcopy`` returns them;
- ``dict``, ``list`` and ``tuple`` (exact types, not subclasses) are
  rebuilt inline, in ``deepcopy``'s order;
- a frozen dataclass with a ``__dict__`` and no copy or pickle hooks is
  rebuilt with ``object.__new__`` plus a cloned ``__dict__``: what
  ``deepcopy``'s ``_reconstruct`` does for such a class, minus the
  ``__reduce_ex__`` round trip;
- everything else goes to ``copy.deepcopy`` with the same memo.
"""

from __future__ import annotations

import copy
import copyreg
import types
import weakref
from typing import Any, TypeVar

T = TypeVar("T")

#: Types ``copy.deepcopy`` returns unchanged (its ``_deepcopy_atomic``).
_ATOMIC = frozenset(
    {
        type(None),
        bool,
        int,
        float,
        complex,
        str,
        bytes,
        type,
        range,
        property,
        types.CodeType,
        types.FunctionType,
        types.BuiltinFunctionType,
        type(Ellipsis),
        type(NotImplemented),
        weakref.ref,
    }
)

#: Anything that lets a class steer ``deepcopy`` or pickling away from
#: the plain ``__new__`` + ``__dict__`` rebuild; attribute hooks too,
#: since ``deepcopy`` looks its own hooks up with ``getattr``.
_HOOKS = (
    "__deepcopy__",
    "__reduce__",
    "__reduce_ex__",
    "__getstate__",
    "__setstate__",
    "__getnewargs__",
    "__getnewargs_ex__",
    "__getattr__",
    "__getattribute__",
)

#: class -> may it take the frozen-dataclass path?  Decided once per class.
_plain: dict[type, bool] = {}

_MISSING = object()


def clone(value: T) -> T:
    """A deep copy of ``value``, equal to ``copy.deepcopy(value)``."""
    return _clone(value, {})


def _clone(x: Any, memo: dict[int, Any]) -> Any:
    cls = type(x)
    if cls in _ATOMIC:
        return x
    key = id(x)  # lint: allow(det.unstable-hash) — memo key only; the id never leaves the call, as in copy.deepcopy
    y = memo.get(key, _MISSING)
    if y is not _MISSING:
        return y
    if cls is dict:
        y = {}
        memo[key] = y
        for k, v in x.items():
            y[_clone(k, memo)] = _clone(v, memo)
        return y
    if cls is list:
        y = []
        memo[key] = y
        append = y.append
        for item in x:
            append(_clone(item, memo))
        return y
    if cls is tuple:
        items = [_clone(item, memo) for item in x]
        # A cycle through this tuple may have copied it already.
        y = memo.get(key, _MISSING)
        if y is not _MISSING:
            return y
        for old, new in zip(x, items):
            if old is not new:
                y = memo[key] = tuple(items)
                return y
        return x
    plain = _plain.get(cls)
    if plain is None:
        plain = _plain[cls] = _is_plain_frozen(cls)
    if plain:
        y = object.__new__(cls)
        memo[key] = y
        state = x.__dict__
        if state:
            y.__dict__.update(_clone(state, memo))
        return y
    return copy.deepcopy(x, memo)


def _is_plain_frozen(cls: type) -> bool:
    """A frozen dataclass ``deepcopy`` rebuilds as ``__new__`` + ``__dict__``."""
    params = getattr(cls, "__dataclass_params__", None)
    if params is None or not params.frozen:
        return False
    if not cls.__dictoffset__ or copyreg._slotnames(cls):
        return False
    if cls.__new__ is not object.__new__ or cls in copyreg.dispatch_table:
        return False
    return not any(
        name in vars(base) for base in cls.__mro__[:-1] for name in _HOOKS
    )
