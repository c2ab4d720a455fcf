"""Property tests of the wire-value copier against ``copy.deepcopy``.

:func:`repro.net.wire.clone` promises exactly what ``copy.deepcopy``
returns.  The oracle here is ``deepcopy`` itself, over generated
payloads built from what the platform sends (nested dicts, lists,
tuples and atoms, the transport bodies, envelopes, service items and
movement records) plus types the copier must hand to ``deepcopy``: a
``slots=True`` frozen dataclass, ``OrderedDict``, ``defaultdict``,
``set`` and an object with its own ``__deepcopy__``.  Every payload is
also tried with one list referenced twice and with a list that contains
itself.  Examples are derandomized (fixed seeds), so runs are
reproducible.
"""

from __future__ import annotations

import copy
import dataclasses
from collections import OrderedDict, defaultdict
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.discovery.service import ServiceItem
from repro.midas.envelope import ExtensionEnvelope
from repro.net import wire
from repro.net.transport import _ReplyBody, _RequestBody
from repro.net.wire import clone
from repro.store.database import MovementRecord


@dataclasses.dataclass(frozen=True, slots=True)
class Slotted:
    """A frozen dataclass without a ``__dict__``: deepcopy's business."""

    items: list
    tag: str = "slotted"


@dataclasses.dataclass(frozen=True)
class Hooked:
    """A frozen dataclass with its own ``__deepcopy__``, which says it ran.

    Without the hook this class would take the copier's direct path.
    """

    data: Any
    copied_by_hook: bool = False

    def __deepcopy__(self, memo):
        return Hooked(copy.deepcopy(self.data, memo), copied_by_hook=True)


#: Leaf types the shape walk records by value.
LEAVES = (type(None), bool, int, float, str, bytes, type)
#: Types that may be reachable from both a payload and its copy.
IMMUTABLE = LEAVES + (tuple, frozenset)


def children(obj):
    """The values a payload object holds, in a fixed order."""
    if isinstance(obj, dict):
        out = [part for item in obj.items() for part in item]
        if isinstance(obj, defaultdict):
            out.append(obj.default_factory)
        return out
    if isinstance(obj, (list, tuple)):
        return list(obj)
    if isinstance(obj, (set, frozenset)):
        return sorted(obj, key=repr)
    if dataclasses.is_dataclass(obj):
        return [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    raise AssertionError(f"unexpected payload object {obj!r}")


def shape(value):
    """Types, leaf values and aliasing of ``value``, as a flat list.

    Each non-leaf object is numbered on first visit; a second reference
    to it records that number, so two values have equal shapes exactly
    when they are equal, of the same types, and alias alike.
    """
    seen: dict[int, int] = {}
    out = []

    def visit(obj):
        if type(obj) in LEAVES:
            out.append((type(obj), obj))
            return
        if id(obj) in seen:
            out.append(("ref", seen[id(obj)]))
            return
        seen[id(obj)] = len(seen)
        out.append(type(obj))
        for child in children(obj):
            visit(child)

    visit(value)
    return out


def reachable(value) -> dict[int, object]:
    """Every object reachable from ``value``, by id."""
    found: dict[int, object] = {}
    stack = [value]
    while stack:
        obj = stack.pop()
        if id(obj) in found:
            continue
        found[id(obj)] = obj
        if type(obj) not in LEAVES:
            stack.extend(children(obj))
    return found


def assert_same_as_deepcopy(value):
    expected = copy.deepcopy(value)
    copied = clone(value)
    assert shape(copied) == shape(expected)
    mine, theirs = reachable(value), reachable(copied)
    shared = [mine[key] for key in mine.keys() & theirs.keys()]
    assert all(isinstance(obj, IMMUTABLE) for obj in shared), shared
    return copied


# -- payload strategies --------------------------------------------------------

text = st.text(max_size=6)
atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    text,
    st.binary(max_size=6),
)
keys = st.one_of(text, st.integers(), st.tuples(st.integers(), text))


def envelope(vet_report, capabilities):
    return ExtensionEnvelope(
        name="hw-monitoring",
        payload=b"\x80\x04pickled",
        signer="hall-a",
        signature=b"sig",
        capabilities=capabilities,
        vet_report=vet_report,
        vet_signature=b"vet-sig",
    )


def extend(children_):
    small_dicts = st.dictionaries(keys, children_, max_size=3)
    return st.one_of(
        st.lists(children_, max_size=4),
        st.lists(children_, max_size=3).map(tuple),
        st.dictionaries(keys, children_, max_size=4),
        st.builds(_RequestBody, text, text, children_),
        st.builds(_ReplyBody, text, text, children_, st.none() | text),
        st.builds(
            envelope,
            st.dictionaries(text, children_, max_size=3),
            st.frozensets(text, max_size=3),
        ),
        st.builds(ServiceItem, text, text, st.dictionaries(text, children_, max_size=3)),
        st.builds(
            MovementRecord,
            text,
            text,
            text,
            st.lists(children_, max_size=3).map(tuple),
            st.floats(allow_nan=False),
        ),
        st.builds(Slotted, st.lists(children_, max_size=3)),
        small_dicts.map(OrderedDict),
        small_dicts.map(lambda d: defaultdict(list, d)),
        st.sets(st.integers() | text, max_size=4),
        st.builds(Hooked, children_),
    )


payloads = st.recursive(atoms, extend, max_leaves=16)


@st.composite
def wire_values(draw):
    """A payload, alone, with a list referenced twice, or inside a cycle.

    The cycles run through a list, through a tuple entered first, and
    through a frozen dataclass, each a place where the copy of an object
    must be remembered before its contents are copied.
    """
    value = draw(payloads)
    form = draw(st.sampled_from(["alone", "shared", "loop", "tuple loop", "body loop"]))
    if form == "alone":
        return value
    if form == "shared":
        shared = [value]
        return {"first": shared, "again": (shared, _RequestBody("r", "op", shared))}
    loop = [value]
    if form == "loop":
        loop.append(loop)
        return {"loop": loop, "alias": (loop,)}
    entry = (loop,) if form == "tuple loop" else _RequestBody("r", "op", loop)
    loop.append(entry)
    return entry


class TestCloneMatchesDeepcopy:
    @given(wire_values())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_same_values_types_and_aliasing_and_nothing_mutable_shared(self, value):
        assert_same_as_deepcopy(value)

    def test_list_referenced_twice_is_copied_once(self):
        shared = [1, {"k": "v"}]
        copied = assert_same_as_deepcopy({"a": shared, "b": [shared, (shared,)]})
        assert copied["a"] is copied["b"][0] is copied["b"][1][0]
        assert copied["a"] is not shared

    def test_list_that_contains_itself(self):
        loop = ["x"]
        loop.append(loop)
        copied = assert_same_as_deepcopy(loop)
        assert copied[1] is copied and copied is not loop

    def test_tuple_of_atoms_is_returned_as_deepcopy_returns_it(self):
        atoms_only = (1, "a", None)
        assert clone(atoms_only) is copy.deepcopy(atoms_only) is atoms_only

    def test_custom_deepcopy_hook_runs(self):
        hooked = Hooked([1, 2])
        copied = assert_same_as_deepcopy({"h": hooked, "again": hooked})
        assert copied["h"].copied_by_hook and copied["h"] is copied["again"]
        assert copied["h"].data == [1, 2] and copied["h"].data is not hooked.data

    def test_slotted_dataclass_goes_to_deepcopy_with_the_shared_memo(self):
        inner = [1]
        copied = assert_same_as_deepcopy({"s": Slotted(inner), "inner": inner})
        assert copied["s"].items is copied["inner"]


class TestDirectPaths:
    """The platform's wire types never reach ``copy.deepcopy``."""

    def test_atoms_are_exactly_the_types_deepcopy_returns_unchanged(self):
        atomic = {
            cls for cls, copier in copy._deepcopy_dispatch.items()
            if copier is copy._deepcopy_atomic
        }
        assert wire._ATOMIC == atomic

    def test_wire_types_are_rebuilt_without_deepcopy(self, monkeypatch):
        def refuse(value, memo=None):
            raise AssertionError(f"deepcopy reached for {type(value).__name__}")

        value = _RequestBody(
            "req-1",
            "midas.keepalive",
            {
                "leases": ["l1", "l2"],
                "item": ServiceItem("Hall", "base-a", {"hall": "a"}),
                "record": MovementRecord("r1", "arm", "move", (1, 2.0), 3.0),
                "reply": _ReplyBody("req-0", "op", (1, [2]), None),
            },
        )
        expected = copy.deepcopy(value)
        monkeypatch.setattr(wire.copy, "deepcopy", refuse)
        assert shape(clone(value)) == shape(expected)

    @pytest.mark.parametrize(
        "cls", [_RequestBody, _ReplyBody, ExtensionEnvelope, ServiceItem, MovementRecord]
    )
    def test_frozen_wire_dataclasses_take_the_direct_path(self, cls):
        assert wire._is_plain_frozen(cls)

    @pytest.mark.parametrize("cls", [Slotted, Hooked, OrderedDict])
    def test_slots_hooks_and_other_types_do_not(self, cls):
        assert not wire._is_plain_frozen(cls)

    @pytest.mark.parametrize("hook", wire._HOOKS)
    def test_any_copy_or_pickle_hook_sends_a_frozen_dataclass_to_deepcopy(self, hook):
        cls = dataclasses.make_dataclass(
            "WithHook", [("x", int)], frozen=True, namespace={hook: lambda self, *a: None}
        )
        assert not wire._is_plain_frozen(cls)
