"""Weaving against an oracle.

Random scripts mix method calls (through attribute lookup, and through a
bound method and a ``Cls.method`` captured right after ``load_class``),
field writes, and inserts and withdrawals of method and field recorders.
Four things must hold:

- the woven class computes exactly what a pristine copy computes;
- every recorder sees exactly the calls and writes a model predicts,
  the writes taken from a pristine copy with a logging ``__setattr__``;
- the class carries its own ``__setattr__`` exactly while a field advice
  is active, and unloading leaves it pristine;
- a method runs its own code exactly while no method advice applies to
  it, and unloading leaves the original functions' code untouched.

Examples are derandomized (fixed seeds), so runs are reproducible.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.aop import Aspect, FieldWriteCut, MethodCut, ProseVM
from repro.aop.advice import AdviceKind

METHODS = ("alpha", "beta", "gamma")
FIELDS = ("x", "y")
CALLS = ("call", "call_bound", "call_unbound")

SOURCE = """
class App:
    def __init__(self):
        self.x = 0
        self.y = 0

    def alpha(self, v):
        return v * 2

    def beta(self, v):
        self.x = v
        return v + 1

    def gamma(self, v):
        self.y = self.x + v
        return self.y
"""


def make_app_class() -> type:
    namespace: dict = {}
    exec(SOURCE, namespace)  # noqa: S102 - a fresh class per example
    return namespace["App"]


class MethodRecorder(Aspect):
    def __init__(self, method):
        super().__init__()
        self.seen = []
        self.add_advice(AdviceKind.BEFORE, MethodCut(type="App", method=method), self.record)

    def record(self, ctx):
        self.seen.append((ctx.method_name, ctx.args))


class FieldRecorder(Aspect):
    def __init__(self, field):
        super().__init__()
        self.seen = []
        self.add_advice(AdviceKind.AFTER, FieldWriteCut(type="App", field=field), self.record)

    def record(self, ctx):
        self.seen.append((ctx.field, ctx.old_value, ctx.new_value))


def pristine_spy():
    """A pristine ``App`` whose writes land in the returned log."""
    log = []

    class Spy(make_app_class()):
        def __setattr__(self, name, value):
            log.append((name, self.__dict__.get(name), value))
            object.__setattr__(self, name, value)

    return Spy(), log


scripts = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(CALLS), st.sampled_from(METHODS), st.integers(-5, 5)),
        st.tuples(st.just("write"), st.sampled_from(FIELDS), st.integers(-5, 5)),
        st.tuples(st.just("advise_method"), st.sampled_from(METHODS), st.just(0)),
        st.tuples(st.just("advise_field"), st.sampled_from(FIELDS), st.just(0)),
        st.tuples(st.just("withdraw"), st.just(""), st.integers(0, 7)),
    ),
    max_size=30,
)


class TestWeavingOracle:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(scripts)
    def test_matches_pristine_class_and_model(self, script):
        vm = ProseVM()
        cls = make_app_class()
        originals = dict(vars(cls))
        own_code = {name: originals[name].__code__ for name in METHODS}
        vm.load_class(cls)
        app = cls()
        bound = {name: getattr(app, name) for name in METHODS}
        unbound = {name: getattr(cls, name) for name in METHODS}
        oracle, log = pristine_spy()

        # recorder -> (kind, member, expected trace), for active recorders
        active: dict[Aspect, tuple[str, str, list]] = {}
        recorders: list[tuple[Aspect, list]] = []
        for action, member, value in script:
            log.clear()
            if action == "call":
                assert getattr(app, member)(value) == getattr(oracle, member)(value)
            elif action == "call_bound":
                assert bound[member](value) == getattr(oracle, member)(value)
            elif action == "call_unbound":
                assert unbound[member](app, value) == getattr(oracle, member)(value)
            elif action == "write":
                setattr(app, member, value)
                setattr(oracle, member, value)
            elif action == "withdraw":
                if active:
                    aspect = list(active)[value % len(active)]
                    vm.withdraw(aspect)
                    del active[aspect]
            else:
                kind = "method" if action == "advise_method" else "field"
                aspect = MethodRecorder(member) if kind == "method" else FieldRecorder(member)
                expected: list = []
                vm.insert(aspect)
                active[aspect] = (kind, member, expected)
                recorders.append((aspect, expected))

            for kind, watched, trace in active.values():
                if kind == "method" and action in CALLS and watched == member:
                    trace.append((member, (value,)))
                elif kind == "field":
                    trace.extend(write for write in log if write[0] == watched)
            assert (app.x, app.y) == (oracle.x, oracle.y)
            has_field_advice = any(kind == "field" for kind, _, _ in active.values())
            assert ("__setattr__" in vars(cls)) == has_field_advice
            advised = {watched for kind, watched, _ in active.values() if kind == "method"}
            for name in METHODS:
                assert (vars(cls)[name].__code__ is own_code[name]) == (name not in advised)

        for aspect, expected in recorders:
            assert aspect.seen == expected
        vm.unload_class(cls)
        assert dict(vars(cls)) == originals
        for name in METHODS:
            assert originals[name].__code__ is own_code[name]
            assert bound[name].__func__.__code__ is own_code[name]
