"""The method dispatcher.

A loaded method runs its own code until advice arrives.  The dispatcher
that advice swaps in keeps the method's signature, closure, name and
source position, and the last withdrawal puts the method's code back.
"""

import gc
import inspect
import traceback
import weakref

import pytest

from repro.aop import Aspect, MethodCut, ProseVM
from repro.aop.advice import AdviceKind

from tests.support import TraceAspect, fresh_class


@pytest.fixture
def vm():
    return ProseVM()


def spy(type_pattern, method_pattern="*"):
    """An aspect recording ``(method, target, args, kwargs)`` per call."""
    seen = []
    aspect = Aspect()
    aspect.add_advice(
        AdviceKind.BEFORE,
        MethodCut(type=type_pattern, method=method_pattern),
        lambda ctx: seen.append(
            (ctx.method_name, ctx.target, ctx.args, dict(ctx.kwargs))
        ),
    )
    return aspect, seen


def code_of(cls, name):
    raw = vars(cls)[name]
    return getattr(raw, "__func__", raw).__code__


def round_trip(vm, cls, name, call):
    """Run ``call`` unadvised, advised and withdrawn; it must compute the
    same each time, and the method must run its own code when unadvised.
    Returns what the advice saw."""
    vm.load_class(cls)
    own = code_of(cls, name)
    plain = call()
    aspect, seen = spy(cls.__name__, name)
    vm.insert(aspect)
    assert code_of(cls, name) is not own
    assert call() == plain
    vm.withdraw(aspect)
    assert code_of(cls, name) is own
    assert call() == plain
    return seen


class TestHardSignatures:
    def test_positional_only_and_keyword_only(self, vm):
        class Signed:
            def split(self, a, /, b, *, c=3, **rest):
                return (a, b, c, rest)

        obj = Signed()
        seen = round_trip(
            vm, Signed, "split", lambda: (obj.split(1, 2), obj.split(1, b=2, c=4, z=5))
        )
        assert [entry[2:] for entry in seen] == [
            ((1, 2), {"c": 3}),
            ((1, 2), {"c": 4, "z": 5}),
        ]

    def test_receiver_inside_var_positional(self, vm):
        class Packed:
            def count(*args):
                return len(args)

        obj = Packed()
        seen = round_trip(vm, Packed, "count", lambda: obj.count(1, 2))
        assert seen == [("count", obj, (1, 2), {})]

    def test_lambda_defined_method(self, vm):
        class Lambda:
            double = lambda self, x: 2 * x  # noqa: E731 - the case under test

        obj = Lambda()
        seen = round_trip(vm, Lambda, "double", lambda: obj.double(21))
        assert seen == [("double", obj, (21,), {})]

    def test_staticmethod(self, vm):
        class Static:
            @staticmethod
            def scale(x, factor=2):
                return x * factor

        seen = round_trip(vm, Static, "scale", lambda: (Static.scale(3), Static().scale(3, 3)))
        assert [entry[1:3] for entry in seen] == [(None, (3, 2)), (None, (3, 3))]

    def test_classmethod(self, vm):
        class Counted:
            base = 40

            @classmethod
            def bump(cls, by):
                return cls.base + by

        seen = round_trip(vm, Counted, "bump", lambda: Counted.bump(2))
        assert seen == [("bump", Counted, (2,), {})]

    def test_generator(self, vm):
        class Gen:
            def upto(self, n):
                yield from range(n)

        obj = Gen()
        seen = round_trip(vm, Gen, "upto", lambda: list(obj.upto(3)))
        assert seen == [("upto", obj, (3,), {})]

    def test_super_and_closure_cells(self, vm):
        step = 10

        class Base:
            def grow(self, x):
                return x + 1

        class Sub(Base):
            def grow(self, x):
                return super().grow(x) * step

        assert len(Sub.grow.__code__.co_freevars) == 2  # __class__ and step
        obj = Sub()
        seen = round_trip(vm, Sub, "grow", lambda: obj.grow(1))
        assert seen == [("grow", obj, (1,), {})]


class TestIntrospection:
    def test_signature_reads_the_same_advised(self, vm):
        class Annotated:
            def send(self, data: bytes, /, priority: int = 0, *, retries: int = 3) -> bytes:
                return data

        unadvised = inspect.signature(Annotated.send)
        vm.load_class(Annotated)
        bound = Annotated().send
        bound_unadvised = inspect.signature(bound)
        assert inspect.signature(Annotated.send) == unadvised
        vm.insert(spy("Annotated")[0])
        assert inspect.signature(Annotated.send) == unadvised
        assert inspect.signature(bound) == bound_unadvised

    def test_traceback_names_the_body_file_and_line(self, vm):
        class Faulty:
            def fail(self):
                raise ValueError("fail")

        vm.load_class(Faulty)
        vm.insert(spy("Faulty")[0])
        def_line = Faulty.fail.__code__.co_firstlineno  # the dispatcher's
        with pytest.raises(ValueError) as caught:
            Faulty().fail()
        frames = [
            (frame.filename, frame.lineno, frame.name)
            for frame in traceback.extract_tb(caught.value.__traceback__)
        ]
        assert frames[-1] == (__file__, def_line + 1, "fail")
        assert (__file__, def_line, "fail") in frames


class TestNonJoinPoints:
    def test_builtin_staticmethod_stays_as_it_was(self, vm):
        class Sized:
            size = staticmethod(len)

        raw = vars(Sized)["size"]
        vm.load_class(Sized)
        assert vars(Sized)["size"] is raw
        assert "size" not in {joinpoint.member for joinpoint in vm.joinpoints()}
        aspect, seen = spy("*")
        vm.insert(aspect)
        assert Sized.size("abc") == 3
        assert seen == []


class TestKeywordOnlyArguments:
    def test_defaults_reach_ctx_kwargs(self, vm):
        """Keyword-only parameters reach the advice as bound, defaults
        included, as positional ones reach ``ctx.args``."""

        class Configured:
            def configure(self, limit=1, *, retries=3):
                return (limit, retries)

        vm.load_class(Configured)
        aspect, seen = spy("Configured")
        vm.insert(aspect)
        assert Configured().configure() == (1, 3)
        assert [entry[2:] for entry in seen] == [((1,), {"retries": 3})]


class TestUnloadAndCollection:
    def test_unload_puts_code_back_under_captured_references(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        engine = cls()
        bound = engine.throttle
        trace = TraceAspect(type_pattern="Engine", method_pattern="throttle")
        vm.insert(trace)
        vm.unload_class(cls)
        assert bound.__func__.__code__ is cls.throttle.__code__
        assert bound(5) == 5
        assert trace.trace == []

    def test_dropped_advised_world_is_collected(self):
        vm = ProseVM()
        cls = fresh_class()
        vm.load_class(cls)
        aspect = TraceAspect(type_pattern="Engine")
        vm.insert(aspect)
        cls().start()
        assert ("start", ()) in aspect.trace
        refs = (weakref.ref(aspect), weakref.ref(cls))
        del vm, cls, aspect
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
