"""Hook-table unit tests (the dispatch machinery directly)."""

import functools

import pytest

from repro.aop import Aspect, MethodCut, ProseVM
from repro.aop.advice import Advice, AdviceKind
from repro.errors import ClassNotLoadedError

from tests.support import TraceAspect, fresh_class


@pytest.fixture
def vm():
    return ProseVM()


class TestMethodHookTable:
    def test_table_lookup(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        table = vm.table_for(cls, "start")
        assert table.joinpoint.member == "start"
        assert not table.advised

    def test_table_for_unknown_class(self, vm):
        with pytest.raises(ClassNotLoadedError):
            vm.table_for(dict, "update")

    def test_table_for_unknown_method(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        with pytest.raises(ClassNotLoadedError):
            vm.table_for(cls, "not_a_method")

    def test_advice_count_and_listing(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        first = TraceAspect(type_pattern="Engine", method_pattern="start")
        second = TraceAspect(type_pattern="Engine", method_pattern="start")
        vm.insert(first)
        vm.insert(second)
        table = vm.table_for(cls, "start")
        assert table.advice_count() == 2
        owners = {advice.aspect for advice in table.advices()}
        assert owners == {first, second}

    def test_remove_aspect_returns_count(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        aspect = TraceAspect(type_pattern="Engine", method_pattern="start")
        vm.insert(aspect)
        table = vm.table_for(cls, "start")
        assert table.remove_aspect(aspect) == 1
        assert table.remove_aspect(aspect) == 0
        assert not table.advised

    def test_interception_counter(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        vm.insert(TraceAspect(type_pattern="Engine", method_pattern="start"))
        table = vm.table_for(cls, "start")
        engine = cls()
        engine.start()
        engine.start()
        assert table.interceptions == 2

    def test_fast_path_not_counted(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        table = vm.table_for(cls, "start")
        cls().start()
        assert table.interceptions == 0


class TestCodegenStubs:
    """Signatures the dispatcher must copy exactly: defaults, variadics,
    keyword-only parameters, names that look like internals, decorated
    methods and a receiver inside ``*args``."""

    def test_defaults_preserved(self, vm):
        class WithDefaults:
            def greet(self, name="world", punctuation="!"):
                return f"hello {name}{punctuation}"

        vm.load_class(WithDefaults)
        obj = WithDefaults()
        assert obj.greet() == "hello world!"
        assert obj.greet("there") == "hello there!"
        assert obj.greet(punctuation="?") == "hello world?"

    def test_var_positional_and_keyword(self, vm):
        class Variadic:
            def collect(self, first, *rest, **options):
                return (first, rest, options)

        vm.load_class(Variadic)
        trace = TraceAspect(type_pattern="Variadic", method_pattern="collect")
        vm.insert(trace)
        obj = Variadic()
        assert obj.collect(1, 2, 3, mode="x") == (1, (2, 3), {"mode": "x"})
        assert trace.trace == [("collect", (1, 2, 3))]

    def test_keyword_only_falls_back_to_generic(self, vm):
        class KwOnly:
            def configure(self, *, retries: int = 3):
                return retries

        vm.load_class(KwOnly)
        trace = TraceAspect(type_pattern="KwOnly", method_pattern="configure")
        vm.insert(trace)
        obj = KwOnly()
        assert obj.configure(retries=7) == 7
        assert len(trace.trace) == 1

    def test_param_named_like_internals_falls_back(self, vm):
        class Weird:
            def run(self, _prose_cell):
                return _prose_cell * 2

        vm.load_class(Weird)
        assert Weird().run(21) == 42

    def test_signature_changing_decorator(self, vm):
        def inject(fn):
            @functools.wraps(fn)  # copies __wrapped__, not the signature
            def wrapper(self, *args):
                return fn(self, 42, *args)

            return wrapper

        class Decorated:
            @inject
            def add(self, x, y):
                return x + y

        assert Decorated().add(1) == 43
        vm.load_class(Decorated)
        assert Decorated().add(1) == 43
        trace = TraceAspect(type_pattern="Decorated", method_pattern="add")
        vm.insert(trace)
        assert Decorated().add(1) == 43
        assert trace.trace == [("add", (1,))]

    def test_receiver_inside_var_positional(self, vm):
        class Packed:
            def count(*args):
                return len(args)

        vm.load_class(Packed)
        seen = []
        aspect = Aspect()
        aspect.add_advice(
            AdviceKind.BEFORE,
            MethodCut(type="Packed", method="count"),
            lambda ctx: seen.append((ctx.target, ctx.args)),
        )
        vm.insert(aspect)
        obj = Packed()
        assert obj.count(1, 2) == 3
        assert seen == [(obj, (1, 2))]

    def test_exceptions_propagate_through_stub(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        with pytest.raises(RuntimeError):
            cls().fail()
        vm.insert(TraceAspect(type_pattern="Engine", method_pattern="fail"))
        with pytest.raises(RuntimeError):
            cls().fail()
