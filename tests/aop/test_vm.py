"""ProseVM weaving tests."""

import pytest

from repro.aop import Aspect, MethodCut, ProseVM, before
from repro.aop.joinpoint import JoinPointKind
from repro.errors import ClassNotLoadedError, NotWovenError, WeaveError

from tests.support import Engine, TraceAspect, fresh_class


@pytest.fixture
def vm():
    return ProseVM()


class TestClassLoading:
    def test_load_creates_method_joinpoints(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        names = {jp.member for jp in vm.joinpoints(JoinPointKind.METHOD)}
        assert {"start", "throttle", "send_telemetry", "get_id"} <= names

    def test_init_is_a_joinpoint(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        assert "__init__" in {jp.member for jp in vm.joinpoints()}

    def test_other_dunders_not_stubbed(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        assert "__repr__" not in {jp.member for jp in vm.joinpoints()}

    def test_load_is_idempotent(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        count = vm.stats.methods_stubbed
        vm.load_class(cls)
        assert vm.stats.methods_stubbed == count

    def test_loaded_class_behaves_identically(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        engine = cls("e1")
        engine.start()
        assert engine.throttle(100) == 900
        assert engine.get_id() == "e1"

    def test_load_non_class_rejected(self, vm):
        with pytest.raises(WeaveError):
            vm.load_class(42)

    def test_unload_restores_original_methods(self, vm):
        cls = fresh_class()
        original_start = vars(cls).get("start")
        vm.load_class(cls)
        vm.unload_class(cls)
        assert not hasattr(cls.start, "__prose_table__")
        engine = cls()
        engine.start()
        assert engine.rpm == 800
        assert original_start is None or vars(cls)["start"] is original_start

    def test_unload_unknown_class_raises(self, vm):
        with pytest.raises(ClassNotLoadedError):
            vm.unload_class(Engine)

    def test_include_inherited_materializes_base_methods(self, vm):
        from tests.support import Turbine

        cls = fresh_class(Turbine)
        vm.load_class(cls, include_inherited=True)
        members = {jp.member for jp in vm.joinpoints()}
        assert "throttle" in members  # inherited from Engine
        assert "spool" in members

    def test_unload_removes_materialized_inherited_stub(self, vm):
        from tests.support import Turbine

        cls = fresh_class(Turbine)
        vm.load_class(cls, include_inherited=True)
        assert "throttle" in vars(cls)  # class-local copy of Engine's
        trace = TraceAspect(type_pattern="Turbine", method_pattern="throttle")
        vm.insert(trace)
        turbine = cls()
        turbine.throttle(5)
        assert trace.trace == [("throttle", (5,))]
        vm.unload_class(cls)
        assert "throttle" not in vars(cls)  # back to plain inheritance
        assert turbine.throttle(5) == 10

    def test_staticmethods_are_stubbed(self, vm):
        class WithStatic:
            @staticmethod
            def helper(x: int) -> int:
                return x * 2

        vm.load_class(WithStatic)
        trace = TraceAspect(method_pattern="helper")
        vm.insert(trace)
        assert WithStatic.helper(21) == 42
        assert trace.trace == [("helper", (21,))]

    def test_classmethods_are_stubbed(self, vm):
        class WithClass:
            count = 3

            @classmethod
            def bump(cls) -> int:
                return cls.count + 1

        vm.load_class(WithClass)
        trace = TraceAspect(method_pattern="bump")
        vm.insert(trace)
        assert WithClass.bump() == 4
        assert trace.trace == [("bump", ())]


class TestInsertWithdraw:
    def test_insert_activates_matching_advice(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        trace = TraceAspect(type_pattern="Engine", method_pattern="start")
        vm.insert(trace)
        cls().start()
        assert trace.trace == [("start", ())]

    def test_non_matching_advice_inactive(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        trace = TraceAspect(type_pattern="Rocket")
        vm.insert(trace)
        cls().start()
        assert trace.trace == []

    def test_withdraw_deactivates(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        trace = TraceAspect(type_pattern="Engine")
        vm.insert(trace)
        engine = cls()
        engine.start()
        vm.withdraw(trace)
        trace.trace.clear()
        engine.start()
        assert trace.trace == []

    def test_double_insert_rejected(self, vm):
        trace = TraceAspect()
        vm.insert(trace)
        with pytest.raises(WeaveError):
            vm.insert(trace)

    def test_withdraw_uninserted_rejected(self, vm):
        with pytest.raises(NotWovenError):
            vm.withdraw(TraceAspect())

    def test_insert_before_class_load_still_weaves(self, vm):
        trace = TraceAspect(type_pattern="Engine", method_pattern="start")
        vm.insert(trace)
        cls = fresh_class()
        vm.load_class(cls)  # class arrives after the aspect
        cls().start()
        assert trace.trace == [("start", ())]

    def test_two_aspects_independent_withdrawal(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        first = TraceAspect(method_pattern="start")
        second = TraceAspect(method_pattern="start")
        vm.insert(first)
        vm.insert(second)
        vm.withdraw(first)
        cls().start()
        assert first.trace == []
        assert len(second.trace) == 1

    def test_withdraw_all(self, vm):
        vm.insert(TraceAspect())
        vm.insert(TraceAspect())
        vm.withdraw_all()
        assert vm.aspects == ()

    def test_is_inserted(self, vm):
        trace = TraceAspect()
        assert not vm.is_inserted(trace)
        vm.insert(trace)
        assert vm.is_inserted(trace)

    def test_advised_joinpoints_reflect_weaving(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        assert vm.advised_joinpoints() == []
        trace = TraceAspect(method_pattern="start")
        vm.insert(trace)
        assert [jp.member for jp in vm.advised_joinpoints()] == ["start"]

    def test_interception_count(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        vm.insert(TraceAspect(method_pattern="start"))
        engine = cls()
        engine.start()
        engine.start()
        engine.throttle(1)  # not advised: fast path, not counted
        assert vm.interception_count() == 2

    def test_lifecycle_hooks_called(self, vm):
        events = []

        class Lifecycle(Aspect):
            def on_insert(self, target_vm):
                events.append(("insert", target_vm))

            def on_withdraw(self, target_vm):
                events.append(("withdraw", target_vm))

            @before(MethodCut(type="*", method="nothing"))
            def advice(self, ctx):
                pass

        aspect = Lifecycle()
        vm.insert(aspect)
        vm.withdraw(aspect)
        assert events == [("insert", vm), ("withdraw", vm)]

    def test_unload_class_detaches_aspect_registrations(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        trace = TraceAspect(method_pattern="start")
        vm.insert(trace)
        vm.unload_class(cls)
        cls().start()
        assert trace.trace == []
        # Re-loading re-weaves the still-inserted aspect.
        vm.load_class(cls)
        cls().start()
        assert len(trace.trace) == 1


class TestCapturedReferences:
    """Methods are copied at load because callers capture them: a bound
    method or ``Cls.method`` taken before an insert shares the copy, so it
    sees its advice (the robot task layer connects
    ``self._hardware_event`` this way)."""

    def test_load_hooks_every_method(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        for joinpoint in vm.joinpoints():
            assert hasattr(vars(cls)[joinpoint.member], "__prose_table__")

    def test_references_captured_before_insert_are_advised(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        engine = cls()
        bound = engine.throttle
        unbound = cls.throttle
        trace = TraceAspect(type_pattern="Engine", method_pattern="throttle")
        vm.insert(trace)
        engine.throttle(1)
        bound(2)
        unbound(engine, 3)
        assert trace.trace == [("throttle", (1,)), ("throttle", (2,)), ("throttle", (3,))]


class TestMultipleVMs:
    def test_second_vm_does_not_restub(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        other = ProseVM(name="other")
        other.load_class(cls)
        assert other.stats.methods_stubbed == 0
