"""Field-write join point tests."""

import pytest

from repro.aop import Aspect, FieldWriteCut, ProseVM
from repro.aop.advice import AdviceKind
from repro.errors import WeaveError

from tests.support import FieldTraceAspect, fresh_class


@pytest.fixture
def vm():
    return ProseVM()


@pytest.fixture
def cls(vm):
    klass = fresh_class()
    vm.load_class(klass)
    return klass


class TestFieldInterception:
    def test_write_intercepted_with_old_and_new(self, vm, cls):
        aspect = FieldTraceAspect(type_pattern="Engine", field_pattern="rpm")
        vm.insert(aspect)
        engine = cls()
        engine.rpm = 1000
        writes = [w for w in aspect.writes if w[0] == "rpm"]
        assert (("rpm", 0, 1000)) in writes

    def test_initialization_writes_seen(self, vm):
        aspect = FieldTraceAspect(field_pattern="rpm")
        vm.insert(aspect)
        cls = fresh_class()
        vm.load_class(cls)
        cls()
        assert ("rpm", None, 0) in aspect.writes

    def test_non_matching_fields_untouched(self, vm, cls):
        aspect = FieldTraceAspect(field_pattern="rpm")
        vm.insert(aspect)
        engine = cls()
        aspect.writes.clear()
        engine.log = ["x"]
        assert aspect.writes == []

    def test_withdraw_stops_interception(self, vm, cls):
        aspect = FieldTraceAspect(field_pattern="rpm")
        vm.insert(aspect)
        engine = cls()
        vm.withdraw(aspect)
        aspect.writes.clear()
        engine.rpm = 5
        assert aspect.writes == []

    def test_writes_still_take_effect(self, vm, cls):
        vm.insert(FieldTraceAspect())
        engine = cls()
        engine.rpm = 123
        assert engine.rpm == 123

    def test_before_advice_can_rewrite_value(self, vm, cls):
        class Clamp(Aspect):
            def __init__(self):
                super().__init__()
                self.add_advice(
                    AdviceKind.BEFORE,
                    FieldWriteCut(type="Engine", field="rpm"),
                    self.clamp,
                )

            def clamp(self, ctx):
                if isinstance(ctx.new_value, int) and ctx.new_value > 100:
                    ctx.new_value = 100

        vm.insert(Clamp())
        engine = cls()
        engine.rpm = 5000
        assert engine.rpm == 100

    def test_around_on_field_cut_rejected(self, vm):
        class Bad(Aspect):
            def __init__(self):
                super().__init__()
                self.add_advice(
                    AdviceKind.AROUND, FieldWriteCut(type="*", field="*"), self.advice
                )

            def advice(self, ctx):
                pass

        with pytest.raises(WeaveError):
            vm.insert(Bad())

    def test_subclass_instances_matched_dynamically(self, vm):
        from tests.support import Turbine

        base = fresh_class()  # Engine clone

        class Turbo(base):  # subclass defined after, not separately loaded
            pass

        vm.load_class(base)
        aspect = FieldTraceAspect(type_pattern="Turbo", field_pattern="rpm")
        vm.insert(aspect)
        base().rpm = 1  # an Engine, not a Turbo: no match
        count_after_base = len([w for w in aspect.writes if w[0] == "rpm" and w[2] == 1])
        Turbo().rpm = 2
        turbo_writes = [w for w in aspect.writes if w[0] == "rpm" and w[2] == 2]
        assert count_after_base == 0
        assert turbo_writes

    def test_slots_classes_supported(self, vm):
        class Slotted:
            __slots__ = ("value",)

            def __init__(self):
                self.value = 0

        vm.load_class(Slotted)
        aspect = FieldTraceAspect(type_pattern="Slotted")
        vm.insert(aspect)
        obj = Slotted()
        obj.value = 9
        assert ("value", None, 9) in aspect.writes
        assert obj.value == 9

    def test_unload_restores_setattr(self, vm):
        cls = fresh_class()
        vm.load_class(cls)
        vm.insert(FieldTraceAspect(type_pattern="Engine", field_pattern="rpm"))
        assert hasattr(cls.__setattr__, "__prose_field_table__")
        vm.unload_class(cls)
        assert not hasattr(cls.__setattr__, "__prose_field_table__")
        engine = cls()
        engine.rpm = 7
        assert engine.rpm == 7

    def test_custom_setattr_preserved(self, vm):
        class Custom:
            def __init__(self):
                self.history = []

            def __setattr__(self, name, value):
                object.__setattr__(self, name, value)
                if name != "history":
                    self.history.append(name)

        vm.load_class(Custom)
        aspect = FieldTraceAspect(type_pattern="Custom", field_pattern="speed")
        vm.insert(aspect)
        obj = Custom()
        obj.speed = 3
        assert obj.speed == 3
        assert "speed" in obj.history  # original __setattr__ still runs
        assert ("speed", None, 3) in aspect.writes


class TestSetattrStubOnDemand:
    """A class carries a ``__setattr__`` stub only while field advice
    applies to it: every write looks up ``type(obj).__setattr__`` again,
    so planting the stub late loses no write."""

    def test_load_plants_no_stub(self, vm, cls):
        assert "__setattr__" not in vars(cls)
        engine = cls()
        engine.rpm = 7
        assert engine.rpm == 7

    def test_stub_comes_on_insert_and_goes_on_withdraw(self, vm, cls):
        engine = cls()  # created before the stub exists
        aspect = FieldTraceAspect(type_pattern="Engine", field_pattern="rpm")
        vm.insert(aspect)
        assert "__setattr__" in vars(cls)
        engine.rpm = 5
        assert aspect.writes == [("rpm", 0, 5)]
        vm.withdraw(aspect)
        assert "__setattr__" not in vars(cls)
        engine.rpm = 6
        assert aspect.writes == [("rpm", 0, 5)]

    def test_method_advice_plants_no_stub(self, vm, cls):
        from tests.support import TraceAspect

        vm.insert(TraceAspect(type_pattern="Engine"))
        assert "__setattr__" not in vars(cls)

    def test_stub_stays_while_second_aspect_remains(self, vm, cls):
        first = FieldTraceAspect(type_pattern="Engine", field_pattern="rpm")
        second = FieldTraceAspect(type_pattern="Engine", field_pattern="log")
        vm.insert(first)
        vm.insert(second)
        vm.withdraw(first)
        assert "__setattr__" in vars(cls)
        engine = cls()
        assert ("log", None, []) in second.writes
        assert not any(write[0] == "rpm" for write in first.writes)
        vm.withdraw(second)
        assert "__setattr__" not in vars(cls)
        engine.rpm = 1
        assert engine.rpm == 1

    def test_unload_while_advised_removes_stub(self, vm, cls):
        aspect = FieldTraceAspect(type_pattern="Engine")
        vm.insert(aspect)
        vm.unload_class(cls)
        assert "__setattr__" not in vars(cls)
        aspect.writes.clear()
        cls().rpm = 3
        assert aspect.writes == []
        vm.withdraw(aspect)  # the unloaded class is no longer touched
        assert "__setattr__" not in vars(cls)

    def test_own_setattr_restored_on_withdraw(self, vm):
        class Custom:
            def __setattr__(self, name, value):
                object.__setattr__(self, name, value * 2)

        own = vars(Custom)["__setattr__"]
        vm.load_class(Custom)
        aspect = FieldTraceAspect(type_pattern="Custom")
        vm.insert(aspect)
        assert vars(Custom)["__setattr__"] is not own
        obj = Custom()
        obj.speed = 2
        assert obj.speed == 4
        vm.withdraw(aspect)
        assert vars(Custom)["__setattr__"] is own
        vm.insert(aspect)
        vm.unload_class(Custom)
        assert vars(Custom)["__setattr__"] is own

    @pytest.mark.parametrize("base_first", [True, False])
    def test_loaded_base_and_subclass_intercept_once(self, vm, base_first):
        base = fresh_class()

        class Sub(base):
            pass

        for klass in ((base, Sub) if base_first else (Sub, base)):
            vm.load_class(klass)
        aspect = FieldTraceAspect(field_pattern="rpm")
        vm.insert(aspect)
        assert "__setattr__" in vars(base) and "__setattr__" in vars(Sub)
        aspect.writes.clear()
        Sub().rpm = 4
        assert aspect.writes == [("rpm", None, 0), ("rpm", 0, 4)]
        vm.withdraw(aspect)
        assert "__setattr__" not in vars(base) and "__setattr__" not in vars(Sub)
