"""Assorted AOP edge cases."""

import pytest

from repro.aop import Aspect, MethodCut, ProseVM, before
from repro.aop.signature import parse_signature

from tests.support import TraceAspect, fresh_class


class TestSignatureEdges:
    def test_unintrospectable_callable_matches_only_unconstrained(self):
        unconstrained = parse_signature("*.*")
        constrained = parse_signature("*.*(int)")
        assert unconstrained.matches_callable(dict.update)
        assert not constrained.matches_callable(dict.update)

    def test_repr_round_readable(self):
        sig = parse_signature("void Motor.send*(bytes, ..)")
        text = repr(sig)
        assert "Motor" in text and "send*" in text


class TestVmMisc:
    def test_stats_repr_and_counts(self):
        vm = ProseVM()
        cls = fresh_class()
        vm.load_class(cls)
        trace = TraceAspect()
        vm.insert(trace)
        vm.withdraw(trace)
        assert vm.stats.classes_loaded == 1
        assert vm.stats.inserts == 1
        assert vm.stats.withdrawals == 1
        assert "classes=1" in repr(vm.stats)
        vm.unload_class(cls)

    def test_joinpoints_filtered_by_kind(self):
        from repro.aop.joinpoint import JoinPointKind

        vm = ProseVM()
        cls = fresh_class()
        vm.load_class(cls)
        assert vm.joinpoints(JoinPointKind.METHOD)
        assert vm.joinpoints(JoinPointKind.FIELD_WRITE) == []
        vm.unload_class(cls)

    def test_insert_returns_none_and_orders_aspects(self):
        vm = ProseVM()
        first, second = TraceAspect(), TraceAspect()
        vm.insert(first)
        vm.insert(second)
        assert vm.aspects == (first, second)
