"""Shared test application code.

Aspects and application classes used across the suite live here at module
level so they are picklable (extension envelopes serialize aspect
instances with :mod:`pickle`, mirroring code shipping in the original
platform).

IMPORTANT: :class:`ProseVM.load_class` rewrites classes *in place*, so
tests must not instrument these shared classes directly — use the
``fresh_*`` factories, which clone a class per test.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Callable

from repro.aop import Aspect, Capability, MethodCut, REST, before
from repro.aop.advice import AdviceKind
from repro.aop.crosscut import FieldWriteCut


def export_artifacts(
    name: str, records: Callable[[], list[dict[str, Any]]]
) -> Path | None:
    """Write one run artifact, ``<name>.jsonl``, for triage.

    No-op unless ``REPRO_ARTIFACTS_DIR`` is set: CI sets it for the chaos,
    supervision and scenarios jobs and uploads the directory when a job
    fails, so a red run ships its records (flight rings, spans and node
    records included), and ``python -m repro obs <name>.jsonl --view
    inspect|tower|summary`` renders them without a rerun.  ``records``
    is called only when enabled, so locally (unset) this costs nothing.
    Returns the file written, or ``None`` when disabled.
    """
    root = os.environ.get("REPRO_ARTIFACTS_DIR")
    if not root:
        return None
    from repro.telemetry import write_jsonl

    path = Path(root) / f"{name}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_jsonl(records(), path)
    return path


class Engine:
    """A toy application class with annotated methods."""

    def __init__(self, engine_id: str = "engine-0"):
        self.engine_id = engine_id
        self.rpm = 0
        self.log: list[str] = []

    def start(self) -> None:
        self.log.append("start")
        self.rpm = 800

    def throttle(self, amount: int) -> int:
        self.rpm += amount
        return self.rpm

    def send_telemetry(self, data: bytes, priority: int = 0) -> bytes:
        self.log.append("telemetry")
        return data

    def receive_command(self, data: bytes) -> bytes:
        self.log.append("command")
        return data

    def fail(self) -> None:
        raise RuntimeError("engine failure")

    def get_id(self) -> str:
        return self.engine_id


class Turbine(Engine):
    """A subclass, for MRO-based type-pattern tests."""

    def spool(self, rate: float) -> float:
        self.rpm += int(rate * 100)
        return rate


def fresh_class(base: type = Engine) -> type:
    """A per-test clone of an application class (safe to instrument).

    The clone carries copies of the base's own methods in its own class
    dict, so instrumenting it never touches the shared original.

    Limitation: methods using zero-argument ``super()`` keep their
    compiled ``__class__`` cell pointing at the *original* class and will
    break on clone instances.  For such classes, instrument the real
    class in a VM fixture that unloads at teardown instead.
    """
    namespace = {
        key: value
        for key, value in vars(base).items()
        if key not in ("__dict__", "__weakref__")
    }
    return type(base.__name__, base.__bases__, namespace)


class TraceAspect(Aspect):
    """Records every interception into ``self.trace`` (picklable)."""

    def __init__(self, type_pattern: str = "*", method_pattern: str = "*"):
        super().__init__()
        self.trace: list[tuple[str, tuple]] = []
        self.add_advice(
            kind=AdviceKind.BEFORE,
            crosscut=MethodCut(type=type_pattern, method=method_pattern, params=(REST,)),
            callback=self.record,
        )

    def record(self, ctx) -> None:
        self.trace.append((ctx.method_name, ctx.args))


class FieldTraceAspect(Aspect):
    """Records field writes into ``self.writes``."""

    def __init__(self, type_pattern: str = "*", field_pattern: str = "*"):
        super().__init__()
        self.writes: list[tuple[str, Any, Any]] = []
        self.add_advice(
            kind=AdviceKind.AFTER,
            crosscut=FieldWriteCut(type=type_pattern, field=field_pattern),
            callback=self.record,
        )

    def record(self, ctx) -> None:
        self.writes.append((ctx.field, ctx.old_value, ctx.new_value))


class CleanShutdownAspect(TraceAspect):
    """Records its lifecycle order (shutdown before withdrawal)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.events: list[str] = []

    def shutdown(self) -> None:
        self.events.append("shutdown")

    def on_withdraw(self, vm) -> None:
        self.events.append("withdraw")


class QualityControl(Aspect):
    """Fig. 2's quality-assurance extension: propagates state changes
    (field writes) of the adapted service to the base station."""

    REQUIRED_CAPABILITIES = frozenset({Capability.NETWORK})

    def __init__(self, owner, type_pattern: str = "*", field_pattern: str = "*"):
        super().__init__()
        self.owner = owner
        self.propagated = 0
        self.add_advice(
            kind=AdviceKind.AFTER,
            crosscut=FieldWriteCut(type=type_pattern, field=field_pattern),
            callback=self.propagate,
        )

    def propagate(self, ctx) -> None:
        caller = self.gateway.acquire(Capability.NETWORK)
        caller.post(self.owner, {"field": ctx.field, "value": ctx.new_value})
        self.propagated += 1


class NetworkUsingAspect(Aspect):
    """An aspect whose advice needs the network capability (sandbox tests)."""

    REQUIRED_CAPABILITIES = frozenset({Capability.NETWORK})

    def __init__(self):
        super().__init__()
        self.posts = 0

    @before(MethodCut(type="*", method="start"))
    def touch_network(self, ctx) -> None:
        self.gateway.acquire(Capability.NETWORK)
        self.posts += 1


# -- supervision / transactional-install support ------------------------------

#: Module-level fault switch for the REQUIRES-chain classes below: set to
#: a class name ("ChainLeaf" / "ChainMid" / "ChainTop") to make that link's
#: ``on_insert`` raise, simulating a failure at a chosen point of a deep
#: implicit-dependency install.  Reset to None after each test.
CHAIN_FAIL_AT: dict[str, Any] = {"target": None}


class _ChainLink(Aspect):
    """Base for the 3-deep REQUIRES chain used by rollback tests."""

    def __init__(self):
        super().__init__()
        self.seen = 0
        self.add_advice(
            kind=AdviceKind.BEFORE,
            crosscut=MethodCut(type="*", method="throttle", params=(REST,)),
            callback=self.observe,
        )

    def observe(self, ctx) -> None:
        self.seen += 1

    def on_insert(self, vm) -> None:
        if CHAIN_FAIL_AT["target"] == type(self).__name__:
            raise RuntimeError(f"injected on_insert failure in {type(self).__name__}")


class ChainLeaf(_ChainLink):
    """Deepest implicit dependency (no REQUIRES of its own)."""


class ChainMid(_ChainLink):
    """Middle link: requires the leaf."""

    REQUIRES = (ChainLeaf,)


class ChainTop(_ChainLink):
    """The explicitly offered extension: requires mid (hence leaf)."""

    REQUIRES = (ChainMid,)


class ChainSibling(_ChainLink):
    """Another explicit extension sharing the leaf dependency."""

    REQUIRES = (ChainLeaf,)


class CyclicA(Aspect):
    """REQUIRES cycle (with CyclicB) — a packaging error."""


class CyclicB(Aspect):
    """REQUIRES cycle (with CyclicA) — a packaging error."""


CyclicA.REQUIRES = (CyclicB,)
CyclicB.REQUIRES = (CyclicA,)


class BrokenShutdownAspect(TraceAspect):
    """Shutdown hook that always raises (withdrawal-robustness tests)."""

    def shutdown(self) -> None:
        raise RuntimeError("broken shutdown hook")


class FlakySessionAspect(Aspect):
    """An implicit dependency whose advice always raises."""

    @before(MethodCut(type="*", method="throttle"))
    def explode(self, ctx) -> None:
        raise RuntimeError("flaky session")


class NeedsFlakySession(TraceAspect):
    """An explicit extension dragging in the flaky implicit dependency."""

    REQUIRES = (FlakySessionAspect,)
