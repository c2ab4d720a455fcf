"""The ledger's four workloads.

Each workload builds its world through the platform's public API, runs a
fixed amount of work derived from its seed and the run length, checks its
outputs, and returns an :class:`Outcome`.  The simulated world runs in
virtual time as an open loop with seeded arrivals; in wall time the same
work runs as fast as the machine allows.

- ``hall_lifecycle`` — the end-to-end adaptation lifecycle in one hall:
  nodes enter, are adapted, make advised calls, and leave (half by lease
  expiry, half revoked).  Spreads work over every layer.
- ``app_calls`` — E1/E2 on one adapted node: the SPECjvm-like suite with
  classes unloaded, hooked, and advised, interleaved in every round.
  Almost all hook, dispatch and sandbox work.
- ``policy_churn`` — the write side of the AOP layer: the hall replaces
  an extension every half virtual second on 50 adapted nodes.
- ``roam_storm`` — federated roaming under 40% announcement loss on
  protocol-stub nodes: control plane only, no ``ProseVM``.
"""

from __future__ import annotations

import gc
import itertools
import logging
import math
import random
import time
from statistics import median
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.aop.sandbox import AspectSandbox
from repro.core.platform import ProactivePlatform
from repro.extensions import (
    AccessControl,
    Billing,
    CallLogging,
    HwMonitoring,
    SessionManagement,
)
from repro.net.geometry import Position
from repro.scenarios import StormWorld, report_from, roaming_storm
from repro.workloads.kernels import workload_classes
from repro.workloads.suite import WorkloadSuite

from ledger.app import App, app_classes
from ledger.reference import reference_seconds

#: World builds per run; ``setup_s`` is their median.
SETUPS = 5


class GateFailure(Exception):
    """A workload produced wrong output; the run must not report numbers."""


@dataclass
class Outcome:
    """What one run of one workload measured."""

    #: Wall seconds of each world build (``setup_s`` is their median).
    setup_s: list[float]
    #: ``(ops, wall seconds, reference seconds)`` of each measured unit.
    samples: list[tuple[int, float, float]]
    attempted: int
    failed: int
    #: Virtual-time metrics; identical for identical (seed, size).
    virtual: dict[str, float] = field(default_factory=dict)
    #: Wall-clock metrics other than throughput (E1/E2 ratios, weave ms).
    wall: dict[str, float] = field(default_factory=dict)
    #: Program counters over the measured window.
    counters: dict[str, float] = field(default_factory=dict)
    fingerprint: str | None = None


class Meter:
    """Times measured units; with a tracer, each unit is one traced root.

    A counted unit is bracketed by two runs of the reference computation,
    so its wall time can be set against the machine's speed at that
    moment (see :mod:`ledger.reference`).
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        #: ``(ops, wall seconds, reference seconds)`` per counted unit.
        self.samples: list[tuple[int, float, float]] = []

    @contextmanager
    def unit(self, counted: bool = True, party: str | None = None) -> Iterator[list[int]]:
        """Time one unit of work; the caller stores its op count in ``box[0]``.

        ``party`` names the node the whole unit works for, if there is one.
        """
        box = [0]
        before = reference_seconds() if counted else 0.0
        if self.tracer is not None:
            self.tracer.begin(party)
        start = time.perf_counter()
        try:
            yield box
        finally:
            wall = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.end()
        if counted:
            self.samples.append((box[0], wall, (before + reference_seconds()) / 2))

    def note_visit(self, node_id: str, visit: int) -> None:
        if self.tracer is not None:
            self.tracer.visits[node_id] = visit


def timed_setups(
    build: Callable[[], object], close: Callable[[object], None] | None = None
):
    """Build the world :data:`SETUPS` times; keep the last, close the rest."""
    times = []
    world = None
    for _ in range(SETUPS):
        if world is not None:
            if close is not None:
                close(world)
            world = None
            gc.collect()
        start = time.perf_counter()
        world = build()
        times.append(time.perf_counter() - start)
    return world, times


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def platform_counters(platform: ProactivePlatform) -> dict[str, float]:
    """Program counters of a platform's network, bases and nodes."""
    bases = list(platform.base_stations.values())
    nodes = list(platform.mobile_nodes.values())
    transports = [b.transport for b in bases] + [n.transport for n in nodes]
    actions = [r.action for b in bases for r in b.extension_base.activity_log]
    vms = [n.vm for n in nodes]
    return {
        "net.messages": platform.network.messages_transmitted,
        "net.dropped": platform.network.messages_dropped,
        "net.timeouts": sum(t.timeouts for t in transports),
        "midas.offers": actions.count("offered"),
        "midas.installs": actions.count("accepted"),
        "aop.interceptions": sum(vm.interception_count() for vm in vms),
        "aop.weave_s": sum(vm.weave_seconds for vm in vms),
        "aop.weaves": sum(vm.stats.inserts + vm.stats.withdrawals for vm in vms),
    }


def delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    return {key: after[key] - before.get(key, 0) for key in after}


def hall_policy(hall, monitored: str = "Motor", billed: str = "*") -> dict:
    """The hall's extensions: monitoring to the hall DB, access control,
    billing (both pull in the implicit SessionManagement) and call logging."""
    return {
        "hw-monitoring": lambda: HwMonitoring(
            "fleet", hall.store_ref, type_pattern=monitored
        ),
        "access-control": lambda: AccessControl(type_pattern=billed),
        "billing": lambda: Billing({"fare": 0.5, "update": 0.01}, type_pattern=billed),
        "call-log": lambda: CallLogging(type_pattern=billed),
    }


def publish(hall, policy: dict) -> None:
    for name, factory in policy.items():
        hall.catalog.publish(name, factory)


def expected_aspects(catalog: list[str]) -> list[str]:
    """Aspect class names a fully adapted node runs, sorted."""
    by_name = {
        "hw-monitoring": "HwMonitoring",
        "access-control": "AccessControl",
        "billing": "Billing",
        "call-log": "CallLogging",
    }
    return sorted([by_name[name] for name in catalog] + [SessionManagement.__name__])


def adapted_exactly(node, catalog: list[str]) -> bool:
    """The node runs the whole catalog plus one implicit SessionManagement."""
    return sorted(node.extensions()) == sorted(catalog) and sorted(
        type(aspect).__name__ for aspect in node.vm.aspects
    ) == expected_aspects(catalog)


# -- hall_lifecycle ------------------------------------------------------------


class _Visitor:
    """One node cycling through the hall, and its current visit."""

    def __init__(self, index: int, node, app: App):
        self.index = index
        self.node = node
        self.app = app
        angle = 2 * math.pi * index / 97
        self.inside = Position(40 * math.cos(angle), 40 * math.sin(angle))
        self.outside = Position(60 * math.cos(angle), 60 * math.sin(angle))
        self.home = Position(10_000 + 100 * index, 10_000)
        self.visit = 0
        self.present = False
        self.revoke = False
        self.arrived_at = 0.0
        self.departed_at = 0.0
        self.adapted_at: float | None = None
        self.empty_at: float | None = None
        self.wrong_calls = 0


class HallLifecycle:
    """Nodes enter the hall, get adapted, call, and leave; see module doc."""

    name = "hall_lifecycle"
    #: Nodes whose visits a traced run records span by span.
    SAMPLE = ("visitor-000", "visitor-001")
    #: Completed visits per second of requested run length.
    VISITS_PER_SECOND = 150
    TICK = 1.0
    STAY = (6.0, 10.0)
    #: Absences outlast the registration lease (15 s) and the registrar
    #: staleness horizon, so every return is a fresh discovery.
    ABSENCE = (40.0, 60.0)
    WALK_SPEED = 1.5
    GRACE = 5.0

    def __init__(self, seed: int, seconds: float, smoke: bool):
        self.seed = seed
        self.nodes = 12 if smoke else 100
        self.unit_visits = 10 if smoke else 25
        self.visits = 40 if smoke else max(
            1000, round(seconds * self.VISITS_PER_SECOND / self.unit_visits)
            * self.unit_visits
        )

    def build(self):
        platform = ProactivePlatform(seed=self.seed)
        hall = platform.create_base_station("hall", Position(0, 0))
        publish(hall, hall_policy(hall))
        visitors = []
        for index in range(self.nodes):
            classes = app_classes()
            node = platform.create_mobile_node(f"visitor-{index:03d}", Position(0, 0))
            node.node.move_to(Position(10_000 + 100 * index, 10_000))
            for cls in classes:
                node.load_class(cls)
            visitors.append(_Visitor(index, node, App(node.node_id, classes)))
        return platform, hall, visitors

    def run(self, meter: Meter) -> Outcome:
        (platform, hall, visitors), setups = timed_setups(self.build)
        sim = platform.simulator
        rng = random.Random(f"hall:{self.seed}")
        catalog = hall.catalog.names()
        walk_s = 20.0 / self.WALK_SPEED
        deadline = walk_s + platform.lease_duration + self.GRACE
        adapt_ms: list[float] = []
        withdraw_s: list[float] = []
        state = {"done": 0, "failed": 0, "events": 0, "wrong_sets": 0}

        def installed(v: _Visitor, _ext) -> None:
            if v.present:
                if v.adapted_at is None and len(v.node.extensions()) == len(catalog):
                    v.adapted_at = sim.now
                    state["wrong_sets"] += not adapted_exactly(v.node, catalog)
            else:
                v.empty_at = None  # re-offered while walking out

        def withdrawn(v: _Visitor, _ext, _reason) -> None:
            if not v.present and not v.node.extensions() and not v.node.vm.aspects:
                v.empty_at = sim.now

        def arrive(v: _Visitor) -> None:
            v.visit += 1
            meter.note_visit(v.node.node_id, v.visit)
            v.present = True
            v.revoke = (v.index + v.visit) % 2 == 1
            v.arrived_at = sim.now
            v.adapted_at = v.empty_at = None
            v.wrong_calls = v.app.wrong
            v.node.node.move_to(v.inside)
            v.node.discovery.probe()
            sim.schedule(self.TICK, tick, v, v.visit)
            sim.schedule(rng.uniform(*self.STAY), depart, v)

        def tick(v: _Visitor, visit: int) -> None:
            if v.present and v.visit == visit:
                v.app.tick(1 + visit % 3)
                sim.schedule(self.TICK, tick, v, visit)

        def depart(v: _Visitor) -> None:
            v.present = False
            v.departed_at = sim.now
            if not v.node.extensions():
                v.empty_at = sim.now
            if v.revoke:
                hall.extension_base.revoke_node(v.node.node_id)
            v.node.walk_to(v.outside)
            sim.schedule(walk_s + 0.5, go_home, v)
            sim.schedule(deadline, verdict, v)
            sim.schedule(deadline + rng.uniform(*self.ABSENCE), arrive, v)

        def go_home(v: _Visitor) -> None:
            v.node.node.move_to(v.home)

        def verdict(v: _Visitor) -> None:
            ok = (
                v.adapted_at is not None
                and v.empty_at is not None
                and v.app.wrong == v.wrong_calls
            )
            if v.adapted_at is not None:
                adapt_ms.append((v.adapted_at - v.arrived_at) * 1000.0)
            if v.empty_at is not None:
                withdraw_s.append(v.empty_at - v.departed_at)
            state["done"] += 1
            state["failed"] += not ok

        for v in visitors:
            v.node.adaptation.on_installed.connect(lambda ext, v=v: installed(v, ext))
            v.node.adaptation.on_withdrawn.connect(
                lambda ext, reason, v=v: withdrawn(v, ext, reason)
            )
            sim.schedule(rng.uniform(0.0, self.ABSENCE[1]), arrive, v)

        before = platform_counters(platform)
        while state["done"] < self.visits:
            with meter.unit() as box:
                start = state["done"]
                target = min(start + self.unit_visits, self.visits)
                while state["done"] < target:
                    state["events"] += platform.run_for(1.0)
                box[0] = state["done"] - start
        counters = delta(before, platform_counters(platform))
        counters["sim.events"] = state["events"]
        wrong_calls = sum(v.app.wrong for v in visitors)
        if wrong_calls:
            raise GateFailure(f"hall_lifecycle: {wrong_calls} app calls returned wrong values")
        if state["wrong_sets"]:
            raise GateFailure(
                f"hall_lifecycle: {state['wrong_sets']} visits ran the wrong extension set"
            )
        return Outcome(
            setup_s=setups,
            samples=meter.samples,
            attempted=state["done"],
            failed=state["failed"],
            virtual={
                "adapt_p50_ms": quantile(adapt_ms, 0.50),
                "adapt_p99_ms": quantile(adapt_ms, 0.99),
                "withdraw_p99_s": quantile(withdraw_s, 0.99),
                "visits": state["done"],
                "adapt_samples": len(adapt_ms),
            },
            counters=counters,
        )


# -- app_calls -----------------------------------------------------------------


class AppCalls:
    """E1/E2: plain, hooked and advised suite iterations, interleaved."""

    name = "app_calls"
    SAMPLE = ("device",)
    SUITE_ARGS = dict(compress_size=256, db_rows=100, rays=25)
    #: Rounds per second of requested run length.
    ROUNDS_PER_SECOND = 10

    def __init__(self, seed: int, seconds: float, smoke: bool):
        self.seed = seed
        self.iterations = 1 if smoke else 4
        self.rounds = 3 if smoke else max(10, round(seconds * self.ROUNDS_PER_SECOND))

    def build(self):
        platform = ProactivePlatform(seed=self.seed)
        hall = platform.create_base_station("hall", Position(0, 0))
        publish(hall, hall_policy(hall, monitored="DbKernel", billed="DbKernel"))
        node = platform.create_mobile_node("device", Position(10, 0))
        for cls in workload_classes():
            node.load_class(cls)
        for _ in range(20):
            platform.run_for(0.5)
            if adapted_exactly(node, hall.catalog.names()):
                break
        else:
            raise GateFailure("app_calls: the node was never fully adapted")
        return platform, hall, node

    @staticmethod
    def close(world) -> None:
        _platform, _hall, node = world
        for cls in node.vm.loaded_classes:
            node.vm.unload_class(cls)

    def run(self, meter: Meter) -> Outcome:
        world, setups = timed_setups(self.build, self.close)
        platform, hall, node = world
        vm = node.vm
        policy = node.adaptation.policy
        sandboxes = {
            installed.aspect: installed.sandbox for installed in node.adaptation.installed()
        }
        suite = WorkloadSuite(**self.SUITE_ARGS)
        suite.run(1)  # warm the kernels' own caches before any timing
        before = platform_counters(platform)
        plain, hooked, advised, calls = [], [], [], []

        def phase(label: str, times: list[float]) -> int:
            with meter.unit(counted=label == "advised", party=node.node_id) as box:
                start = time.perf_counter()
                witness = suite.run(self.iterations)
                times.append(time.perf_counter() - start)
                box[0] = self.iterations
            return witness

        try:
            for round_ in range(self.rounds):
                meter.note_visit(node.node_id, round_)
                seen = vm.interception_count()
                witnesses = {"advised": phase("advised", advised)}
                calls.append((vm.interception_count() - seen) / self.iterations)
                aspects = vm.aspects
                for aspect in reversed(aspects):
                    aspect.shutdown()  # as MIDAS does: stops the flush timer
                    vm.withdraw(aspect)
                witnesses["hooked"] = phase("hooked", hooked)
                classes = vm.loaded_classes
                for cls in classes:
                    vm.unload_class(cls)
                witnesses["plain"] = phase("plain", plain)
                for cls in classes:
                    vm.load_class(cls)
                for aspect in aspects:
                    # The implicit SessionManagement's sandbox is not exposed;
                    # build the one the receiver gives it.
                    sandbox = sandboxes.get(aspect) or AspectSandbox(policy, aspect.name)
                    vm.insert(aspect, sandbox=sandbox)
                platform.run_for(1.0)  # keepalives, monitoring flush
                hall.db.clear()
                check_witnesses(witnesses)
            counters = delta(before, platform_counters(platform))
            # Unloading a class drops its hook tables and their counts.
            counters["aop.interceptions"] = sum(calls) * self.iterations
        finally:
            self.close(world)
        per_call = [
            (h - p) / self.iterations / c for p, h, c in zip(plain, hooked, calls)
        ]
        per_advice = [
            (a - h) / self.iterations / c for h, a, c in zip(hooked, advised, calls)
        ]
        return Outcome(
            setup_s=setups,
            samples=meter.samples,
            attempted=self.rounds * self.iterations,
            failed=0,
            virtual={"calls_per_iteration": calls[0]},
            wall={
                "hook_overhead": median([h / p for p, h in zip(plain, hooked)]),
                "aop.hook_ns": median(per_call) * 1e9,
                "aop.advice_ns": median(per_advice) * 1e9,
            },
            counters=counters,
        )


def check_witnesses(witnesses: dict[str, int]) -> None:
    """The suite must compute the same result plain, hooked and advised."""
    if len(set(witnesses.values())) != 1:
        raise GateFailure(f"app_calls: suite witnesses differ across phases: {witnesses}")


# -- policy_churn --------------------------------------------------------------


class PolicyChurn:
    """The hall replaces one extension every half second on every node."""

    name = "policy_churn"
    SAMPLE = ("resident-000",)
    PERIOD = 0.5
    TICK = 1.0
    #: Replace orders per second of requested run length.
    ORDERS_PER_SECOND = 45

    def __init__(self, seed: int, seconds: float, smoke: bool):
        self.seed = seed
        self.nodes = 8 if smoke else 50
        self.orders_per_unit = 4 if smoke else 10
        units = 3 if smoke else max(
            10, round(seconds * self.ORDERS_PER_SECOND / self.orders_per_unit)
        )
        self.orders = units * self.orders_per_unit

    def build(self):
        platform = ProactivePlatform(seed=self.seed)
        hall = platform.create_base_station("hall", Position(0, 0))
        policy = hall_policy(hall)
        publish(hall, policy)
        rng = random.Random(f"churn:{self.seed}")
        nodes, apps = [], []
        for index in range(self.nodes):
            classes = app_classes()
            radius, angle = rng.uniform(5, 45), rng.uniform(0, 2 * math.pi)
            node = platform.create_mobile_node(
                f"resident-{index:03d}",
                Position(radius * math.cos(angle), radius * math.sin(angle)),
            )
            for cls in classes:
                node.load_class(cls)
            nodes.append(node)
            apps.append(App(node.node_id, classes))
        catalog = hall.catalog.names()
        for _ in range(20):
            platform.run_for(0.5)
            if all(adapted_exactly(node, catalog) for node in nodes):
                break
        else:
            raise GateFailure("policy_churn: nodes were never fully adapted")
        return platform, hall, policy, nodes, apps

    def run(self, meter: Meter) -> Outcome:
        (platform, hall, policy, nodes, apps), setups = timed_setups(self.build)
        sim = platform.simulator
        catalog = hall.catalog.names()
        order = {"name": "", "version": 0, "at": 0.0}
        swap_ms: list[float] = []
        state = {"swapped": 0, "failed": 0, "events": 0}

        def installed(ext) -> None:
            if ext.name == order["name"] and ext.envelope.version == order["version"]:
                swap_ms.append((sim.now - order["at"]) * 1000.0)
                state["swapped"] += 1

        def tick(app: App, k: int) -> None:
            app.tick(1 + k % 3)
            sim.schedule(self.TICK, tick, app, k + 1)

        for node, app in zip(nodes, apps):
            node.adaptation.on_installed.connect(installed)
            tick(app, 0)

        def stale() -> int:
            """Nodes not yet running the version last ordered."""
            behind = 0
            for node in nodes:
                ext = node.adaptation.find(order["name"])
                behind += ext is None or ext.envelope.version != order["version"]
            return behind if order["name"] else 0

        before = platform_counters(platform)
        for unit in range(self.orders // self.orders_per_unit):
            with meter.unit() as box:
                start = state["swapped"]
                for k in range(self.orders_per_unit):
                    state["failed"] += stale()
                    name = catalog[(unit * self.orders_per_unit + k) % len(catalog)]
                    hall.replace_extension(name, policy[name])
                    order.update(
                        name=name, version=hall.catalog.version_of(name), at=sim.now
                    )
                    state["events"] += platform.run_for(self.PERIOD)
                box[0] = state["swapped"] - start
        state["failed"] += stale()
        counters = delta(before, platform_counters(platform))
        counters["sim.events"] = state["events"]
        for node in nodes:
            versions = {
                ext.name: ext.envelope.version for ext in node.adaptation.installed()
            }
            final = {name: hall.catalog.version_of(name) for name in catalog}
            if versions != final or not adapted_exactly(node, catalog):
                raise GateFailure(
                    f"policy_churn: {node.node_id} ended on {versions}, catalog is {final}"
                )
        wrong_calls = sum(app.wrong for app in apps)
        if wrong_calls:
            raise GateFailure(f"policy_churn: {wrong_calls} app calls returned wrong values")
        attempted = self.orders * self.nodes
        return Outcome(
            setup_s=setups,
            samples=meter.samples,
            attempted=attempted,
            failed=state["failed"],
            virtual={
                "adapt_p50_ms": quantile(swap_ms, 0.50),
                "adapt_p99_ms": quantile(swap_ms, 0.99),
                "swaps": state["swapped"],
            },
            counters=counters,
        )


# -- roam_storm ----------------------------------------------------------------


class RoamStorm:
    """X3's flash-crowd roaming storm: several storms, each built and run once."""

    name = "roam_storm"
    SAMPLE = ("storm-0000",)
    #: Storms per second of requested run length.
    STORMS_PER_SECOND = 0.4
    #: Virtual seconds per measured unit of a storm.
    SLICE = 10.0
    #: Storm seeds a run draws from: of the seeds 0-99, those whose
    #: 200-node storm stays clean (22 end with a node dual-homed past the
    #: monitor's grace; see README) and asks for 118-122 migrations.  All
    #: are clean at 40 nodes too.  ``--seed`` picks consecutive entries,
    #: so runs of nearby seeds share most of their storms and every run
    #: asks for about the same work.  A change to the roaming code can
    #: move a seed in or out of this set: re-derive it then (README,
    #: *Findings*), since any violation fails the run.
    STORM_SEEDS = (
        7, 9, 10, 16, 19, 21, 25, 29, 31, 40, 42, 43, 53, 59,
        61, 62, 63, 68, 76, 77, 78, 79, 80, 81, 83, 93, 99,
    )

    def __init__(self, seed: int, seconds: float, smoke: bool):
        self.seed = seed
        count = 2 if smoke else max(2, round(seconds * self.STORMS_PER_SECOND))
        self.specs = [
            roaming_storm(
                nodes=40 if smoke else 200,
                bases=3,
                seed=self.STORM_SEEDS[(seed + k) % len(self.STORM_SEEDS)],
            )
            for k in range(count)
        ]

    def storm(self, meter: Meter, spec, world: StormWorld | None = None):
        """Build (timed as set-up, up to the storm's start), then run it."""
        start = time.perf_counter()
        world = world or StormWorld(spec)
        try:
            world.run_for(spec.storm_start)
            setup = time.perf_counter() - start
            before = storm_counters(world)
            done = 0
            now = spec.storm_start
            while now < spec.total_time:
                span = min(self.SLICE, spec.total_time - now)
                now += span
                with meter.unit() as box:
                    world.run_for(span)
                    if now >= spec.total_time:
                        world.monitor.tick()
                        if world.health is not None:
                            world.health.tick()
                    moved = sum(node.migrations for node in world.storm_nodes.values())
                    box[0], done = moved - done, moved
            report = report_from(world)
            return setup, report, delta(before, storm_counters(world))
        finally:
            world.close()

    @staticmethod
    def setup_only(spec) -> float:
        """Time one more set-up of a storm, then drop it unrun."""
        start = time.perf_counter()
        world = StormWorld(spec)
        try:
            world.run_for(spec.storm_start)
            return time.perf_counter() - start
        finally:
            world.close()

    def run(self, meter: Meter) -> Outcome:
        logging.disable(logging.WARNING)  # lost announcements are the point
        try:
            storms = [self.storm(meter, spec) for spec in self.specs]
            setups = [setup for setup, _, _ in storms]
            # Fewer storms than SETUPS: set up the same storms again, unrun.
            spare = itertools.cycle(self.specs)
            setups += [self.setup_only(next(spare)) for _ in range(SETUPS - len(setups))]
        finally:
            logging.disable(logging.NOTSET)
        reports = [report for _, report, _ in storms]
        check_storms(reports)
        counters = storms[0][2]
        for _, _, more in storms[1:]:
            counters = {key: counters[key] + more[key] for key in counters}
        migrations = sum(report.stats["migrations"] for report in reports)
        return Outcome(
            setup_s=setups,
            samples=meter.samples,
            attempted=migrations,
            failed=sum(len(report.violations) for report in reports),
            virtual={
                "converge_s": max(
                    (r.last_dual_at or r.spec.storm_start) - r.spec.storm_start
                    for r in reports
                ),
                "migrations": migrations,
            },
            counters=counters,
            fingerprint=",".join(report.fingerprint for report in reports),
        )


def storm_counters(world: StormWorld) -> dict[str, float]:
    transports = [s.transport for s in world.stations] + [
        n.transport for n in world.storm_nodes.values()
    ]
    actions = [
        r.action for s in world.stations for r in s.extension_base.activity_log
    ]
    return {
        "net.messages": world.network.messages_transmitted,
        "net.dropped": world.network.messages_dropped,
        "net.timeouts": sum(t.timeouts for t in transports),
        "midas.offers": actions.count("offered"),
        "midas.installs": actions.count("accepted"),
    }


def check_storms(reports) -> None:
    """Every storm ends with no invariant violated."""
    for report in reports:
        if not report.clean:
            raise GateFailure(
                f"roam_storm: seed {report.spec.seed}: {len(report.violations)} "
                f"invariant violations, first {report.violations[0]}"
            )


WORKLOADS = {
    cls.name: cls for cls in (HallLifecycle, AppCalls, PolicyChurn, RoamStorm)
}
