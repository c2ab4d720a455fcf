"""Platform façade tests."""

import pytest

from repro.aop.sandbox import SandboxPolicy
from repro.core.platform import ProactivePlatform
from repro.midas.trust import Signer
from repro.net.geometry import Position

from tests.support import Engine, TraceAspect, fresh_class


@pytest.fixture
def platform():
    return ProactivePlatform(seed=11)


class TestConstruction:
    def test_base_station_wiring(self, platform):
        hall = platform.create_base_station("hall-A", Position(0, 0))
        assert hall.node_id == "hall-A"
        assert hall.store_ref.node_id == "hall-A"
        assert platform.base_stations["hall-A"] is hall

    def test_mobile_node_wiring(self, platform):
        platform.create_base_station("hall-A", Position(0, 0))
        robot = platform.create_mobile_node("robot", Position(5, 0))
        assert robot.node_id == "robot"
        assert robot.trust_store.trusts("hall-A")

    def test_explicit_trust_list(self, platform):
        platform.create_base_station("hall-A", Position(0, 0))
        stranger = Signer.generate("stranger")
        robot = platform.create_mobile_node("robot", trusted=[stranger])
        assert robot.trust_store.trusts("stranger")
        assert not robot.trust_store.trusts("hall-A")

    def test_time_advances(self, platform):
        platform.run_for(5.0)
        assert platform.now == 5.0


class TestCapabilityServices:
    def test_standard_service_set(self, platform):
        from repro.aop.sandbox import Capability
        from repro.core.platform import capability_services
        from repro.net.node import NetworkNode
        from repro.net.transport import Transport

        node = platform.network.attach(NetworkNode("helper"))
        transport = Transport(node, platform.simulator)
        services = capability_services(platform, transport)
        assert set(services) == {
            Capability.NETWORK,
            Capability.CLOCK,
            Capability.SCHEDULER,
        }
        assert services[Capability.CLOCK].now() == platform.now

    def test_extra_services_merged(self, platform):
        from repro.core.platform import capability_services
        from repro.net.node import NetworkNode
        from repro.net.transport import Transport

        node = platform.network.attach(NetworkNode("helper"))
        transport = Transport(node, platform.simulator)
        hardware = object()
        services = capability_services(platform, transport, {"hardware": hardware})
        assert services["hardware"] is hardware


class TestAdaptationFlow:
    def test_node_adapted_on_discovery(self, platform):
        hall = platform.create_base_station("hall-A", Position(0, 0))
        hall.add_extension("trace", lambda: TraceAspect(type_pattern="Engine"))
        robot = platform.create_mobile_node("robot", Position(5, 0))
        cls = fresh_class()
        robot.load_class(cls)
        platform.run_for(5.0)
        assert robot.extensions() == ["trace"]
        cls().start()
        installed = robot.adaptation.find("trace")
        assert ("start", ()) in installed.aspect.trace

    def test_restrictive_node_rejects_capability_hungry_extension(self, platform):
        from tests.support import NetworkUsingAspect

        hall = platform.create_base_station("hall-A", Position(0, 0))
        hall.add_extension("needs-net", NetworkUsingAspect)
        robot = platform.create_mobile_node(
            "robot", Position(5, 0), policy=SandboxPolicy.restrictive()
        )
        platform.run_for(5.0)
        assert robot.extensions() == []

    def test_walk_to_moves_node(self, platform):
        robot = platform.create_mobile_node("robot", Position(0, 0))
        robot.walk_to(Position(10, 0))
        platform.run_for(60.0)
        assert robot.node.position == Position(10, 0)

    def test_provide_service_reaches_extensions(self, platform):
        hall = platform.create_base_station("hall-A", Position(0, 0))
        robot = platform.create_mobile_node("robot", Position(5, 0))
        marker = object()
        robot.provide_service("hardware", marker)
        assert robot.adaptation._services["hardware"] is marker

    def test_summary_snapshot(self, platform):
        hall = platform.create_base_station("hall-A", Position(0, 0))
        hall.add_extension("trace", lambda: TraceAspect(type_pattern="Engine"))
        robot = platform.create_mobile_node("robot", Position(5, 0))
        cls = fresh_class()
        robot.load_class(cls)
        platform.run_for(5.0)
        cls().start()

        summary = platform.summary()
        assert summary["time"] == 5.0
        assert summary["network"]["delivered"] > 0
        hall_view = summary["base_stations"]["hall-A"]
        assert hall_view["catalog"] == ["trace"]
        assert hall_view["adapted_nodes"] == ["robot"]
        robot_view = summary["mobile_nodes"]["robot"]
        assert [ext["name"] for ext in robot_view["extensions"]] == ["trace"]
        assert robot_view["interceptions"] >= 1

    def test_replace_extension_propagates(self, platform):
        hall = platform.create_base_station("hall-A", Position(0, 0))
        hall.add_extension("trace", lambda: TraceAspect(type_pattern="Engine"))
        robot = platform.create_mobile_node("robot", Position(5, 0))
        platform.run_for(5.0)
        first = robot.adaptation.find("trace").aspect
        hall.replace_extension("trace", lambda: TraceAspect(type_pattern="Turbine"))
        platform.run_for(5.0)
        second = robot.adaptation.find("trace").aspect
        assert second is not first
        assert robot.adaptation.find("trace").envelope.version == 2
