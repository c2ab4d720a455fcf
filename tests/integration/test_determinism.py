"""Whole-platform determinism: same seed, same world evolution.

Everything in the stack — kernel ordering, radio jitter/loss, protocol
timers — draws from seeded state, so a full scenario replays exactly.
This is what makes every experiment in EXPERIMENTS.md reproducible.
"""

from repro.core.platform import ProactivePlatform
from repro.net.geometry import Position
from repro.net.network import NetworkConfig

from tests.support import Engine, TraceAspect, fresh_class


def run_scenario(seed: int) -> tuple:
    platform = ProactivePlatform(
        seed=seed, network_config=NetworkConfig(loss_probability=0.1)
    )
    hall = platform.create_base_station("hall", Position(0, 0))
    hall.add_extension("trace", lambda: TraceAspect(type_pattern="Engine"))
    node = platform.create_mobile_node("node", Position(5, 0))
    cls = fresh_class()
    node.load_class(cls)
    try:
        platform.run_for(10.0)
        engine = cls()
        engine.start()
        engine.throttle(3)
        node.walk_to(Position(300, 0))
        platform.run_for(120.0)
        node.walk_to(Position(5, 0))
        platform.run_for(300.0)
        summary = platform.summary()
        return (
            summary["time"],
            summary["network"]["transmitted"],
            summary["network"]["delivered"],
            summary["network"]["dropped"],
            # Names only: lease ids are process-global.
            tuple(ext["name"] for ext in summary["mobile_nodes"]["node"]["extensions"]),
            summary["mobile_nodes"]["node"]["position"],
            tuple(
                (record.time, record.action, record.extension)
                for record in hall.extension_base.activity_log
            ),
        )
    finally:
        node.vm.unload_class(cls)


class TestDeterminism:
    def test_same_seed_identical_evolution(self):
        assert run_scenario(42) == run_scenario(42)

    def test_different_seed_differs_in_radio_detail(self):
        # Protocol outcomes converge either way, but the lossy radio's
        # exact traffic pattern is seed-dependent.
        first = run_scenario(1)
        second = run_scenario(2)
        assert first[4] == second[4]  # same final extensions
        assert first[1:4] != second[1:4]  # different radio history
