"""Command-line entry point: run the reproduction's demo scenarios.

Usage::

    python -m repro                 # list scenarios
    python -m repro quickstart      # run one
    python -m repro --all           # run every scenario
    python -m repro obs [SOURCE]    # one run: summary, inspect, tower, profile
    python -m repro vet <target>    # statically vet extension modules
    python -m repro lint [paths]    # platform lints: determinism, protocol
    python -m repro loadgen         # closed-loop load runs + M/M/n checks
"""

from __future__ import annotations

import argparse
import importlib
import sys

#: subcommand -> the module whose ``main(argv)`` runs it, imported only
#: when its command runs.
COMMANDS = {
    "obs": "repro.telemetry.obs",
    "vet": "repro.vetting.cli",
    "lint": "repro.analysis.cli",
    "loadgen": "repro.loadgen.cli",
}

#: scenario name -> (module under examples/, description)
SCENARIOS = {
    "quickstart": "the two-layer model end to end (PROSE then MIDAS)",
    "plotter_monitoring": "§4 plotter + Fig. 5 HwMonitoring + Fig. 6 queries",
    "production_halls": "the intro scenario: one robot, three hall policies",
    "adhoc_peers": "§3.2 symmetric peer-to-peer extension exchange",
    "replication_and_replay": "Fig. 6 mirroring at scale + time-aligned replay",
    "tuplespace_policy": "§4.6 future work: policies as leased tuples",
}


def run_scenario(name: str) -> None:
    """Import and run one example scenario by name."""
    try:
        module = importlib.import_module(f"examples.{name}")
    except ModuleNotFoundError as exc:
        raise SystemExit(
            f"could not import examples.{name} ({exc}); "
            "run from the repository root, where examples/ lives"
        ) from exc
    module.main()


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in COMMANDS:
        return importlib.import_module(COMMANDS[argv[0]]).main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduction of 'A Proactive Middleware Platform for Mobile "
            "Computing' (Middleware 2003) — demo scenarios."
        ),
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        choices=sorted(SCENARIOS),
        help="scenario to run (omit to list them)",
    )
    parser.add_argument(
        "--all", action="store_true", help="run every scenario in sequence"
    )
    args = parser.parse_args(argv)

    if args.all:
        for name in SCENARIOS:
            print(f"\n{'=' * 70}\n== {name}\n{'=' * 70}")
            run_scenario(name)
        return 0
    if args.scenario is None:
        print("Available scenarios (python -m repro <name>):\n")
        for name, description in SCENARIOS.items():
            print(f"  {name:24s} {description}")
        return 0
    run_scenario(args.scenario)
    return 0


if __name__ == "__main__":
    sys.exit(main())
