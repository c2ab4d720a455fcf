"""One performance ledger for the platform: four workloads, end to end and
layer by layer.

Run from the repository root::

    python3 benchmarks/ledger/run.py --workload hall_lifecycle --seed 1
    python3 benchmarks/ledger/run.py --reps 5 --out ledger.json   # all four
    python3 benchmarks/ledger/run.py --workload app_calls --trace 1
    python3 benchmarks/ledger/run.py compare parent.json change.json

Every repetition runs in a fresh subprocess with ``PYTHONHASHSEED=0``,
one at a time, workloads round-robin.  A repetition measures half of
``run_seconds``, so the default two measure ``run_seconds``; they replay
one seed, so every run checks that virtual-time metrics and storm
fingerprints repeat.  Output is a table of every metric with its unit,
and as the last line one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` holding the end-to-end metrics of
``BENCHMARK.json`` (or, with ``--trace 1``, its per-layer metrics).  A
wrong output exits non-zero without that line.  See ``README.md``
beside this file.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = ROOT / "BENCHMARK.json"

WORKLOAD_NAMES = ("hall_lifecycle", "app_calls", "policy_churn", "roam_storm")
DEFAULT_SEED = 1
#: Repetitions of a default run.  Every repetition is sized for
#: run_seconds / DEFAULT_REPS, so a default run measures run_seconds.
DEFAULT_REPS = 2
#: A worker that runs longer than this is killed and the run fails.
WORKER_TIMEOUT = 170

#: Metrics the ledger reports beyond BENCHMARK.json's end_to_end set, for
#: information: only BENCHMARK.json bounds gate.  Most exist on some
#: workloads only, and raw ``ops_per_s`` swings with the host's load.
#: ``exact`` marks virtual time or counts, which repeat for a seed.
LEDGER_METRICS = {
    # name: (unit, better, exact)
    "ops_per_s": ("op/s", "higher", False),
    "adapt_p50_ms": ("ms", "lower", True),
    "adapt_p99_ms": ("ms", "lower", True),
    "withdraw_p99_s": ("s", "lower", True),
    "converge_s": ("s", "lower", True),
    "hook_overhead": ("ratio", "lower", False),
    "failed_ratio": ("fraction", "lower", True),
}


class RunFailed(Exception):
    """A worker failed or a correctness gate did not hold."""


# -- the worker: one repetition of one workload, in this process --------------------


def measure(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    """Run one workload once and return its raw record (a JSON object)."""
    from ledger import layers
    from ledger.workloads import WORKLOADS, Meter

    workload = WORKLOADS[name](seed, seconds, smoke)
    tracer = layers.Tracer(workload.SAMPLE) if traced else None
    uninstall = layers.install(tracer) if traced else None
    try:
        outcome = workload.run(Meter(tracer))
    finally:
        if uninstall is not None:
            uninstall()
    ops = sum(ops for ops, _, _ in outcome.samples)
    wall = sum(wall for _, wall, _ in outcome.samples)
    at_reference = sum(wall / ref for _, wall, ref in outcome.samples)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "traced": traced,
        "setup_s": statistics.median(outcome.setup_s),
        "setup_samples": outcome.setup_s,
        "ops_per_s": ops / wall,
        "ops_per_ref": ops / at_reference,
        "reference_ms": 1000 * statistics.median(ref for _, _, ref in outcome.samples),
        "units": len(outcome.samples),
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "virtual": outcome.virtual,
        "wall": outcome.wall,
        "counters": outcome.counters,
        "fingerprint": outcome.fingerprint,
    }
    if tracer is not None:
        record["layers"] = traced_layers(tracer, outcome.counters)
        record["spans"] = tracer.span_records()
    return record


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def traced_layers(tracer, counters: dict) -> dict[str, float]:
    """Per-layer metrics a traced run measures (see README for each)."""
    from ledger.layers import LAYERS

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = tracer.calls[layer]
        metrics[f"{layer}.self_s"] = tracer.self_s[layer]
    counts = tracer.counts
    metrics.update({
        "sim.events": tracer.entries["Simulator.step"],
        "net.messages": counters.get("net.messages", 0),
        "net.dropped": counters.get("net.dropped", 0),
        "net.timeouts": counters.get("net.timeouts", 0),
        "midas.offers": counters.get("midas.offers", 0),
        "midas.installs": counters.get("midas.installs", 0),
        "midas.offer_yield": ratio(
            counters.get("midas.installs", 0), counters.get("midas.offers", 0)
        ),
        "midas.keepalive_yield": ratio(
            counts["keepalive.renewed"], counts["keepalive.lease_ids"]
        ),
        "vetting.verified_installs": counts["vetted"],
        "vetting.unvetted_installs": counts["unvetted"],
        "aop.interceptions": counters.get("aop.interceptions", 0),
        "leasing.grants": tracer.entries["LeaseTable.grant"],
        "leasing.renewals": tracer.entries["LeaseTable.renew"],
        "leasing.expiries": counts["lease.expired"],
        "trace.coverage": tracer.coverage(),
    })
    return metrics


def per_layer(traced: dict, untraced: dict) -> dict[str, float]:
    """Merge a traced run with its untraced twin.

    Timings that tracing would distort (E1/E2 per-call costs, weave
    latency) come from the untraced run; so does the throughput the
    tracing overhead is measured against.
    """
    metrics = dict(traced["layers"])
    counters = untraced["counters"]
    metrics["aop.hook_ns"] = untraced["wall"].get("aop.hook_ns", 0.0)
    metrics["aop.advice_ns"] = untraced["wall"].get("aop.advice_ns", 0.0)
    metrics["aop.weave_ms"] = 1000 * ratio(
        counters.get("aop.weave_s", 0.0), counters.get("aop.weaves", 0)
    )
    metrics["trace.overhead"] = ratio(untraced["ops_per_ref"], traced["ops_per_ref"])
    return metrics


# -- the parent: subprocesses, gates, summaries ------------------------------------------


def spawn(name: str, seed: int, traced: bool, smoke: bool) -> dict:
    """One repetition in a fresh interpreter with a fixed hash seed."""
    command = [sys.executable, str(Path(__file__).resolve()), "--worker", name,
               "--seed", str(seed), "--trace", "1" if traced else "0"]
    if smoke:
        command.append("--smoke")
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "benchmarks")]),
    )
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT, check=False)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{name}: worker exceeded {WORKER_TIMEOUT} s") from None
    if done.returncode != 0:
        raise RunFailed(f"{name}: worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_replays(records: list[dict]) -> None:
    """Same seed and size: identical virtual metrics and fingerprints."""
    first = records[0]
    for record in records[1:]:
        if record["virtual"] != first["virtual"]:
            raise RunFailed(
                f"{first['workload']}: virtual-time metrics differ across runs: "
                f"{first['virtual']} vs {record['virtual']}"
            )
        if record["fingerprint"] != first["fingerprint"]:
            raise RunFailed(f"{first['workload']}: storm fingerprints differ across runs")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def ledger_value(record: dict, metric: str) -> float | None:
    """A record's value of an end-to-end or ledger metric, if it has one."""
    if metric in ("setup_s", "ops_per_s", "ops_per_ref", "peak_rss_mb"):
        return record[metric]
    if metric == "failed_ratio":
        return ratio(record["failed"], record["attempted"])
    return record["virtual"].get(metric, record["wall"].get(metric))


def metric_units(gated: list[dict]) -> dict[str, str]:
    """Unit of every metric: the given BENCHMARK.json ones, then the ledger's."""
    units = {m["name"]: m["unit"] for m in gated}
    units.update({name: unit for name, (unit, _, _) in LEDGER_METRICS.items()})
    return units


def summarize(records: list[dict], spec: dict) -> dict[str, dict]:
    """Median and quartiles of every metric over repetitions, per workload."""
    units = metric_units(spec["end_to_end"])
    summary: dict[str, dict] = {}
    for name in dict.fromkeys(r["workload"] for r in records):
        runs = [r for r in records if r["workload"] == name]
        rows = {}
        for metric, unit in units.items():
            values = [ledger_value(r, metric) for r in runs]
            if values[0] is None:
                continue
            q1, median, q3 = quartiles(values)
            rows[metric] = {"median": median, "q1": q1, "q3": q3,
                            "n": len(values), "unit": unit}
        summary[name] = rows
    return summary


def machine() -> dict:
    load = os.getloadavg()
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(load),
    }


def run_ledger(args, spec: dict) -> int:
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    seconds = spec["run_seconds"] / DEFAULT_REPS
    meta = machine()
    if meta["loadavg"][0] > (meta["nproc"] or 1):
        print(f"warning: load average {meta['loadavg'][0]:.2f} exceeds nproc "
              f"{meta['nproc']}; timings will be noisy", file=sys.stderr)
    untraced: list[dict] = []
    traced: list[dict] = []
    #: Sampled span records of each workload's traced run.
    spans: dict[str, list] = {}
    try:
        for rep in range(args.reps):
            for name in names:
                record = spawn(name, args.seed, False, args.smoke)
                record["rep"] = rep
                untraced.append(record)
                if args.trace and rep == 0:
                    twin = spawn(name, args.seed, True, args.smoke)
                    twin["rep"] = rep
                    twin["layers"] = per_layer(twin, record)
                    spans[name] = twin.pop("spans")
                    traced.append(twin)
        for name in names:
            check_replays([r for r in untraced + traced if r["workload"] == name])
    except RunFailed as failure:
        print(f"FAILED: {failure}", file=sys.stderr)
        return 1
    summary = summarize(untraced, spec)
    layer_summary = {
        twin["workload"]: {m["name"]: twin["layers"][m["name"]] for m in spec["per_layer"]}
        for twin in traced
    }
    print_table(summary, spec, layer_summary, meta, args, seconds)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps({
            "meta": dict(meta, seed=args.seed, rep_seconds=seconds, reps=args.reps,
                         smoke=args.smoke, argv=sys.argv[1:],
                         loadavg_after=list(os.getloadavg())),
            "runs": untraced + traced,
            "summary": summary,
            "layers": layer_summary,
        }, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        if args.trace:
            Path(args.out).with_suffix(".trace.json").write_text(
                json.dumps(spans) + "\n", encoding="utf-8"
            )
    print(json.dumps(result_line(untraced, summary, layer_summary, spec, args.trace)))
    return 0


def result_line(untraced, summary, layer_summary, spec, trace) -> dict:
    """The last output line: end-to-end (or per-layer) metrics by name."""
    single = len(summary) == 1

    def key(workload: str, metric: str) -> str:
        return metric if single else f"{workload}.{metric}"

    metrics = {}
    for workload, rows in summary.items():
        if trace:
            for m in spec["per_layer"]:
                metrics[key(workload, m["name"])] = {
                    "value": layer_summary[workload][m["name"]], "unit": m["unit"]}
        else:
            for m in spec["end_to_end"]:
                metrics[key(workload, m["name"])] = {
                    "value": rows[m["name"]]["median"], "unit": m["unit"]}
    return {
        "correct": True,
        "attempted": sum(r["attempted"] for r in untraced),
        "failed": sum(r["failed"] for r in untraced),
        "metrics": metrics,
    }


def print_table(summary, spec, layer_summary, meta, args, seconds) -> None:
    print(f"ledger: seed={args.seed} seconds per rep={seconds:g} reps={args.reps} "
          f"smoke={args.smoke} python={meta['python']} nproc={meta['nproc']} "
          f"loadavg={meta['loadavg'][0]:.2f}")
    units = metric_units(spec["end_to_end"] + spec["per_layer"])
    names = [m["name"] for m in spec["end_to_end"]] + list(LEDGER_METRICS)
    for workload, rows in summary.items():
        print(f"\n{workload}")
        for metric in names:
            row = rows.get(metric)
            if row is None:
                print(f"  {metric:16s} {'-':>14s} {units[metric]}")
                continue
            print(f"  {metric:16s} {row['median']:14.6g} {row['unit']:8s} "
                  f"[{row['q1']:.6g}, {row['q3']:.6g}] n={row['n']}")
        for metric, value in layer_summary.get(workload, {}).items():
            print(f"  {metric:28s} {value:14.6g} {units[metric]}")


# -- compare ---------------------------------------------------------------------------


def load_runs(pattern: str) -> list[dict]:
    """Untraced runs from every results file matching ``pattern``."""
    paths = sorted(glob.glob(pattern)) or [pattern]
    runs = []
    for path in paths:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        runs += [r for r in data["runs"] if not r["traced"]]
    return runs


def verdict(parent: list[float], change: list[float], better: str,
            bound: float | None) -> str:
    """Judge a wall-clock metric: gain, regression, or neither.

    A gain needs at least 10 parent/change pairs, the change winning 9 in
    10 of them (ties count for neither), and medians further apart than
    the parent's interquartile range; a loss by the same rule is a
    regression.  With a bound, so is a median worse than the bound, while
    a smaller loss is "within bound".  Anything else with too few pairs or
    a spread wider than the bound is unresolved, never "unchanged".
    """
    sign = 1 if better == "higher" else -1
    p1, parent_median, p3 = quartiles(parent)
    _, change_median, _ = quartiles(change)
    pairs = list(zip(parent, change))
    if len(pairs) >= 10 and abs(change_median - parent_median) > p3 - p1:
        if sum(sign * (c - p) > 0 for p, c in pairs) >= 0.9 * len(pairs):
            return "improved"
        if bound is None and sum(sign * (c - p) < 0 for p, c in pairs) >= 0.9 * len(pairs):
            return "regressed"
    if bound is None:
        return "unresolved"
    if -sign * (change_median - parent_median) / abs(parent_median) > bound:
        return "regressed"
    spread = (p3 - p1) / abs(parent_median)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if len(pairs) < 10 or (spread > bound and not all_better):
        return "unresolved"
    return "within bound"


def exact_verdict(parent: list[tuple[int, float]], change: list[tuple[int, float]],
                  better: str) -> str:
    """Judge a virtual-time metric from ``(seed, value)`` runs of each side.

    Each side must repeat its value for a seed, or it is "nondeterministic".
    Between the sides, on the seeds both ran: "same", "improved" or
    "regressed" by ``better``, or "mixed" if seeds disagree.
    """
    sides = []
    for runs in (parent, change):
        by_seed: dict[int, set[float]] = {}
        for seed, value in runs:
            by_seed.setdefault(seed, set()).add(value)
        if any(len(values) > 1 for values in by_seed.values()):
            return "nondeterministic"
        sides.append({seed: values.pop() for seed, values in by_seed.items()})
    before, after = sides
    seeds = sorted(before.keys() & after.keys())
    if not seeds:
        return "unresolved"
    sign = 1 if better == "higher" else -1
    gains = [sign * (after[seed] - before[seed]) for seed in seeds]
    if all(gain == 0 for gain in gains):
        return "same"
    if all(gain >= 0 for gain in gains):
        return "improved"
    if all(gain <= 0 for gain in gains):
        return "regressed"
    return "mixed"


def compare(parent_pattern: str, change_pattern: str) -> int:
    """Print one row per (workload, metric); exit 1 on a gated regression.

    Only BENCHMARK.json's bounds gate.  The ledger's own metrics are
    information, except that a virtual-time value which does not repeat
    for its seed is a correctness failure and exits 1 too.
    """
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    gated = {m["name"]: m for m in spec["end_to_end"]}
    parent, change = load_runs(parent_pattern), load_runs(change_pattern)
    print(f"{'workload':15s} {'metric':15s} {'parent':>12s} {'change':>12s} "
          f"{'delta':>8s} {'bound':>6s} pairs verdict")
    failed = False
    for workload in WORKLOAD_NAMES:
        a = [r for r in parent if r["workload"] == workload]
        b = [r for r in change if r["workload"] == workload]
        if not a or not b:
            continue
        for metric in list(gated) + list(LEDGER_METRICS):
            va = [ledger_value(r, metric) for r in a]
            vb = [ledger_value(r, metric) for r in b]
            if va[0] is None or vb[0] is None:
                continue
            if metric in gated:
                unit, better, bound = (gated[metric][key] for key in ("unit", "better", "bound"))
                result = verdict(va, vb, better, bound)
                bound_text = f"{100 * bound:.0f}%"
                failed |= result == "regressed"
            else:
                unit, better, exact = LEDGER_METRICS[metric]
                if exact:
                    result = exact_verdict([(r["seed"], v) for r, v in zip(a, va)],
                                           [(r["seed"], v) for r, v in zip(b, vb)], better)
                    failed |= result == "nondeterministic"
                else:
                    result = verdict(va, vb, better, None)
                bound_text = "exact" if exact else "info"
            ma, mb = statistics.median(va), statistics.median(vb)
            change_pct = 100 * (mb - ma) / abs(ma) if ma else 0.0
            print(f"{workload:15s} {metric:15s} {ma:12.6g} {mb:12.6g} "
                  f"{change_pct:+7.1f}% {bound_text:>6s} {min(len(va), len(vb)):5d} "
                  f"{result} ({unit}, {better} is better)")
    return 1 if failed else 0


# -- entry point -----------------------------------------------------------------------


def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="must equal run_seconds in BENCHMARK.json, which sizes "
                             "each workload's fixed work")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="also run traced, report per-layer metrics")
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS,
                        help="repetitions, each of half of run_seconds")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes")
    parser.add_argument("--out", help="write the results JSON here")
    parser.add_argument("--worker", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.reps < 2:
        parser.error("--reps must be at least 2: repetitions replay each other")
    return args


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare PARENT.json CHANGE.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    args = parse(argv)
    if not SPEC.is_file() or not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no platform sources under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        print(f"run.py: --seconds must be {spec['run_seconds']} (run_seconds in "
              f"BENCHMARK.json); other lengths change the work and its metrics",
              file=sys.stderr)
        return 2
    if args.worker:
        from ledger.workloads import GateFailure

        try:
            record = measure(args.worker, args.seed, spec["run_seconds"] / DEFAULT_REPS,
                             bool(args.trace), args.smoke)
        except GateFailure as failure:
            print(f"FAILED: {failure}", file=sys.stderr)
            return 1
        print(json.dumps(record))
        return 0
    started = time.perf_counter()
    code = run_ledger(args, spec)
    print(f"ledger: {time.perf_counter() - started:.1f} s wall", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
