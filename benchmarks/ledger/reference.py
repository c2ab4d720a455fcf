"""A fixed reference computation, timed next to every measured unit.

The machines the ledger runs on are shared: neighbours on the same host
slow a run by 5-15% for seconds to minutes at a time, far more than the
regressions worth catching.  Timing this computation just before and
just after each unit tells how fast the machine was at that moment, and
``ops_per_ref`` divides it out: ops completed per duration of one
reference run.  The computation lives in the benchmark's own files so no
change to the platform can speed it up, and it runs with the cyclic
collector paused so the platform's heap size cannot slow it down.
"""

from __future__ import annotations

import gc
import time


class _Account:
    __slots__ = ("owner", "balance", "history")

    def __init__(self, owner: str):
        self.owner = owner
        self.balance = 0
        self.history: list[int] = []

    def deposit(self, amount: int) -> int:
        self.balance += amount
        self.history.append(amount)
        return self.balance


def _work(rounds: int = 600) -> int:
    """Object allocation, method calls, dict and list work: the platform's mix."""
    accounts: dict[str, _Account] = {}
    total = 0
    for i in range(rounds):
        key = f"acct-{i % 61}"
        account = accounts.get(key)
        if account is None:
            account = accounts[key] = _Account(key)
        total += account.deposit(i % 7)
    ordered = sorted(accounts.values(), key=lambda a: (a.balance, a.owner))
    return total + sum(len(a.history) for a in ordered)


def reference_seconds(repeat: int = 3) -> float:
    """Best-of-``repeat`` wall seconds of one reference run."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeat):
            start = time.perf_counter()
            _work()
            best = min(best, time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return best
