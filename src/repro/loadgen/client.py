"""Closed-loop virtual clients.

Each :class:`LoadClient` is one member of a closed population: it thinks
for a while, issues exactly one operation against the base station,
waits for that operation to resolve (success, rejection, or a client-
side deadline), records the latency, and thinks again.  The population
size therefore bounds the number of in-flight operations — the defining
property of a closed system, and what makes the interactive response-
time law ``R = N / X - Z`` applicable to the measurements.

A client is *not* a full :class:`~repro.midas.receiver.AdaptationService`
— it is a :class:`~repro.scenarios.nodes.ProtocolStub`, the receiver
side of MIDAS that storm nodes share, so it completes the base's side of
each operation (grant/refresh/renew/drop leases) without verification or
weaving cost, and the base station's pipeline is the only station in the
measured system.  This module adds only the closed loop and the load
harness's registration policy: requests time out after the scenario's
``op_timeout``, and a lost first registration is sent again.
Operations travel to the base as a one-way ``loadgen.drive`` notify
(the memtier → net-thread hop); the harness's drive handler turns them
into real :class:`~repro.midas.base.ExtensionBase` calls.
"""

from __future__ import annotations

import random

from repro.loadgen.scenario import Scenario
from repro.loadgen.windows import WindowedCollector
from repro.net.transport import Transport
from repro.scenarios.nodes import ProtocolStub
from repro.sim.kernel import Event, Simulator

#: The one-way operation carrying a client's next op to the base.
DRIVE = "loadgen.drive"


class LoadClient(ProtocolStub):
    """One virtual client of the closed population."""

    def __init__(
        self,
        index: int,
        transport: Transport,
        simulator: Simulator,
        scenario: Scenario,
        base_id: str,
        collector: WindowedCollector,
    ):
        # Registrars cap lease terms (30s by default), so the stub's
        # registration upkeep must renew or the base sees the node
        # deregister mid-run and drops every adaptation it holds for it.
        # Renewals are served inline by the registrar (no pipeline job),
        # so the upkeep does not load the measured station.
        super().__init__(transport, simulator, "loadgen", scenario.lease_duration)
        self.index = index
        self.scenario = scenario
        self.base_id = base_id
        self.collector = collector
        self.rng = random.Random(f"loadgen:{scenario.seed}:client:{index}")
        self._catalog = [ext_name(i) for i in range(scenario.catalog_size)]
        self._mix = sorted(scenario.normalized_mix().items())
        self.stopped = False
        #: Monotonic op number; completions carry it so a late or
        #: duplicate resolution of a timed-out op cannot complete the
        #: next one.
        self.seq = 0
        self._pending: tuple[int, str, str, float] | None = None  # seq, op, name, t0
        self._deadline: Event | None = None
        # Loop accounting (includes warmup; the collector trims).
        self.issued = 0
        self.completed = 0
        self.errors = 0

    # -- closed loop ---------------------------------------------------------------

    def start(self) -> None:
        """Enter the loop: register if the scenario says so, then think.

        The loop itself starts after one think period, so client
        start-ups are naturally staggered by their seeded think draws.
        """
        if self.scenario.register_clients:
            self._register()
        self.simulator.schedule(self._think_delay(), self._issue)

    def _register(self) -> None:
        # Registration is load-bearing (its reply arms the registrar
        # lease upkeep): a lost request is sent again, paced by the op
        # timeout, until the station answers.
        self.arrive(
            self.base_id,
            self.scenario.op_timeout,
            on_error=lambda error: self._register(),
        )

    def stop(self) -> None:
        """Leave the loop; a pending op resolves silently."""
        self.stopped = True
        if self._deadline is not None:
            self._deadline.cancel()
            self._deadline = None
        self.depart()

    def _think_delay(self) -> float:
        think = self.scenario.think_time
        if think <= 0:
            return 0.0
        if self.scenario.think_distribution == "exponential":
            return self.rng.expovariate(1.0 / think)
        return think

    def _choose_op(self) -> tuple[str, str]:
        """Next (op, extension name) from the mix.

        Ops that need a held lease (renew, revoke) degrade to install
        when the stub holds none — the loop must never block on state.
        """
        draw = self.rng.random()
        op = self._mix[-1][0]
        cumulative = 0.0
        for candidate, weight in self._mix:
            cumulative += weight
            if draw < cumulative:
                op = candidate
                break
        held = sorted(name for _granter, name in self.held)
        if op in ("renew", "revoke") and not held:
            op = "install"
        if op == "discovery" and self.service_item is None:
            op = "install"
        if op == "revoke":
            return op, held[self.rng.randrange(len(held))]
        return op, self._catalog[self.rng.randrange(len(self._catalog))]

    def _issue(self) -> None:
        if self.stopped:
            return
        op, name = self._choose_op()
        self.seq += 1
        self.issued += 1
        self._pending = (self.seq, op, name, self.simulator.now)
        self._deadline = self.simulator.schedule(
            self.scenario.op_timeout, self._timed_out, self.seq
        )
        if op == "discovery":
            # Re-register the adaptation service under the same item: a
            # real lookup.register round.  Completion is the registrar's
            # reply; the base may additionally re-offer extensions this
            # stub is missing.
            seq = self.seq
            self.reregister(
                self.scenario.op_timeout,
                on_registered=lambda: self.resolve(seq, True),
                on_error=lambda error: self.resolve(seq, False),
            )
            return
        self.transport.notify(
            self.base_id,
            DRIVE,
            {"client": self.node_id, "seq": self.seq, "op": op, "name": name},
        )

    def resolve(self, seq: int, ok: bool) -> None:
        """Complete the pending op ``seq`` (called by the harness router)."""
        if self.stopped or self._pending is None or self._pending[0] != seq:
            return  # late, duplicate, or post-stop resolution
        _, op, _, started = self._pending
        self._pending = None
        if self._deadline is not None:
            self._deadline.cancel()
            self._deadline = None
        if ok:
            self.completed += 1
        else:
            self.errors += 1
        self.collector.record(op, self.simulator.now - started, ok=ok)
        self.simulator.schedule(self._think_delay(), self._issue)

    def _timed_out(self, seq: int) -> None:
        self._deadline = None
        self.resolve(seq, ok=False)


def ext_name(index: int) -> str:
    """Catalog entry name for extension ``index`` (shared with the harness)."""
    return f"load-ext-{index:02d}"
