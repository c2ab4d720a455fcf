"""The radio fabric.

Connectivity is symmetric and range-based: two nodes can exchange messages
only when their distance is within *both* radio ranges (and no explicit
partition separates them).  Latency is distance-dependent plus seeded
jitter; loss is seeded-probabilistic.  All randomness comes from one
``random.Random(seed)``, so runs are reproducible.

Every delivery hands the receiver its own copy of the payload, taken
with :func:`repro.net.wire.clone` when the message arrives (not when it
is sent), so no mutable state is ever shared between nodes — see
:mod:`repro.net.message`.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.errors import UnknownNodeError
from repro.net.message import Message
from repro.net.node import NetworkNode
from repro.net.wire import clone
from repro.sim.kernel import Simulator
from repro.util.signal import Signal

logger = logging.getLogger(__name__)


class NetworkConfig:
    """Tunable radio parameters."""

    __slots__ = (
        "base_latency",
        "latency_per_meter",
        "jitter",
        "loss_probability",
        "fifo_links",
    )

    def __init__(
        self,
        base_latency: float = 0.002,
        latency_per_meter: float = 0.00001,
        jitter: float = 0.0005,
        loss_probability: float = 0.0,
        fifo_links: bool = True,
    ):
        self.base_latency = base_latency
        self.latency_per_meter = latency_per_meter
        self.jitter = jitter
        self.loss_probability = loss_probability
        #: Deliver messages on each (source, destination) link in send
        #: order (link-layer/TCP-style ordering).  Jitter still varies
        #: latency but can no longer reorder a flow.
        self.fifo_links = fifo_links


@dataclass(frozen=True)
class FaultVerdict:
    """What a fault hook wants done with one message.

    ``drop_reason`` set means the message dies (counted and reported
    like any other drop).  Otherwise it is delivered ``copies`` times,
    each ``extra_delay`` seconds later than physics alone would allow;
    ``bypass_fifo`` exempts it from link-FIFO ordering so it can
    overtake earlier traffic (reordering).
    """

    drop_reason: str | None = None
    extra_delay: float = 0.0
    copies: int = 1
    bypass_fifo: bool = False


#: Hook signature: (message, source, destination) -> verdict or None.
#: None means "no opinion" — the message takes the normal path.
FaultHook = Callable[[Message, NetworkNode, NetworkNode], "FaultVerdict | None"]

#: Shared "no opinion" verdict, so the unfaulted path allocates nothing.
_CLEAN = FaultVerdict()


class Network:
    """A simulated wireless network over the discrete-event kernel."""

    def __init__(
        self,
        simulator: Simulator,
        config: NetworkConfig | None = None,
        seed: int = 0,
    ):
        self.simulator = simulator
        self.config = config or NetworkConfig()
        self._rng = random.Random(seed)
        self._nodes: dict[str, NetworkNode] = {}
        self._partitions: set[frozenset[str]] = set()
        self._wired: set[frozenset[str]] = set()
        self._link_clock: dict[tuple[str, str], float] = {}
        #: Optional fault-injection hook (see :mod:`repro.faults`).  None
        #: keeps transmission on the exact unfaulted code path — no call,
        #: no RNG draw — so chaos tooling costs nothing when unused.
        self.fault_hook: FaultHook | None = None
        #: Fires with (message, reason) when a message cannot be delivered.
        self.on_drop = Signal("network.on_drop")
        self.messages_transmitted = 0
        self.messages_delivered = 0
        self.messages_dropped = 0

    @property
    def rng(self) -> random.Random:
        """The network's seeded RNG (shared with fault injection so one
        seed reproduces an entire chaos run)."""
        return self._rng

    # -- membership --------------------------------------------------------------

    def attach(self, node: NetworkNode) -> NetworkNode:
        """Add ``node`` to the network; returns it for chaining."""
        if node.node_id in self._nodes:
            raise UnknownNodeError(f"node id {node.node_id!r} already attached")
        self._nodes[node.node_id] = node
        node.network = self
        return node

    def detach(self, node: NetworkNode) -> None:
        """Remove ``node``; in-flight messages to it will be dropped."""
        self._nodes.pop(node.node_id, None)
        node.network = None

    def node(self, node_id: str) -> NetworkNode:
        """Look up an attached node by id."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(f"no node {node_id!r} on this network") from None

    def nodes(self) -> Iterator[NetworkNode]:
        """All attached nodes."""
        return iter(self._nodes.values())

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    # -- partitions ----------------------------------------------------------------

    def partition(self, node_a: str, node_b: str) -> None:
        """Forcibly sever the link between two nodes (fault injection).

        Messages already in flight on the link were transmitted before
        the wall went up and still arrive — only *detaching* a node kills
        its in-flight traffic.  Accounting stays consistent either way:
        every unicast transmission ends in exactly one delivery or one
        counted drop.
        """
        self._partitions.add(frozenset((node_a, node_b)))

    def heal(self, node_a: str, node_b: str) -> None:
        """Undo a :meth:`partition`."""
        self._partitions.discard(frozenset((node_a, node_b)))

    def heal_all(self) -> None:
        """Undo all partitions."""
        self._partitions.clear()

    # -- wired links ---------------------------------------------------------------

    def wire(self, node_a: str, node_b: str) -> None:
        """Connect two nodes by wire: reachable at any distance.

        Models the fixed backbone between base stations (partitions still
        sever wired links — backbones can fail too).
        """
        self._wired.add(frozenset((node_a, node_b)))

    def unwire(self, node_a: str, node_b: str) -> None:
        """Remove a wired link (radio rules apply again)."""
        self._wired.discard(frozenset((node_a, node_b)))

    # -- connectivity -----------------------------------------------------------------

    def reachable(self, source: NetworkNode, destination: NetworkNode) -> bool:
        """Can a message travel from ``source`` to ``destination`` right now?"""
        link = frozenset((source.node_id, destination.node_id))
        if link in self._partitions:
            return False
        if link in self._wired:
            return True
        distance = source.distance_to(destination)
        return distance <= source.radio_range and distance <= destination.radio_range

    def neighbors(self, node: NetworkNode) -> list[NetworkNode]:
        """All nodes currently reachable from ``node``."""
        return [
            other
            for other in self._nodes.values()
            if other is not node and self.reachable(node, other)
        ]

    # -- transmission ------------------------------------------------------------------

    def transmit(self, message: Message) -> None:
        """Send ``message`` from its source; called by nodes."""
        self.messages_transmitted += 1
        source = self._nodes.get(message.source)
        if source is None:
            self._drop(message, "source detached")
            return
        if message.is_broadcast:
            for neighbor in self.neighbors(source):
                self._transmit_one(message, source, neighbor)
            return
        destination = self._nodes.get(message.destination)
        if destination is None:
            self._drop(message, "destination unknown")
            return
        self._transmit_one(message, source, destination)

    def _transmit_one(
        self, message: Message, source: NetworkNode, destination: NetworkNode
    ) -> None:
        if not self.reachable(source, destination):
            self._drop(message, "out of range")
            return
        verdict = _CLEAN
        if self.fault_hook is not None:
            verdict = self.fault_hook(message, source, destination) or _CLEAN
            if verdict.drop_reason is not None:
                self._drop(message, verdict.drop_reason)
                return
        if (
            self.config.loss_probability > 0
            and self._rng.random() < self.config.loss_probability
        ):
            self._drop(message, "radio loss")
            return
        fifo = self.config.fifo_links and not verdict.bypass_fifo
        for _ in range(verdict.copies):
            deliver_at = (
                self.simulator.now
                + self._latency(source, destination)
                + verdict.extra_delay
            )
            if fifo:
                link = (source.node_id, destination.node_id)
                deliver_at = max(deliver_at, self._link_clock.get(link, 0.0))
                self._link_clock[link] = deliver_at
            self.simulator.schedule_at(
                deliver_at, self._deliver, message, destination.node_id
            )

    def _latency(self, source: NetworkNode, destination: NetworkNode) -> float:
        distance = source.distance_to(destination)
        jitter = self._rng.uniform(0, self.config.jitter) if self.config.jitter else 0.0
        return (
            self.config.base_latency
            + self.config.latency_per_meter * distance
            + jitter
        )

    def _deliver(self, message: Message, destination_id: str) -> None:
        destination = self._nodes.get(destination_id)
        if destination is None:
            self._drop(message, "destination detached in flight")
            return
        if message.payload is not None:
            message = Message(
                message.source,
                message.destination,
                message.kind,
                clone(message.payload),
                message.message_id,
                trace=message.trace,
            )
        self.messages_delivered += 1
        destination.deliver(message)

    def _drop(self, message: Message, reason: str) -> None:
        self.messages_dropped += 1
        logger.debug("dropped %r: %s", message, reason)
        self.on_drop.fire(message, reason)

    def __repr__(self) -> str:
        return f"<Network nodes={len(self._nodes)} delivered={self.messages_delivered}>"
