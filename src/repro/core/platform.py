"""Platform assembly: the base-station and mobile-node roles.

Wiring diagram (one hall, one robot)::

    BaseStation                              MobileNode
    ───────────                              ──────────
    LookupService ◄── announce/register ───  DiscoveryClient
    ExtensionBase ─── midas.offer ────────►  AdaptationService ──► ProseVM
          ▲       ─── midas.keepalive ──►        │ lease table
          │                                      ▼
    MovementStore ◄── store.append ───────  HwMonitoring advice
    MirrorHub     ◄── mirror.feed ────────  ReplicationExtension advice

Everything runs on one shared :class:`~repro.sim.kernel.Simulator`; call
:meth:`ProactivePlatform.run_for` to advance the world.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping

from repro.aop.aspect import Aspect
from repro.aop.sandbox import Capability, SandboxPolicy
from repro.aop.vm import ProseVM
from repro.discovery.client import DiscoveryClient
from repro.discovery.registrar import LookupService
from repro.discovery.service import ServiceItem
from repro.extensions.replication import MirrorHub
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.leasing.table import DEFAULT_DURATION
from repro.midas.base import DEFAULT_ROAM_SYNC_INTERVAL, ExtensionBase
from repro.midas.catalog import ExtensionCatalog
from repro.midas.pipeline import PipelineConfig
from repro.midas.receiver import AdaptationService
from repro.midas.remote import RemoteCaller, ServiceRef
from repro.midas.scheduler import SchedulerService
from repro.midas.trust import Signer, TrustStore
from repro.net.geometry import ORIGIN, Position, Region
from repro.net.mobility import WaypointMobility
from repro.net.network import Network, NetworkConfig
from repro.net.node import DEFAULT_RADIO_RANGE, NetworkNode
from repro.net.transport import Transport
from repro.resilience.policy import RetryPolicy
from repro.sim.kernel import Simulator
from repro.store.database import MovementStore
from repro.supervision import SupervisionPolicy
from repro.store.service import APPEND, STORE_INTERFACE, StoreService
from repro.telemetry import MetricsRegistry
from repro.telemetry import runtime as _telemetry
from repro.telemetry.recorder import FlightRecorderHub

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.profiler import JoinPointProfiler


class BaseStation:
    """One proactive environment: registrar, extension base, hall database."""

    def __init__(
        self,
        platform: "ProactivePlatform",
        node: NetworkNode,
        signer: Signer,
        lease_duration: float,
    ):
        self.platform = platform
        self.node = node
        self.signer = signer
        self.transport = Transport(node, platform.simulator)
        self.lookup = LookupService(self.transport, platform.simulator)
        self.catalog = ExtensionCatalog(signer)
        self.extension_base = ExtensionBase(
            self.transport,
            platform.simulator,
            self.catalog,
            lease_duration,
            retry_policy=platform.retry_policy,
            pipeline=platform.pipeline,
            roam_sync_interval=platform.roam_sync_interval,
        )
        self.extension_base.watch_lookup(self.lookup)
        self.db = MovementStore(name=f"{node.node_id}.db")
        self.store_service = StoreService(self.db, self.transport)
        self.mirror_hub = MirrorHub(self.transport)
        # The hall's own services are visible to clients of its registrar.
        self.lookup.register_local(
            ServiceItem(
                STORE_INTERFACE, node.node_id, {"store": self.db.name}
            )
        )
        self.lookup.start()

    @property
    def node_id(self) -> str:
        """This station's network address."""
        return self.node.node_id

    @property
    def store_ref(self) -> ServiceRef:
        """Where monitoring extensions should post movement records."""
        return ServiceRef(self.node_id, APPEND)

    def add_extension(self, name: str, factory: Callable[[], Aspect]) -> None:
        """Add an extension to this hall's policy (future arrivals get it)."""
        self.catalog.add(name, factory)

    def replace_extension(self, name: str, factory: Callable[[], Aspect]) -> None:
        """Change the hall policy: swap the extension on every adapted node."""
        self.extension_base.replace_extension(name, factory)

    # -- crash / restart ---------------------------------------------------------

    def reset_volatile(self) -> None:
        """Crash model: lose everything in memory.

        Leased registrations, listener subscriptions, the adapted-node
        map, in-flight requests — gone.  The hall database, the signing
        key, the catalog and the locally registered items are durable and
        survive into the restart.
        """
        self.transport.reset_volatile()
        self.lookup.reset_volatile()
        self.extension_base.reset_volatile()

    def recover(self) -> None:
        """Restart: announce immediately so nodes in range re-register
        (and the reconciler then re-adapts them) without waiting out a
        full announce interval."""
        self.lookup.announce()

    def __repr__(self) -> str:
        return f"<BaseStation {self.node_id} catalog={self.catalog.names()}>"


class MobileNode:
    """A PROSE-enabled device carrying the MIDAS adaptation service."""

    def __init__(
        self,
        platform: "ProactivePlatform",
        node: NetworkNode,
        trust_store: TrustStore,
        policy: SandboxPolicy,
        attributes: Mapping[str, object] | None = None,
        supervision: SupervisionPolicy | None = None,
    ):
        self.platform = platform
        self.node = node
        self.vm = ProseVM(name=node.node_id)
        self.transport = Transport(node, platform.simulator)
        self.discovery = DiscoveryClient(
            self.transport, platform.simulator, retry_policy=platform.retry_policy
        )
        self.trust_store = trust_store
        self.mobility = WaypointMobility(platform.simulator, node)
        services = {
            Capability.NETWORK: RemoteCaller(self.transport),
            Capability.CLOCK: platform.simulator.clock,
            Capability.SCHEDULER: SchedulerService(platform.simulator),
        }
        self.adaptation = AdaptationService(
            self.vm,
            self.transport,
            platform.simulator,
            trust_store,
            policy=policy,
            services=services,
            discovery=self.discovery,
            attributes=attributes,
            supervision=supervision,
        )
        self.discovery.start()
        self.adaptation.start()

    @property
    def supervisor(self):
        """This node's extension supervisor (None when unsupervised)."""
        return self.adaptation.supervisor

    @property
    def node_id(self) -> str:
        """This node's network address."""
        return self.node.node_id

    def load_class(self, cls: type) -> type:
        """Instrument an application class on this node's VM."""
        return self.vm.load_class(cls)

    def provide_service(self, capability: str, service: object) -> None:
        """Expose a node resource (e.g. hardware) to extensions."""
        self.adaptation.provide_service(capability, service)

    def walk_to(self, target: Position | Region) -> None:
        """Queue a physical movement (connectivity follows position)."""
        self.mobility.go_to(target)

    def extensions(self) -> list[str]:
        """Names of the extensions currently live on this node."""
        return [installed.name for installed in self.adaptation.installed()]

    # -- crash / restart ---------------------------------------------------------

    def reset_volatile(self) -> None:
        """Crash model: lose everything in memory.

        Installed extensions, known registrars, held leases and pending
        requests vanish; the trust store and sandbox policy (the node's
        provisioning) survive into the restart.
        """
        self.transport.reset_volatile()
        self.adaptation.reset_volatile()
        self.discovery.reset_volatile()

    def recover(self) -> None:
        """Restart: re-advertise the adaptation service and probe for
        registrars, so bases re-adapt this node within one reconcile."""
        self.adaptation.start()
        self.discovery.probe()

    def __repr__(self) -> str:
        return f"<MobileNode {self.node_id} extensions={self.extensions()}>"


class ProactivePlatform:
    """The simulated world: one kernel, one radio network, many nodes."""

    def __init__(
        self,
        seed: int = 0,
        network_config: NetworkConfig | None = None,
        lease_duration: float = DEFAULT_DURATION,
        retry_policy: RetryPolicy | None = None,
        supervision: SupervisionPolicy | None = None,
        pipeline: PipelineConfig | None = None,
        roam_sync_interval: float = DEFAULT_ROAM_SYNC_INTERVAL,
    ):
        self.simulator = Simulator()
        self.network = Network(self.simulator, config=network_config, seed=seed)
        self.lease_duration = lease_duration
        #: Period of the anti-entropy roam reconciliation linked base
        #: stations run (see ExtensionBase).
        self.roam_sync_interval = roam_sync_interval
        #: Pipeline shape handed to every base station built here; None
        #: keeps the classic inline (single-worker, zero-service) mode.
        self.pipeline = pipeline
        #: Resilience policy handed to every base and mobile node built
        #: here (retrying offers/registrations, keepalive backoff); None
        #: keeps the classic reconcile-only behavior.
        self.retry_policy = retry_policy
        #: Supervision policy handed to every mobile node built here;
        #: None keeps the classic unsupervised (zero-overhead) dispatch.
        self.supervision = supervision
        self.base_stations: dict[str, BaseStation] = {}
        self.mobile_nodes: dict[str, MobileNode] = {}
        #: The injector run by :meth:`install_faults`, if any.
        self.fault_injector: FaultInjector | None = None
        #: The telemetry registry, once :meth:`enable_telemetry` runs.
        self.telemetry: MetricsRegistry | None = None
        #: The join-point profiler, once :meth:`enable_profiler` runs.
        self.profiler: "JoinPointProfiler | None" = None
        self._previous_recorder: _telemetry.Recorder | None = None

    # -- construction -----------------------------------------------------------

    def create_base_station(
        self,
        node_id: str,
        position: Position = ORIGIN,
        radio_range: float = DEFAULT_RADIO_RANGE,
        signer: Signer | None = None,
    ) -> BaseStation:
        """Stand up a base station (registrar + extension base + DB)."""
        node = self.network.attach(NetworkNode(node_id, position, radio_range))
        station = BaseStation(
            self,
            node,
            signer or Signer.generate(node_id),
            self.lease_duration,
        )
        self.base_stations[node_id] = station
        # Base stations share a wired backbone and learn about each other
        # for the roaming algorithm.
        for other in self.base_stations.values():
            if other is not station:
                self.network.wire(node_id, other.node_id)
                other.extension_base.link_peer_base(node_id)
                station.extension_base.link_peer_base(other.node_id)
        return station

    def create_mobile_node(
        self,
        node_id: str,
        position: Position = ORIGIN,
        radio_range: float = DEFAULT_RADIO_RANGE,
        trusted: Iterable[Signer] = (),
        policy: SandboxPolicy | None = None,
        attributes: Mapping[str, object] | None = None,
        supervision: SupervisionPolicy | None = None,
    ) -> MobileNode:
        """Stand up an adaptable mobile node.

        ``trusted`` provisions the node's trust store; by default every
        *currently existing* base station's signer is trusted (override
        with an explicit list for security experiments).  ``attributes``
        go on the advertised adaptation service (e.g. ``{"class":
        "robot"}`` scopes base-side quarantine marks to a device class);
        ``supervision`` overrides the platform-wide policy for this node.
        """
        node = self.network.attach(NetworkNode(node_id, position, radio_range))
        trust_store = TrustStore()
        signers = list(trusted) or [
            station.signer for station in self.base_stations.values()
        ]
        for signer in signers:
            trust_store.trust_signer(signer)
        mobile = MobileNode(
            self,
            node,
            trust_store,
            policy or SandboxPolicy.permissive(),
            attributes=attributes,
            supervision=supervision or self.supervision,
        )
        if self.profiler is not None:
            mobile.vm.profiler = self.profiler
        self.mobile_nodes[node_id] = mobile
        return mobile

    # -- time ----------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.simulator.now

    def run_for(self, seconds: float) -> int:
        """Advance the world by ``seconds`` of virtual time."""
        return self.simulator.run_for(seconds)

    # -- fault injection ---------------------------------------------------------------

    def install_faults(self, plan: FaultPlan) -> FaultInjector:
        """Run ``plan`` against this world, with full crash semantics.

        Message rules hook the network; scheduled crashes detach the node
        *and* wipe its volatile state (leases, registrations, installed
        extensions, in-flight requests — durable stores and keys
        survive); restarts reattach it and kick recovery (announce /
        probe + re-advertise).  Clock skews replace the skewed nodes'
        CLOCK service.  Deterministic: the plan draws on the network's
        seeded RNG and the simulation clock only.
        """
        if self.fault_injector is not None:
            self.fault_injector.uninstall()
        injector = FaultInjector(self.network, self.simulator, plan)
        injector.on_crash.connect(self._node_crashed)
        injector.on_restart.connect(self._node_restarted)
        injector.install()
        for skew in plan.clock_skews:
            mobile = self.mobile_nodes.get(skew.node_id)
            if mobile is not None:
                mobile.provide_service(
                    Capability.CLOCK, injector.clock_for(skew.node_id)
                )
        self.fault_injector = injector
        return injector

    def _node_crashed(self, node_id: str) -> None:
        station = self.base_stations.get(node_id)
        if station is not None:
            station.reset_volatile()
        mobile = self.mobile_nodes.get(node_id)
        if mobile is not None:
            mobile.reset_volatile()

    def _node_restarted(self, node_id: str) -> None:
        station = self.base_stations.get(node_id)
        if station is not None:
            station.recover()
        mobile = self.mobile_nodes.get(node_id)
        if mobile is not None:
            mobile.recover()

    # -- observability ----------------------------------------------------------------

    def enable_telemetry(
        self,
        registry: MetricsRegistry | None = None,
        flight: bool = True,
        dump_dir: str | None = None,
    ) -> MetricsRegistry:
        """Install a metrics registry on the simulator's clock.

        Every instrumented point in the stack (advice dispatch, transport,
        MIDAS lifecycle, leases, tuple spaces) starts reporting here; the
        registry's timestamps are virtual time, so exports are
        deterministic.  Returns the registry (pass your own to share one
        across platforms).  Call :meth:`disable_telemetry` to restore the
        previous recorder.

        Unless ``flight=False``, a :class:`FlightRecorderHub` is attached
        (if the registry doesn't already carry one) so lifecycle events
        also land on per-node flight rings; ``dump_dir`` makes crashes
        and quarantines auto-dump the affected node's ring there.
        """
        if self.telemetry is not None:
            return self.telemetry
        registry = registry or MetricsRegistry(clock=self.simulator.clock)
        if flight and registry.flight is None:
            registry.flight = FlightRecorderHub(
                clock=self.simulator.clock, dump_dir=dump_dir
            )
        self._previous_recorder = _telemetry.install(registry)
        self.telemetry = registry
        return registry

    def enable_profiler(self, profiler: "JoinPointProfiler | None" = None):
        """Attach a join-point profiler to every mobile node's VM.

        Nodes created *after* this call are profiled too.  Attach before
        the scenario runs: advice woven earlier is not re-wrapped.
        Returns the profiler.
        """
        from repro.telemetry.profiler import JoinPointProfiler

        if self.profiler is None:
            self.profiler = profiler or JoinPointProfiler()
            for mobile in self.mobile_nodes.values():
                mobile.vm.profiler = self.profiler
        return self.profiler

    def disable_telemetry(self) -> MetricsRegistry | None:
        """Uninstall this platform's registry; returns it for inspection."""
        registry = self.telemetry
        if registry is None:
            return None
        _telemetry.install(self._previous_recorder)
        self._previous_recorder = None
        self.telemetry = None
        return registry

    def summary(self) -> dict:
        """A snapshot of the world, for dashboards, tests and ``repro obs``.

        Covers the radio (traffic/drops), every base station (catalog,
        adapted nodes, database size, registrations, accept-queue
        pipeline stats, breakers) and every mobile node (installed
        extensions with version, origin base and lease id; lease TTLs
        and renewal counts; breakers; quarantine detail; weaving and
        interception counts).  Lease ids are process-global, so replay
        comparisons must leave them out.
        """
        now = self.now
        return {
            "time": now,
            "network": {
                "transmitted": self.network.messages_transmitted,
                "delivered": self.network.messages_delivered,
                "dropped": self.network.messages_dropped,
            },
            "base_stations": {
                node_id: {
                    "catalog": station.catalog.names(),
                    "adapted_nodes": station.extension_base.adapted_nodes(),
                    "db_records": len(station.db),
                    "registrations": station.lookup.registration_count(),
                    "pipeline": (
                        None
                        if station.extension_base.pipeline is None
                        else station.extension_base.pipeline.stats()
                    ),
                    "breakers": _breakers(station.extension_base.resilient_client),
                }
                for node_id, station in self.base_stations.items()
            },
            "mobile_nodes": {
                node_id: {
                    "position": tuple(node.node.position),
                    "extensions": [
                        {
                            "name": installed.name,
                            "version": installed.envelope.version,
                            "base": installed.base_id,
                            "lease_id": installed.lease_id,
                        }
                        for installed in node.adaptation.installed()
                    ],
                    "classes_loaded": node.vm.stats.classes_loaded,
                    "interceptions": node.vm.interception_count(),
                    "quarantined": (
                        []
                        if node.supervisor is None
                        else [
                            health.as_dict()
                            for health in node.supervisor.quarantined()
                        ]
                    ),
                    "leases": [
                        {
                            "resource": str(lease.resource),
                            "holder": lease.holder,
                            "remaining": lease.remaining(now),
                            "renewals": lease.renewals,
                        }
                        for lease in sorted(
                            node.adaptation.leases.active(),
                            key=lambda lease: str(lease.resource),
                        )
                    ],
                    "breakers": _breakers(node.discovery.resilient_client),
                }
                for node_id, node in self.mobile_nodes.items()
            },
        }

    def to_records(self) -> list[dict]:
        """One ``node`` record per base and mobile node, bases first and
        each sorted by id: its :meth:`summary` entry, as the run artifact
        of :mod:`repro.telemetry.obs` holds it."""
        summary = self.summary()
        return [
            {"type": "node", "node": node_id, "role": role, "time": self.now, **view}
            for role, key in (("base", "base_stations"), ("mobile", "mobile_nodes"))
            for node_id, view in sorted(summary[key].items())
        ]

    def __repr__(self) -> str:
        return (
            f"<ProactivePlatform t={self.now:.2f} "
            f"bases={sorted(self.base_stations)} nodes={sorted(self.mobile_nodes)}>"
        )


def _breakers(client: Any) -> list[dict]:
    """The circuit breakers a resilient client has minted, by peer."""
    if client is None:
        return []
    return [
        {
            "owner": breaker.owner,
            "peer": peer,
            "state": breaker.state.value,
            "failures": breaker.failures,
            "times_opened": breaker.times_opened,
        }
        for peer, breaker in sorted(client.breakers().items())
    ]


def capability_services(
    platform: ProactivePlatform, transport: Transport, extra: Mapping[str, object] = ()
) -> dict[str, object]:
    """The standard gateway service set for a node (helper for custom wiring)."""
    services: dict[str, object] = {
        Capability.NETWORK: RemoteCaller(transport),
        Capability.CLOCK: platform.simulator.clock,
        Capability.SCHEDULER: SchedulerService(platform.simulator),
    }
    services.update(dict(extra) if extra else {})
    return services
