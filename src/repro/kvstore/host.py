"""The cluster host both backends share.

A :class:`ClusterHost` is everything about a running cluster that does not
depend on how a message travels: ring, membership and placement; the write
log and Merkle sync stats; one
:class:`~repro.kvstore.protocol.env.StaticProtocolEnv`; one
:class:`HostedServer` per storage server and one :class:`HostedClient` per
client; the anti-entropy and hint-replay daemons; convergence checks and
metrics.  A backend subclasses it and supplies three things:

* ``_transport_for(node_id, handler)`` — the
  :class:`~repro.network.base.ProtocolTransport` a new server or client
  sends through, with ``handler`` registered for its inbound messages;
* ``transport_stats()`` — the :class:`~repro.network.transport.TransportStats`
  objects whose sum is the cluster's traffic;
* a scheduler for the daemons — anything with ``schedule(delay_ms, callback,
  label)`` returning a cancellable handle — passed to :meth:`_start_daemons`.

:class:`~repro.kvstore.simulated.SimulatedCluster` adds the simulator's
clock, fault injection and membership operations;
:class:`~repro.kvstore.asyncio_cluster.AsyncioCluster` adds socket
addressing and start/stop.  Shells never point back at the host, so a
stopped socket cluster is garbage as soon as its owner drops it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from ..clocks.interface import CausalityMechanism
from ..cluster.membership import Membership
from ..cluster.preference_list import PlacementService, QuorumConfig
from ..cluster.ring import ConsistentHashRing, PartitionMap
from ..cluster.topology import Topology
from ..core.exceptions import ConfigurationError
from ..network.message import Message
from ..network.transport import TransportStats
from ..obs.cluster_metrics import build_cluster_registry
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NO_TRACER
from .anti_entropy import AntiEntropyDaemon, HintedHandoffDaemon
from .client import GetResult, PutResult
from .merkle import key_fingerprint
from .protocol import (
    DEADLINE_MODES,
    REQUEST_MODES,
    SYNC_MESSAGE_TYPES,
    ClientProtocol,
    EffectRunner,
    MerkleSyncStats,
    ProtocolNode,
    RequestRecord,
)
from .protocol.env import StaticProtocolEnv
from .server import StorageNode
from .write_log import WriteLog

ANTI_ENTROPY_STRATEGIES = ("merkle", "full")

#: ``transport_for(node_id, handler)``: a backend's transport for a new node,
#: delivering that node's inbound messages to ``handler``.
TransportFactory = Callable[[str, Callable[[Message], None]], Any]


class HostedServer:
    """One storage server: a :class:`ProtocolNode` and its effect runner.

    The node owns the durable :class:`StorageNode` (plus its
    write-maintained per-vnode Merkle index); the runner executes
    the effects the machines emit against the backend's transport, whose
    clock is the ``now`` every entry point is handed.
    """

    def __init__(self, node_id: str, env: StaticProtocolEnv,
                 transport_for: TransportFactory) -> None:
        self.node_id = node_id
        self.protocol = ProtocolNode(node_id, env.mechanism, env)
        self.transport = transport_for(node_id, self.handle_message)
        self.runner = EffectRunner(self.transport, self.protocol.on_timer)

    @property
    def node(self) -> StorageNode:
        """The server's storage layer (durable state, stats, hints, index)."""
        return self.protocol.store

    def handle_message(self, message: Message) -> None:
        """Transport entry point."""
        self.runner.run(
            self.protocol.on_message(message, self.transport.now_ms()))

    def replay_hints(self) -> int:
        """One hint-replay tick; returns the number of batches sent."""
        effects, batches = self.protocol.replay_hints(self.transport.now_ms())
        self.runner.run(effects)
        return batches

    def start_sync_with(self, peer_id: str) -> None:
        """Begin a full-state anti-entropy exchange with ``peer_id``."""
        self.runner.run(
            self.protocol.start_sync_with(peer_id, self.transport.now_ms()))

    def start_merkle_sync_with(self, peer_id: str) -> None:
        """Begin a Merkle-delta exchange with ``peer_id``."""
        self.runner.run(
            self.protocol.start_merkle_sync_with(peer_id, self.transport.now_ms()))

    def send_key_handoff(self, target_id: str, keys: Sequence[str]) -> None:
        """Push the states of ``keys`` to a node that became a replica home."""
        self.runner.run(
            self.protocol.send_key_handoff(target_id, keys, self.transport.now_ms()))


class HostedClient:
    """One client: a :class:`ClientProtocol` and its effect runner.

    The machine keeps the causal session and the request records; requests
    are asynchronous, and ``callback`` receives the :class:`GetResult` /
    :class:`PutResult` (or ``None`` once every coordinator candidate failed).
    """

    def __init__(self, client_id: str, env: StaticProtocolEnv,
                 transport_for: TransportFactory) -> None:
        self.client_id = client_id
        self.protocol = ClientProtocol(client_id, env)
        self.transport = transport_for(self.protocol.address, self.handle_message)
        self.runner = EffectRunner(self.transport, self.protocol.on_timer)

    @property
    def address(self) -> str:
        return self.protocol.address

    @property
    def session(self):
        return self.protocol.session

    @property
    def records(self) -> List[RequestRecord]:
        return self.protocol.records

    def handle_message(self, message: Message) -> None:
        """Transport entry point (replies from coordinators)."""
        self.runner.run(
            self.protocol.on_message(message, self.transport.now_ms()))

    def get(self, key: str,
            callback: Optional[Callable[[GetResult], None]] = None) -> None:
        """Issue a GET for ``key``; ``callback`` fires when the reply arrives."""
        self.runner.run(
            self.protocol.get(key, callback, self.transport.now_ms()))

    def put(self,
            key: str,
            value: Any,
            callback: Optional[Callable[[PutResult], None]] = None,
            use_context: bool = True) -> None:
        """Issue a PUT for ``key``; ``callback`` fires when the reply arrives."""
        self.runner.run(
            self.protocol.put(key, value, callback, self.transport.now_ms(),
                              use_context=use_context))


class ClusterHost:
    """Ring, placement, env, shells, daemons and metrics of one cluster.

    Backends call ``super().__init__`` once their transport can build
    endpoints (the host creates every server shell on the spot) and start
    the daemons with :meth:`_start_daemons` once a scheduler exists.
    """

    #: Client shell handed out by :meth:`_add_client`.
    client_class = HostedClient
    #: Whether the default quorum (when none is given) is sloppy.
    sloppy_by_default = False

    def __init__(self,
                 mechanism: CausalityMechanism,
                 server_ids: Sequence[str],
                 quorum: Optional[QuorumConfig],
                 *,
                 anti_entropy_interval_ms: Optional[float],
                 anti_entropy_strategy: str,
                 hint_replay_interval_ms: Optional[float],
                 virtual_nodes: int,
                 partition_count: int,
                 topology: Optional[Topology],
                 tracer: Optional[Any],
                 client_timeout_ms: Optional[float],
                 deadline_ceiling_ms: Optional[float],
                 **env_fields: Any) -> None:
        """``env_fields`` are the remaining :class:`StaticProtocolEnv` fields."""
        if not server_ids:
            raise ConfigurationError("at least one server id is required")
        self.mechanism = mechanism
        self.quorum = quorum or QuorumConfig(n=min(3, len(server_ids)),
                                             r=min(2, len(server_ids)),
                                             w=min(2, len(server_ids)),
                                             sloppy=self.sloppy_by_default)
        self.ring = ConsistentHashRing(server_ids, virtual_nodes=virtual_nodes)
        #: Datacenter assignment; ``None`` means a single implicit DC and
        #: keeps placement byte-identical to the pre-topology behavior.
        self.topology = topology
        self.membership = Membership(server_ids, topology=topology)
        # The cluster-wide range ↔ vnode mapping: every server divides its
        # key space into the same fixed partitions, so per-range digests are
        # comparable between peers and handoff can move whole ranges.
        self.partition_map = PartitionMap(partition_count)
        self.placement = PlacementService(self.ring, self.membership,
                                          self.quorum,
                                          partition_map=self.partition_map,
                                          topology=topology)
        self.write_log = WriteLog()
        self.merkle_stats = MerkleSyncStats()
        self.anti_entropy_strategy = anti_entropy_strategy
        #: The configuration every hosted machine reads.  Its oracles keep
        #: their permissive defaults unless a backend has a failure detector.
        self.env = StaticProtocolEnv(
            mechanism=mechanism,
            quorum=self.quorum,
            placement=self.placement,
            write_log=self.write_log,
            merkle_stats=self.merkle_stats,
            client_timeout_ms=(client_timeout_ms if client_timeout_ms is not None
                               else env_fields["request_timeout_ms"] * 1.5),
            deadline_ceiling_ms=(deadline_ceiling_ms if deadline_ceiling_ms is not None
                                 else env_fields["replica_timeout_ms"]),
            hinted_handoff_enabled=hint_replay_interval_ms is not None,
            tracer=tracer if tracer is not None else NO_TRACER,
            **env_fields,
        )
        self._validate()
        self._anti_entropy_interval_ms = anti_entropy_interval_ms
        self._hint_replay_interval_ms = hint_replay_interval_ms
        self.anti_entropy: Optional[AntiEntropyDaemon] = None
        self.hinted_handoff: Optional[HintedHandoffDaemon] = None
        self._departed_stats: Dict[str, int] = {}
        self._metrics_registry: Optional[MetricsRegistry] = None
        self.servers: Dict[str, HostedServer] = {}
        self.clients: Dict[str, HostedClient] = {}
        for server_id in server_ids:
            self._add_server(server_id)

    def _validate(self) -> None:
        env = self.env
        for what, value, choices in (
                ("anti-entropy strategy", self.anti_entropy_strategy,
                 ANTI_ENTROPY_STRATEGIES),
                ("request mode", env.request_mode, REQUEST_MODES),
                ("deadline mode", env.deadline_mode, DEADLINE_MODES)):
            if value not in choices:
                raise ConfigurationError(
                    f"unknown {what} {value!r}; choose from {choices}")
        if env.replica_timeout_ms <= 0 or env.request_timeout_ms <= 0:
            raise ConfigurationError("async timeouts must be positive")
        if env.read_repair_batch_ms < 0:
            raise ConfigurationError(
                f"read_repair_batch_ms must be >= 0, got {env.read_repair_batch_ms}")
        if env.deadline_floor_ms <= 0:
            raise ConfigurationError(
                f"deadline_floor_ms must be positive, got {env.deadline_floor_ms}")
        if env.deadline_ceiling_ms < env.deadline_floor_ms:
            raise ConfigurationError(
                f"deadline_ceiling_ms ({env.deadline_ceiling_ms}) must be >= "
                f"deadline_floor_ms ({env.deadline_floor_ms})")
        if env.sync_batch_size < 1:
            raise ConfigurationError(
                f"sync_batch_size must be >= 1, got {env.sync_batch_size}")
        if env.hint_backoff_multiplier <= 0:
            raise ConfigurationError("hint_backoff_multiplier must be positive, "
                                     f"got {env.hint_backoff_multiplier}")

    # ------------------------------------------------------------------ #
    # Backend hooks
    # ------------------------------------------------------------------ #
    def _transport_for(self, node_id: str,
                       handler: Callable[[Message], None]) -> Any:
        """The transport a new node sends through (see :data:`TransportFactory`)."""
        raise NotImplementedError

    def transport_stats(self) -> List[TransportStats]:
        """The stats objects whose sum is the cluster's traffic."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Shells
    # ------------------------------------------------------------------ #
    def _add_server(self, server_id: str) -> HostedServer:
        server = HostedServer(server_id, self.env, self._transport_for)
        self.servers[server_id] = server
        return server

    def _add_client(self, client_id: str) -> HostedClient:
        client = self.client_class(client_id, self.env, self._transport_for)
        self.clients[client_id] = client
        return client

    # ------------------------------------------------------------------ #
    # Daemons
    # ------------------------------------------------------------------ #
    def _start_daemons(self, scheduler: Any) -> None:
        """Start anti-entropy, then hint replay, on ``scheduler``."""
        self._start_anti_entropy(scheduler)
        if self._hint_replay_interval_ms is not None:
            self.hinted_handoff = HintedHandoffDaemon(
                scheduler,
                sources=self._hint_sources,
                trigger_replay=self._trigger_hint_replay,
                interval_ms=self._hint_replay_interval_ms,
            )

    def _start_anti_entropy(self, scheduler: Any) -> None:
        """Start the anti-entropy daemon if configured and there is a pair."""
        if self._anti_entropy_interval_ms is not None and len(self.servers) > 1:
            self.anti_entropy = AntiEntropyDaemon(
                scheduler,
                self.start_exchange,
                list(self.servers),
                interval_ms=self._anti_entropy_interval_ms,
                eligible=self.membership.is_up,
            )

    def _stop_daemons(self) -> None:
        if self.anti_entropy is not None:
            self.anti_entropy.stop()
        if self.hinted_handoff is not None:
            self.hinted_handoff.stop()

    def start_exchange(self, source_id: str, target_id: str) -> None:
        """Start one anti-entropy exchange using the configured strategy."""
        source = self.servers.get(source_id)
        if source is None:
            return
        if self.anti_entropy_strategy == "full":
            source.start_sync_with(target_id)
        else:
            source.start_merkle_sync_with(target_id)

    def _hint_sources(self) -> List[str]:
        return [server_id for server_id, server in sorted(self.servers.items())
                if server.node.pending_hints() > 0
                and self.membership.is_up(server_id)]

    def _trigger_hint_replay(self, server_id: str) -> int:
        server = self.servers.get(server_id)
        return server.replay_hints() if server is not None else 0

    # ------------------------------------------------------------------ #
    # Convergence
    # ------------------------------------------------------------------ #
    def key_universe(self) -> List[str]:
        """Every key held by any live server, sorted."""
        keys = set()
        for server in self.servers.values():
            keys.update(server.node.storage.keys())
        return sorted(keys)

    def is_converged(self) -> bool:
        """True iff every server stores an identical sibling set for every key."""
        for key in self.key_universe():
            fingerprints = {key_fingerprint(server.node, key)
                            for server in self.servers.values()}
            if len(fingerprints) > 1:
                return False
        return True

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def all_request_records(self) -> List[RequestRecord]:
        """Every request completed by every client, in completion order."""
        records: List[RequestRecord] = []
        for client in self.clients.values():
            records.extend(client.records)
        records.sort(key=lambda record: record.finished_at)
        return records

    def metadata_entries(self) -> int:
        """Total causality-metadata entries stored across the cluster."""
        return sum(server.node.metadata_entries() for server in self.servers.values())

    def metadata_bytes(self) -> int:
        """Total causality-metadata bytes stored across the cluster."""
        return sum(server.node.metadata_bytes() for server in self.servers.values())

    def sync_bytes(self) -> int:
        """Total bytes sent so far on anti-entropy messages (either strategy)."""
        return sum(stats.bytes_for(*SYNC_MESSAGE_TYPES)
                   for stats in self.transport_stats())

    def sibling_counts(self, key: str) -> Dict[str, int]:
        """Live sibling counts of ``key`` on every server."""
        return {
            server_id: len(server.node.siblings_of(key))
            for server_id, server in self.servers.items()
        }

    def stat_totals(self) -> Dict[str, int]:
        """Per-node operation counters summed across the cluster.

        Includes the counters of gracefully decommissioned nodes, so churn
        reports account for work done before a departure.
        """
        totals: Dict[str, int] = dict(self._departed_stats)
        for server in self.servers.values():
            for name, value in server.node.stats.items():
                totals[name] = totals.get(name, 0) + value
        totals["pending_hints"] = sum(server.node.pending_hints()
                                      for server in self.servers.values())
        return totals

    def metrics_registry(self) -> MetricsRegistry:
        """The cluster's unified metrics registry (built once, reads live)."""
        if self._metrics_registry is None:
            self._metrics_registry = build_cluster_registry(self)
        return self._metrics_registry

    def metrics_snapshot(self) -> Dict[str, Any]:
        """One flat, stable, JSON-serializable view of every cluster stat."""
        return self.metrics_registry().snapshot()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (f"{type(self).__name__}(mechanism={self.mechanism.name!r}, "
                f"servers={sorted(self.servers)}, clients={len(self.clients)})")
