"""The simulated message-passing cluster: Dynamo/Riak over the event simulator.

This is the substrate that replaces the paper's modified-Riak testbed for the
latency experiment (E4) and for integration tests that need real replication
traffic (quorums, read repair, anti-entropy, partitions).  Everything travels
as :class:`~repro.network.message.Message` objects through a
:class:`~repro.network.transport.Transport`, so metadata size directly
influences request latency via the size-dependent latency model.

Topology and protocol
---------------------
The protocol itself lives in :mod:`repro.kvstore.protocol` as
transport-agnostic state machines, and everything around them that does not
depend on the transport — ring, placement, env, server and client shells,
daemons, metrics — is the shared :class:`~repro.kvstore.host.ClusterHost`
(the asyncio socket backend in :mod:`repro.kvstore.asyncio_cluster` hosts
the same machines over real connections — see ``ARCHITECTURE.md``).  This
module is the **deterministic simulator backend**: it adds the simulated
clock and transport, fault injection, and the membership operations.

* Each physical server is a :class:`~repro.kvstore.host.HostedServer`
  hosting a :class:`~repro.kvstore.protocol.node.ProtocolNode` (coordination,
  replica handlers, Merkle anti-entropy, hint replay) over a
  :class:`~repro.kvstore.server.StorageNode`.
* Clients are :class:`~repro.kvstore.host.HostedClient` nodes hosting a
  :class:`~repro.kvstore.protocol.client.ClientProtocol`; they send
  ``COORDINATE_GET`` / ``COORDINATE_PUT`` to the key's coordinator (resolved
  through the placement service) and receive ``GET_REPLY`` / ``PUT_REPLY``.
* The coordinator fans out to the key's replicas, waits for the configured
  R/W quorum, performs read repair on divergent read replies, and answers the
  client — consulting the membership view's failure detector
  (``request_mode="membership"``, the default) or per-replica deadlines with
  sloppy-quorum fallbacks (``"async"``); see
  :mod:`repro.kvstore.protocol.coordinator`.
* A background :class:`~repro.kvstore.anti_entropy.AntiEntropyDaemon`
  periodically synchronises replica pairs, by default with the per-vnode
  **Merkle-delta** exchange (:mod:`repro.kvstore.protocol.anti_entropy`),
  whose bytes on the wire are proportional to the divergence rather than
  the store size; the full-state exchange remains available via
  ``anti_entropy_strategy="full"``.  Each server's hash trees are
  write-maintained per vnode range
  (:class:`~repro.kvstore.merkle_index.VnodeIndexSet`);
  ``merkle_maintenance="rebuild"`` restores rebuild-per-exchange for cost
  comparisons.

Every machine consumes decoded messages and timer events and emits effects;
an :class:`~repro.kvstore.protocol.effects.EffectRunner` per hosted node
executes them against the simulated transport in emission order, which keeps
runs bit-for-bit reproducible for a fixed seed.

Dynamic membership and hinted handoff
-------------------------------------
The cluster is elastic: :meth:`SimulatedCluster.join_node` adds a server at
runtime (the ring rebalances and existing replicas push the keys the newcomer
now owns via ``KEY_HANDOFF``, shipping each key's maintained fingerprint so
the receiver re-hashes nothing), :meth:`SimulatedCluster.decommission_node`
removes one gracefully (it first pushes each of its keys to the key's
remaining replica homes), and :meth:`SimulatedCluster.fail_node` /
:meth:`SimulatedCluster.recover_node` model crashes — optionally with wiped
storage on recovery.  :meth:`SimulatedCluster.shutdown_node` models a *clean*
shutdown: storage flushes and marks its Merkle index clean, so a later
recovery adopts the maintained digests instead of rebuilding them (counted in
``rebuilds_skipped``).

When a write coordinator cannot reach one of the key's primary replicas
(crashed, or cut off by a partition), the write is held as a *hint* — target
id plus the post-write state — persisted in the holder's storage layer, so a
process restart of the holder does not lose it (a wiped disk does).  The
background :class:`~repro.kvstore.anti_entropy.HintedHandoffDaemon` replays
hints (``HINT_REPLAY`` / ``HINT_ACK``) once the target is reachable again; a
membership listener also nudges replay immediately on recovery.  Replay
targeting consults the per-replica latency EWMAs: a persistently slow peer is
replayed to once and then backed off for a multiple of its observed round
trip (``hint_backoff_multiplier``) instead of being hammered every tick.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..clocks.interface import CausalityMechanism
from ..cluster.preference_list import QuorumConfig
from ..cluster.ring import DEFAULT_PARTITION_COUNT, ConsistentHashRing, rebalance_plan
from ..cluster.topology import Topology
from ..core.exceptions import ConfigurationError
from ..network.latency import LatencyModel, SizeDependentLatency
from ..network.partition import PartitionManager
from ..network.simulator import Simulation
from ..network.transport import Transport, TransportStats
from .host import ClusterHost, HostedClient

__all__ = ["SimulatedCluster"]


class SimulatedCluster(ClusterHost):
    """A complete simulated deployment: servers, clients, ring, transport.

    Parameters
    ----------
    mechanism:
        Causality mechanism shared by all servers in this run.
    server_ids:
        Physical storage nodes.
    quorum:
        N / R / W configuration.
    latency:
        Latency model; defaults to a size-dependent model so metadata size
        shows up in request latency (experiment E4).
    seed:
        Simulation seed (drives latency sampling and message loss).
    loss_probability / duplicate_probability:
        Transport unreliability knobs.
    anti_entropy_interval_ms:
        Period of the background replica synchronisation (None disables it).
    anti_entropy_strategy:
        ``"merkle"`` (default) for the Merkle-delta exchange, ``"full"`` for
        the original all-keys state exchange.
    hint_replay_interval_ms:
        Period of the hinted-handoff replay daemon (None disables hinted
        handoff entirely — no hints are stored).
    hint_backoff_multiplier:
        Backoff for hint replay toward a persistently slow peer (one whose
        latency EWMA clamps its adaptive deadline at the ceiling): after one
        replay, the next attempt waits ``ewma × this`` instead of the daemon
        cadence.  Deferred ticks are counted in ``hint_replays_deferred``.
    request_mode:
        ``"membership"`` (default) — coordinators consult the membership
        view's failure detector; ``"async"`` — coordinators fan out with
        per-replica deadlines and, under a sloppy quorum, extend to fallback
        nodes that hold hints for timed-out primaries.
    replica_timeout_ms / request_timeout_ms:
        Async mode deadlines: how long a coordinator waits for one replica's
        ack before extending/abandoning it, and how long a whole request may
        take before the coordinator answers ``ERROR_REPLY``.  Clients wait
        ``client_timeout_ms`` (1.5 × the request timeout by default) before
        failing over to the next candidate coordinator.
    sync_batch_size:
        Keys per MERKLE_KEY_STATES / HINT_REPLAY / KEY_HANDOFF message (also
        the read-repair batch size).
    merkle_fanout / merkle_depth:
        Shape of the hash trees used by the Merkle-delta exchange.
    merkle_maintenance:
        ``"incremental"`` (default) — every server carries a write-maintained
        :class:`~repro.kvstore.merkle_index.MerkleIndex` and exchanges take
        cheap digest snapshots; ``"rebuild"`` — the pre-index behaviour of
        re-hashing the whole key space per exchange, kept for the
        maintenance-cost ablation.
    read_repair_batch_ms:
        Coalescing window for read-repair pushes: repairs destined for the
        same stale replica within this window ride one READ_REPAIR message
        (a full ``sync_batch_size`` batch flushes immediately; ``0`` disables
        coalescing and sends each repair at once).
    deadline_mode:
        Async-mode per-replica deadlines: ``"fixed"`` (default) arms
        ``replica_timeout_ms`` for every replica; ``"adaptive"`` arms an EWMA
        of the replica's observed ack latency scaled by
        :data:`~repro.kvstore.protocol.ADAPTIVE_DEADLINE_MULTIPLIER` and
        clamped to [``deadline_floor_ms``, ``deadline_ceiling_ms``].
    deadline_floor_ms / deadline_ceiling_ms:
        Clamp for adaptive deadlines.  The ceiling defaults to
        ``replica_timeout_ms`` so adaptation only ever tightens failure
        detection; the floor keeps a single latency spike from mass-expiring
        healthy replicas.

    The configuration the machines read lives in :attr:`env`; changing a
    knob mid-run means assigning to it there.
    """

    def __init__(self,
                 mechanism: CausalityMechanism,
                 server_ids: Sequence[str] = ("A", "B", "C"),
                 quorum: Optional[QuorumConfig] = None,
                 latency: Optional[LatencyModel] = None,
                 seed: int = 0,
                 loss_probability: float = 0.0,
                 duplicate_probability: float = 0.0,
                 anti_entropy_interval_ms: Optional[float] = 100.0,
                 anti_entropy_strategy: str = "merkle",
                 hint_replay_interval_ms: Optional[float] = 50.0,
                 hint_backoff_multiplier: float = 6.0,
                 request_mode: str = "membership",
                 replica_timeout_ms: float = 10.0,
                 request_timeout_ms: float = 50.0,
                 client_timeout_ms: Optional[float] = None,
                 sync_batch_size: int = 16,
                 merkle_fanout: int = 16,
                 merkle_depth: int = 2,
                 merkle_maintenance: str = "incremental",
                 read_repair_batch_ms: float = 2.0,
                 deadline_mode: str = "fixed",
                 deadline_floor_ms: float = 2.0,
                 deadline_ceiling_ms: Optional[float] = None,
                 virtual_nodes: int = 32,
                 partition_count: int = DEFAULT_PARTITION_COUNT,
                 request_overhead_bytes: int = 64,
                 topology: Optional[Topology] = None,
                 tracer: Optional[Any] = None) -> None:
        self.simulation = Simulation(seed=seed)
        self.partitions = PartitionManager()
        self.transport = Transport(
            self.simulation,
            latency=latency or SizeDependentLatency(),
            loss_probability=loss_probability,
            duplicate_probability=duplicate_probability,
            partitions=self.partitions,
        )
        super().__init__(
            mechanism, server_ids, quorum,
            anti_entropy_interval_ms=anti_entropy_interval_ms,
            anti_entropy_strategy=anti_entropy_strategy,
            hint_replay_interval_ms=hint_replay_interval_ms,
            hint_backoff_multiplier=hint_backoff_multiplier,
            request_mode=request_mode,
            replica_timeout_ms=replica_timeout_ms,
            request_timeout_ms=request_timeout_ms,
            client_timeout_ms=client_timeout_ms,
            sync_batch_size=sync_batch_size,
            merkle_fanout=merkle_fanout,
            merkle_depth=merkle_depth,
            merkle_maintenance=merkle_maintenance,
            read_repair_batch_ms=read_repair_batch_ms,
            deadline_mode=deadline_mode,
            deadline_floor_ms=deadline_floor_ms,
            deadline_ceiling_ms=deadline_ceiling_ms,
            virtual_nodes=virtual_nodes,
            partition_count=partition_count,
            request_overhead_bytes=request_overhead_bytes,
            topology=topology,
            tracer=tracer,
        )
        # The simulator knows who is down, deregistered or cut off, so the
        # machines get its failure-detector view instead of the defaults.
        self.env.can_reach = self.can_reach
        self.env.is_registered = self.transport.is_registered
        self._start_daemons(self.simulation)
        # Nudge hint replay as soon as a node recovers rather than waiting
        # for the next daemon tick.
        self.membership.subscribe(self._on_membership_event)

    # ------------------------------------------------------------------ #
    # Backend hooks
    # ------------------------------------------------------------------ #
    def _transport_for(self, node_id: str, handler) -> Transport:
        self.transport.register(node_id, handler)
        return self.transport

    def transport_stats(self) -> List[TransportStats]:
        return [self.transport.stats]

    # ------------------------------------------------------------------ #
    # Topology management
    # ------------------------------------------------------------------ #
    def client(self, client_id: str) -> HostedClient:
        """Create (or return) the client node with the given id."""
        if client_id in self.clients:
            return self.clients[client_id]
        return self._add_client(client_id)

    def _on_membership_event(self, node_id: str, event: str) -> None:
        if event != "up" or self.hinted_handoff is None:
            return
        holders = [server_id for server_id, server in sorted(self.servers.items())
                   if node_id in server.node.hint_targets()]
        if holders:
            self.simulation.schedule(
                0.1,
                lambda: [self._trigger_hint_replay(server_id) for server_id in holders],
                label=f"hint-replay-nudge:{node_id}",
            )

    def fail_node(self, server_id: str) -> None:
        """Crash a server: it stops receiving messages and is marked down."""
        self.membership.mark_down(server_id)
        self.transport.unregister(server_id)

    def shutdown_node(self, server_id: str) -> None:
        """Cleanly stop a server (planned maintenance, rolling restart).

        Unlike :meth:`fail_node`, the storage layer gets to finish its
        bookkeeping: the Merkle index flushes its dirty buckets and the node
        marks its on-disk index clean, so a later :meth:`recover_node` adopts
        the maintained digests instead of rebuilding every occupied vnode's
        tree (counted in the ``rebuilds_skipped`` stat).
        """
        server = self.servers[server_id]
        server.node.shutdown()
        self.membership.mark_down(server_id)
        self.transport.unregister(server_id)

    def recover_node(self, server_id: str, wipe: bool = False,
                     wipe_partitions: Optional[Sequence[int]] = None) -> None:
        """Bring a crashed (or cleanly stopped) server back.

        With ``wipe=False`` the pre-crash state is retained (process restart)
        — including any hints the node was holding for others, which are
        persisted in the storage layer and resume replaying; with
        ``wipe=True`` the node rejoins with empty storage (disk loss), losing
        both its key states and its held hints, and must be repopulated by
        other nodes' hint replays and anti-entropy.  ``wipe_partitions``
        models a partial disk loss: only the named vnodes' key states (and
        the hints for keys in those ranges) are dropped, the other vnodes
        survive the crash intact.

        The incremental Merkle index follows the disk's fate: after a crash a
        restart rebuilds it from the surviving storage (the in-memory trees
        died with the process; only vnodes that still hold keys pay a
        rebuild), a wipe empties it alongside the key states — but after a
        *clean* :meth:`shutdown_node` the index was flushed and marked clean,
        so the restart adopts it wholesale and skips the rebuilds.

        Timers the crashed process had armed are deliberately left armed:
        the original simulator let them fire harmlessly against the cleared
        state, and the equivalence suite pins that behaviour.
        """
        server = self.servers[server_id]
        server.protocol.on_recover(wipe, wipe_partitions=wipe_partitions)
        if not self.transport.is_registered(server_id):
            self.transport.register(server_id, server.handle_message)
        self.membership.mark_up(server_id)

    def join_node(self, server_id: str, dc: Optional[str] = None) -> int:
        """Add a new (empty) server to the running cluster.

        The ring is rebalanced and, for every key whose preference list now
        includes the newcomer, one current holder pushes the key's state via
        KEY_HANDOFF.  Returns the number of keys scheduled for handoff.
        ``dc`` places the newcomer in a datacenter (topology clusters only).
        """
        if server_id in self.servers:
            raise ConfigurationError(f"server {server_id!r} already in the cluster")
        ring_before = ConsistentHashRing(self.ring.nodes(),
                                         virtual_nodes=self.ring.virtual_nodes)
        self.ring.add_node(server_id)
        self.membership.add(server_id, dc=dc)
        self._add_server(server_id)
        if self.anti_entropy is not None:
            self.anti_entropy.add_node(server_id)
        else:
            self._start_anti_entropy(self.simulation)

        moves = rebalance_plan(ring_before, self.ring,
                               self.key_universe(), self.quorum.n)
        batches: Dict[Tuple[str, str], List[str]] = {}
        for move in moves:
            gained = [node for node in move.gained if node in self.servers]
            if not gained:
                continue
            # Only a live node can act as the handoff source — a crashed
            # replica's storage is unreachable until it recovers.
            holders = [node for node in move.owners_before
                       if node in self.servers and self.membership.is_up(node)
                       and self.servers[node].node.storage.has_key(move.key)]
            if not holders:  # key held off its preference list (e.g. post-churn)
                holders = [node for node, srv in sorted(self.servers.items())
                           if self.membership.is_up(node)
                           and srv.node.storage.has_key(move.key)]
            if not holders:
                continue
            for target in gained:
                batches.setdefault((holders[0], target), []).append(move.key)
        handed_off = 0
        for (source_id, target_id), keys in sorted(batches.items()):
            self.servers[source_id].send_key_handoff(target_id, keys)
            handed_off += len(keys)
        return handed_off

    def decommission_node(self, server_id: str) -> int:
        """Gracefully remove a server from the running cluster.

        Before leaving, the node pushes each of its keys to the key's replica
        homes on the shrunk ring, so no singly-replicated state is lost.
        Returns the number of key states pushed.
        """
        if server_id not in self.servers:
            raise ConfigurationError(f"unknown server {server_id!r}")
        server = self.servers[server_id]
        self.ring.remove_node(server_id)

        # A graceful leave pushes the node's keys to their remaining replica
        # homes — but only a live node can do that; removing a crashed node
        # just drops it (its data is whatever already replicated elsewhere).
        handed_off = 0
        if self.membership.is_up(server_id):
            batches: Dict[str, List[str]] = {}
            for key in server.node.storage.keys():
                reachable = [target
                             for target in self.ring.preference_list(key, self.quorum.n)
                             if target != server_id and target in self.servers
                             and self.can_reach(server_id, target)]
                if not reachable:
                    # Handing off into a partition would silently drop the
                    # key's (possibly only) copy; refuse the graceful leave.
                    self.ring.add_node(server_id)
                    raise ConfigurationError(
                        f"cannot decommission {server_id!r}: no reachable "
                        f"replica home for key {key!r}"
                    )
                for target in reachable:
                    batches.setdefault(target, []).append(key)
            for target_id, keys in sorted(batches.items()):
                server.send_key_handoff(target_id, keys)
                handed_off += len(keys)

        self.membership.remove(server_id)
        if self.anti_entropy is not None:
            self.anti_entropy.remove_node(server_id)
        self.servers.pop(server_id)
        self.transport.unregister(server_id)
        # Stats of the departed node still belong to the run's totals.
        for name, value in server.node.stats.items():
            self._departed_stats[name] = self._departed_stats.get(name, 0) + value
        # Hints destined for the removed node can never be replayed; purge
        # them everywhere so they don't sit in the pending counts forever.
        for remaining in self.servers.values():
            remaining.node.clear_hints(server_id)
        return handed_off

    def can_reach(self, source_id: str, target_id: str) -> bool:
        """Whether ``source_id`` can currently deliver messages to ``target_id``.

        This is the coordinator's failure-detector view: a node is unreachable
        when it is marked down, deregistered from the transport, or cut off by
        a partition.
        """
        return (self.membership.is_up(target_id)
                and self.transport.is_registered(target_id)
                and self.partitions.can_communicate(source_id, target_id))

    # ------------------------------------------------------------------ #
    # Execution helpers
    # ------------------------------------------------------------------ #
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Advance the simulation (delegates to :meth:`Simulation.run`)."""
        self.simulation.run(until=until, max_events=max_events)

    def drain(self, max_events: int = 1_000_000) -> None:
        """Stop background daemons and run every outstanding event."""
        self._stop_daemons()
        self.simulation.run_until_idle(max_events=max_events)

    def run_anti_entropy_round(self, strategy: Optional[str] = None,
                               settle: bool = True) -> None:
        """Start one exchange for every reachable server pair, then settle.

        Used by tests and scenarios to force convergence deterministically
        after the background daemons have been stopped.
        """
        server_ids = sorted(self.servers)
        for i, source_id in enumerate(server_ids):
            for target_id in server_ids[i + 1:]:
                if (self.membership.is_up(source_id)
                        and self.can_reach(source_id, target_id)):
                    self.start_exchange(source_id, target_id, strategy)
        if settle:
            self.simulation.run_until_idle()

    def converge(self, max_rounds: int = 30, strategy: Optional[str] = None) -> int:
        """Run anti-entropy rounds until every replica agrees; returns rounds.

        Stops the background daemons first (they are periodic tasks and would
        keep the event queue from ever going idle), then drives explicit
        all-pairs rounds — the deterministic "settle everything" helper tests
        and scenarios use after a workload finishes.
        """
        self.drain()
        if self.is_converged():
            return 0
        for round_number in range(1, max_rounds + 1):
            self.run_anti_entropy_round(strategy)
            if self.is_converged():
                return round_number
        raise ConfigurationError(f"cluster did not converge within {max_rounds} rounds")
