"""Anti-entropy: background replica synchronisation.

Dynamo-style stores converge replicas in two ways: read repair (on the read
path, see :mod:`repro.kvstore.read_repair`) and a background anti-entropy
process that periodically exchanges state between replica pairs — the dotted
"server sync" arrows in the paper's Figure 1.  This module provides both the
direct form used with the synchronous store and the
:class:`~repro.network.simulator.PeriodicTask`-driven daemons the
message-passing clusters run (the simulator schedules them on its
:class:`~repro.network.simulator.Simulation`, the asyncio backend on
``loop.call_later``).

Two sync strategies exist on the simulated cluster (selected by
``SimulatedCluster(anti_entropy_strategy=...)``):

* ``"full"`` — the original exchange: the source ships the state of every key
  it holds in one ``SYNC_REQUEST`` and the target replies in kind.  Bytes on
  the wire are proportional to the *store size* regardless of divergence.
* ``"merkle"`` (default) — the Merkle-delta protocol: the source ships tree
  digests level by level (``MERKLE_SYNC_REQUEST`` / ``MERKLE_SYNC_RESPONSE``),
  the pair descend only into subtrees whose digests differ, and finally
  exchange states only for the diverged keys, batched into
  ``MERKLE_KEY_STATES`` messages.  Bytes on the wire are proportional to the
  *divergence*, which is what lets the DVV/DVVSet metadata advantage show up
  in sync traffic.  The message handlers live in
  :mod:`repro.kvstore.protocol.anti_entropy`; the tree itself in
  :mod:`repro.kvstore.merkle`.

The :class:`AntiEntropyDaemon` below schedules replica pairs for either
strategy and tracks membership churn (joins, departures, crashes), skipping
pairs with an unreachable endpoint.  The :class:`HintedHandoffDaemon`
periodically replays coordinator-held hints to replicas that have recovered.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from ..core.exceptions import ConfigurationError
from ..network.simulator import PeriodicTask, Simulation
from .sync_store import SyncReplicatedStore


class AntiEntropyScheduler:
    """Round-robin pair scheduling for synchronous stores.

    Each call to :meth:`run_round` synchronises every key between one pair of
    replicas, cycling deterministically through all pairs so that repeated
    rounds converge the whole cluster without requiring all-pairs exchanges
    every time (which would hide the cost differences between mechanisms).
    """

    def __init__(self, store: SyncReplicatedStore) -> None:
        self.store = store
        self._pair_index = 0
        self.rounds_run = 0

    def _pairs(self) -> List[Tuple[str, str]]:
        servers = sorted(self.store.servers)
        return [
            (servers[i], servers[j])
            for i in range(len(servers))
            for j in range(i + 1, len(servers))
        ]

    def run_round(self, key: Optional[str] = None) -> Tuple[str, str]:
        """Synchronise one replica pair (all keys, or one key); returns the pair."""
        pairs = self._pairs()
        if not pairs:
            raise ConfigurationError("anti-entropy needs at least two servers")
        source_id, target_id = pairs[self._pair_index % len(pairs)]
        self._pair_index += 1
        self.rounds_run += 1
        keys = [key] if key is not None else self._keys_of(source_id, target_id)
        for key_to_sync in keys:
            self.store.sync_key(key_to_sync, source_id, target_id, bidirectional=True)
        return source_id, target_id

    def run_until_converged(self, max_rounds: int = 100) -> int:
        """Run rounds until the store converges; returns the number of rounds."""
        for round_number in range(1, max_rounds + 1):
            self.run_round()
            if self.store.is_converged():
                return round_number
        raise ConfigurationError(f"store did not converge within {max_rounds} rounds")

    def _keys_of(self, *server_ids: str) -> List[str]:
        keys = set()
        for server_id in server_ids:
            keys.update(self.store.node(server_id).storage.keys())
        return sorted(keys)


class AntiEntropyDaemon:
    """Periodic anti-entropy for the message-passing clusters.

    The daemon does not touch node state directly; it asks the cluster to
    start an exchange between a replica pair (full-state or Merkle-delta,
    whatever the cluster is configured for), so the exchanged state pays the
    same latency/size costs as every other message (keeping the latency
    experiment honest).

    The pair rotation is membership-aware: nodes can be added and removed at
    runtime (elastic clusters), and pairs with an endpoint the ``eligible``
    predicate rejects (crashed / decommissioning nodes) are skipped for that
    tick rather than wasting an exchange on a black hole.
    """

    def __init__(self,
                 simulation: Simulation,
                 trigger_sync: Callable[[str, str], None],
                 node_ids: Sequence[str],
                 interval_ms: float = 50.0,
                 eligible: Optional[Callable[[str], bool]] = None) -> None:
        if len(node_ids) < 2:
            raise ConfigurationError("anti-entropy needs at least two nodes")
        self._trigger_sync = trigger_sync
        self._node_ids = sorted(node_ids)
        self._eligible = eligible or (lambda _node_id: True)
        self._pair_index = 0
        self.exchanges_started = 0
        self.exchanges_skipped = 0
        self._task = PeriodicTask(simulation, interval_ms, self._tick, label="anti-entropy")

    # ------------------------------------------------------------------ #
    # Membership churn
    # ------------------------------------------------------------------ #
    def add_node(self, node_id: str) -> None:
        """Include a newly joined node in the pair rotation."""
        if node_id not in self._node_ids:
            self._node_ids.append(node_id)
            self._node_ids.sort()

    def remove_node(self, node_id: str) -> None:
        """Drop a decommissioned node from the pair rotation."""
        if node_id in self._node_ids:
            self._node_ids.remove(node_id)

    def nodes(self) -> List[str]:
        """Nodes currently in the rotation, sorted."""
        return list(self._node_ids)

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def _pairs(self) -> List[Tuple[str, str]]:
        return [
            (self._node_ids[i], self._node_ids[j])
            for i in range(len(self._node_ids))
            for j in range(i + 1, len(self._node_ids))
        ]

    def _tick(self) -> None:
        pairs = self._pairs()
        if not pairs:
            return
        # Advance through the rotation until a fully reachable pair is found
        # (at most one full cycle, so a mostly-down cluster cannot loop).
        for _ in range(len(pairs)):
            source_id, target_id = pairs[self._pair_index % len(pairs)]
            self._pair_index += 1
            if self._eligible(source_id) and self._eligible(target_id):
                self.exchanges_started += 1
                self._trigger_sync(source_id, target_id)
                return
            self.exchanges_skipped += 1

    def stop(self) -> None:
        """Stop scheduling further exchanges."""
        self._task.stop()


class HintedHandoffDaemon:
    """Background replay of coordinator-held hints (message-passing clusters).

    When a coordinator cannot reach one of a key's primary replicas during a
    write it stores a *hint* — the target id plus the post-write state — in
    its local :class:`~repro.kvstore.server.StorageNode`.  This daemon
    periodically scans every server for outstanding hints and asks the
    cluster to replay the ones whose target is reachable again
    (``HINT_REPLAY`` messages, acknowledged with ``HINT_ACK``).  Replay is
    idempotent — states merge through the causality mechanism — so duplicate
    deliveries and re-sends after a lost ack are harmless.
    """

    def __init__(self,
                 simulation: Simulation,
                 sources: Callable[[], Sequence[str]],
                 trigger_replay: Callable[[str], int],
                 interval_ms: float = 50.0) -> None:
        self._sources = sources
        self._trigger_replay = trigger_replay
        self.replay_batches_sent = 0
        self._task = PeriodicTask(simulation, interval_ms, self._tick, label="hinted-handoff")

    def _tick(self) -> None:
        for source_id in self._sources():
            self.replay_batches_sent += self._trigger_replay(source_id)

    def stop(self) -> None:
        """Stop scheduling further replays."""
        self._task.stop()
