"""Anti-entropy state machine: Merkle-delta and full-state exchanges.

One :class:`AntiEntropyEngine` per node runs the sync protocols over effects:

* **full-state** (``SYNC_REQUEST`` / ``SYNC_REPLY``) — the source ships every
  key it holds, the target merges and replies in kind;
* **Merkle-delta** — the per-vnode hashtree exchange: one
  ``MERKLE_PARTITION_DIGESTS`` / ``MERKLE_PARTITION_DIFF`` round trip compares
  per-range roots, then each differing range's tree is descended level by
  level (``MERKLE_SYNC_REQUEST`` / ``MERKLE_SYNC_RESPONSE``) down to leaf
  fingerprints, and finally only the divergent keys' states travel, batched
  into ``MERKLE_KEY_STATES`` messages.

Peer input that does not fit the local tree shape (a path outside the tree,
an interior path where a leaf is expected, a ``partition``, ``roots`` key or
``differing`` entry that is not an int partition of the local index,
``roots`` that is not a dict or ``differing`` ranges that are not a list) is
dropped like a stale session's message; a later exchange supersedes it.

Differing ranges are descended **concurrently**: `on_merkle_partition_diff`
opens every differing range at once and each descends independently (their
level messages interleave in flight), with an :class:`AntiEntropySession`
tracking the open set until the last range finishes.  The high-water mark of
simultaneously open range descents is recorded in
``MerkleSyncStats.max_concurrent_ranges`` so tests can assert the overlap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ...core.exceptions import ConfigurationError
from ...network.message import Message, MessageType
from ..merkle import MerkleTree
from .effects import Send
from .util import chunked

#: Wire size of one tree digest in the Merkle exchange (sha256).
DIGEST_BYTES = 32

#: Message types that carry anti-entropy traffic (either strategy); the single
#: source of truth for "sync bytes" measurements in reports and benchmarks.
SYNC_MESSAGE_TYPES = (
    MessageType.SYNC_REQUEST.value,
    MessageType.SYNC_REPLY.value,
    MessageType.MERKLE_PARTITION_DIGESTS.value,
    MessageType.MERKLE_PARTITION_DIFF.value,
    MessageType.MERKLE_SYNC_REQUEST.value,
    MessageType.MERKLE_SYNC_RESPONSE.value,
    MessageType.MERKLE_KEY_STATES.value,
)


@dataclass
class MerkleSyncStats:
    """Cluster-wide counters for the Merkle-delta anti-entropy protocol."""

    exchanges_started: int = 0
    exchanges_clean: int = 0        # root digests matched, nothing to do
    levels_sent: int = 0
    keys_transferred: int = 0
    partitions_compared: int = 0    # per-range root comparisons performed
    partitions_differing: int = 0   # ranges whose roots differed (descended)
    #: High-water mark of simultaneously open range descents on any source
    #: node — evidence that differing ranges sync as parallel sessions.
    max_concurrent_ranges: int = 0


@dataclass
class AntiEntropySession:
    """Source-side state of one in-flight Merkle exchange.

    Per-vnode exchanges descend each differing range independently; the
    session tracks one frozen tree per open partition and completes when
    every opened partition has finished its descent.
    """

    peer_id: str
    trees: Dict[int, MerkleTree] = field(default_factory=dict)
    open_partitions: set = field(default_factory=set)


class AntiEntropyEngine:
    """Per-node sync machine: sessions this node started plus peer-side caches."""

    def __init__(self, node) -> None:
        self._node = node
        # Merkle exchange state: sessions this node started (it owns the tree
        # snapshots and the per-range descents), and cached trees, keyed by
        # (peer, partition), for exchanges started by others (so digests stay
        # consistent across levels of one range's descent).
        self.sessions: Dict[int, AntiEntropySession] = {}
        self._session_ids = itertools.count(1)
        self.peer_trees: Dict[Tuple[str, int], Tuple[int, MerkleTree]] = {}

    # ------------------------------------------------------------------ #
    # Full-state exchange
    # ------------------------------------------------------------------ #
    def start_sync_with(self, peer_id: str) -> None:
        """Begin a full-state anti-entropy exchange with ``peer_id`` (push-pull)."""
        node = self._node
        states = {key: node.store.state_of(key) for key in node.store.storage.keys()}
        node.emit(Send(Message(
            sender=node.node_id,
            receiver=peer_id,
            msg_type=MessageType.SYNC_REQUEST,
            payload={"states": states},
            size_bytes=sum(node.state_size(k, s) for k, s in states.items()),
        )))

    def on_sync_request(self, message: Message) -> None:
        node = self._node
        states = message.payload["states"]
        reply_states = {}
        for key, state in states.items():
            node.store.local_merge(key, state)
        for key in node.store.storage.keys():
            reply_states[key] = node.store.state_of(key)
        node.emit(Send(Message(
            sender=node.node_id,
            receiver=message.sender,
            msg_type=MessageType.SYNC_REPLY,
            payload={"states": reply_states},
            size_bytes=sum(node.state_size(k, s) for k, s in reply_states.items()),
            request_id=message.request_id,
        )))

    def on_sync_reply(self, message: Message) -> None:
        for key, state in message.payload["states"].items():
            self._node.store.local_merge(key, state)

    # ------------------------------------------------------------------ #
    # Merkle-delta exchange
    # ------------------------------------------------------------------ #
    def _is_local_partition(self, partition: object) -> bool:
        """Whether peer-supplied ``partition`` names a range of the local index."""
        return (type(partition) is int
                and partition in self._node.store.merkle_index.indexes)

    @staticmethod
    def _is_level(level: object) -> bool:
        """Whether peer-supplied ``level`` is a tree depth (a bool is not)."""
        return type(level) is int and level >= 0

    @staticmethod
    def _is_paths(paths: object) -> bool:
        """Whether peer-supplied ``paths`` is a list of tree paths."""
        return isinstance(paths, list) and all(type(path) is tuple for path in paths)

    def open_range_count(self) -> int:
        """Range descents currently open across this node's source sessions."""
        return sum(len(session.open_partitions) for session in self.sessions.values())

    def _note_range_concurrency(self) -> None:
        stats = self._node.env.merkle_stats
        stats.max_concurrent_ranges = max(stats.max_concurrent_ranges,
                                          self.open_range_count())

    def start_merkle_sync_with(self, peer_id: str) -> None:
        """Begin a Merkle-delta exchange with ``peer_id``.

        The exchange opens with one message carrying the root digest of every
        non-empty local range (``MERKLE_PARTITION_DIGESTS``); the peer
        compares range by range and names the differing ones, and only those
        ranges' trees are descended — a mostly-synced pair pays two messages
        total no matter how many ranges they hold.
        """
        node = self._node
        env = node.env
        # A lost message leaves a session dangling; starting a new exchange
        # with the same peer supersedes any older one.
        self.sessions = {
            session_id: session
            for session_id, session in self.sessions.items()
            if session.peer_id != peer_id
        }
        session_id = next(self._session_ids)
        session = AntiEntropySession(peer_id)
        self.sessions[session_id] = session
        env.merkle_stats.exchanges_started += 1

        # Snapshot and advertise non-empty ranges only (absent ranges hash to
        # the well-known empty root on both sides).
        index = node.store.merkle_index
        roots: Dict[int, bytes] = {}
        for partition_id in index.partition_ids():
            if index.index_for(partition_id).key_count == 0:
                continue
            tree = index.snapshot_partition(partition_id)
            session.trees[partition_id] = tree
            roots[partition_id] = tree.root_digest
        node.emit(Send(Message(
            sender=node.node_id,
            receiver=peer_id,
            msg_type=MessageType.MERKLE_PARTITION_DIGESTS,
            payload={"session": session_id, "roots": roots},
            size_bytes=(len(roots) * (DIGEST_BYTES + 1)
                        + env.request_overhead_bytes),
        )))

    def on_merkle_partition_digests(self, message: Message) -> None:
        """Target side: compare per-range roots, name the differing ranges."""
        node = self._node
        session_id = message.payload["session"]
        roots = message.payload["roots"]
        if not isinstance(roots, dict) or not all(
                map(self._is_local_partition, roots)):
            return  # not a map of this node's partitions: drop
        index = node.store.merkle_index
        stats = node.env.merkle_stats

        # A new exchange from this peer supersedes any cached range trees
        # left over from an older, possibly abandoned one.
        for cache_key in [cache_key for cache_key in self.peer_trees
                          if cache_key[0] == message.sender]:
            del self.peer_trees[cache_key]
        local_live = {partition_id for partition_id in index.partition_ids()
                      if index.index_for(partition_id).key_count > 0}
        compared = sorted(local_live | set(roots))
        differing: List[int] = []
        empty_root = index.empty_root_digest
        for partition_id in compared:
            remote_root = roots.get(partition_id, empty_root)
            if index.partition_root(partition_id) != remote_root:
                differing.append(partition_id)
                # Freeze this range's tree now so every level of the coming
                # descent compares against the same digests.
                self.peer_trees[(message.sender, partition_id)] = (
                    session_id, index.snapshot_partition(partition_id))
        stats.partitions_compared += len(compared)
        stats.partitions_differing += len(differing)

        node.emit(Send(Message(
            sender=node.node_id,
            receiver=message.sender,
            msg_type=MessageType.MERKLE_PARTITION_DIFF,
            payload={"session": session_id, "differing": differing},
            size_bytes=len(differing) + node.env.request_overhead_bytes,
        )))

    def on_merkle_partition_diff(self, message: Message) -> None:
        """Source side: descend each differing range; finish if none differ.

        Every differing range is opened *at once* — their level-by-level
        descents proceed as parallel sessions whose messages interleave on
        the wire, rather than one range waiting for the previous to finish.
        """
        node = self._node
        env = node.env
        session_id = message.payload["session"]
        session = self.sessions.get(session_id)
        if session is None or session.peer_id != message.sender:
            return  # stale session (lost messages, duplicate delivery)
        differing = message.payload["differing"]
        if not isinstance(differing, list) or not all(
                map(self._is_local_partition, differing)):
            return  # not a list of this node's partitions: drop
        if not differing:
            self.sessions.pop(session_id, None)
            env.merkle_stats.exchanges_clean += 1
            return
        for partition_id in differing:
            tree = session.trees.get(partition_id)
            if tree is None:
                # The peer holds keys in a range we have nothing for — descend
                # with the empty tree so its leaf fingerprints localise them.
                tree = MerkleTree({}, fanout=env.merkle_fanout,
                                  depth=env.merkle_depth)
                session.trees[partition_id] = tree
            session.open_partitions.add(partition_id)
        self._note_range_concurrency()
        # The roots already differ (that is what the peer told us), so the
        # descent of each range starts at its children.
        for partition_id in differing:
            tree = session.trees[partition_id]
            self._send_merkle_level(session_id, session.peer_id, partition_id,
                                    1, tree.child_digests(()))

    def _send_merkle_level(self,
                           session_id: int,
                           peer_id: str,
                           partition: int,
                           level: int,
                           entries: List[Tuple[Tuple[int, ...], bytes]]) -> None:
        node = self._node
        node.env.merkle_stats.levels_sent += 1
        size = (len(entries) * (DIGEST_BYTES + max(level, 1))
                + node.env.request_overhead_bytes)
        node.emit(Send(Message(
            sender=node.node_id,
            receiver=peer_id,
            msg_type=MessageType.MERKLE_SYNC_REQUEST,
            payload={"session": session_id, "level": level, "entries": entries,
                     "partition": partition},
            size_bytes=size,
        )))

    def on_merkle_sync_request(self, message: Message) -> None:
        """Target side: compare received digests against the local tree."""
        node = self._node
        session_id = message.payload["session"]
        level = message.payload["level"]
        entries = message.payload["entries"]
        partition = message.payload.get("partition")
        if not self._is_local_partition(partition):
            return  # not one of this node's ranges: drop
        if not self._is_level(level) or not (isinstance(entries, list) and all(
                type(entry) is tuple and len(entry) == 2
                and type(entry[0]) is tuple for entry in entries)):
            return  # not a level of (path, digest) pairs: drop

        cache_key = (message.sender, partition)
        cached = self.peer_trees.get(cache_key)
        try:
            if cached is None or cached[0] != session_id:
                # First message of this session for this range (or an earlier
                # message was lost and a deeper one arrived) — snapshot a
                # fresh tree for it.
                tree = node.store.merkle_index.snapshot_partition(partition)
                self.peer_trees[cache_key] = (session_id, tree)
            else:
                tree = cached[1]
            differing = [tuple(path) for path, digest in entries
                         if tree.digest_at(path) != digest]
            at_leaves = level >= tree.depth
            buckets: Optional[Dict[Tuple[int, ...], Dict[str, bytes]]] = None
            if at_leaves and differing:
                buckets = {path: tree.bucket_fingerprints(path)
                           for path in differing}
        except ConfigurationError:
            return  # paths do not fit this node's trees: drop
        size = len(differing) * (level + 1) + node.env.request_overhead_bytes
        if buckets is not None:
            size += sum(len(key.encode("utf-8")) + DIGEST_BYTES
                        for bucket in buckets.values() for key in bucket)
        if at_leaves or not differing:
            # This range's descent either finishes here or moves on to key
            # states, neither of which needs the cached tree snapshot any more.
            self.peer_trees.pop(cache_key, None)

        node.emit(Send(Message(
            sender=node.node_id,
            receiver=message.sender,
            msg_type=MessageType.MERKLE_SYNC_RESPONSE,
            payload={"session": session_id, "level": level,
                     "differing": differing, "buckets": buckets,
                     "partition": partition},
            size_bytes=size,
        )))

    def _finish_merkle_partition(self,
                                 session_id: int,
                                 session: AntiEntropySession,
                                 partition: int) -> None:
        """One range's descent is done; the session ends with its last range."""
        session.open_partitions.discard(partition)
        if not session.open_partitions:
            self.sessions.pop(session_id, None)

    def on_merkle_sync_response(self, message: Message) -> None:
        """Source side: descend into differing paths or ship divergent keys."""
        session_id = message.payload["session"]
        session = self.sessions.get(session_id)
        if session is None or session.peer_id != message.sender:
            return  # stale session (lost messages, duplicate delivery)
        differing = message.payload["differing"]
        level = message.payload["level"]
        partition = message.payload.get("partition")
        if not self._is_local_partition(partition):
            return  # not one of this node's ranges: drop
        tree = session.trees.get(partition)
        if tree is None:
            return  # stale range (superseded session id reuse)
        buckets = message.payload.get("buckets")
        if not (self._is_level(level) and self._is_paths(differing)
                and (buckets is None or isinstance(buckets, dict))):
            return  # not a level's differing paths and buckets: drop

        if not differing:
            self._finish_merkle_partition(session_id, session, partition)
            return

        try:
            if buckets is None:
                # Descend one level: ship child digests of every differing path.
                entries: List[Tuple[Tuple[int, ...], bytes]] = []
                for path in differing:
                    entries.extend(tree.child_digests(path))
                self._send_merkle_level(session_id, session.peer_id, partition,
                                        level + 1, entries)
                return
            own_buckets = [(tree.bucket_fingerprints(path), peer_fingerprints)
                           for path, peer_fingerprints in buckets.items()]
        except ConfigurationError:
            return  # paths do not fit this node's tree: drop

        # Leaf level: fingerprints localise the exact divergent keys.
        divergent: List[str] = []
        for own_fingerprints, peer_fingerprints in own_buckets:
            for key in sorted(set(own_fingerprints) | set(peer_fingerprints)):
                if own_fingerprints.get(key) != peer_fingerprints.get(key):
                    divergent.append(key)
        peer_id = session.peer_id
        self._finish_merkle_partition(session_id, session, partition)
        self._send_merkle_key_states(peer_id, sorted(set(divergent)))

    def _send_merkle_key_states(self, peer_id: str, keys: Sequence[str],
                                want_reply: bool = True) -> None:
        """Ship states for the divergent keys, batched to amortise latency."""
        node = self._node
        env = node.env
        for chunk in chunked(list(keys), env.sync_batch_size):
            states = {key: node.store.state_of(key) for key in chunk
                      if node.store.storage.has_key(key)}
            want = list(chunk) if want_reply else []
            size = (sum(node.payload_state_size(key, state)
                        for key, state in states.items())
                    + sum(len(key.encode("utf-8")) for key in want)
                    + env.request_overhead_bytes)
            env.merkle_stats.keys_transferred += len(states)
            node.emit(Send(Message(
                sender=node.node_id,
                receiver=peer_id,
                msg_type=MessageType.MERKLE_KEY_STATES,
                payload={"states": states, "want": want},
                size_bytes=size,
            )))

    def on_merkle_key_states(self, message: Message) -> None:
        for key, state in message.payload["states"].items():
            self._node.store.local_merge(key, state, reason="merkle")
        want = message.payload.get("want") or []
        if want:
            # Reply with the (now merged) local states so both sides converge
            # in a single exchange.
            self._send_merkle_key_states(message.sender, want, want_reply=False)

    # ------------------------------------------------------------------ #
    # Rebalancing handoff (join / decommission)
    # ------------------------------------------------------------------ #
    def send_key_handoff(self, target_id: str, keys: Sequence[str]) -> None:
        """Push the states of ``keys`` to a node that became a replica home.

        Each shipped key rides with the fingerprint its range tree already
        holds, so the receiver can adopt the digest instead of re-hashing the
        state (:meth:`StorageNode.ingest_handoff`): moving a vnode's worth of
        keys costs O(1) fresh fingerprints on both sides, not O(keys moved).
        """
        node = self._node
        env = node.env
        held = [key for key in keys if node.store.storage.has_key(key)]
        index = node.store.merkle_index
        for chunk in chunked(held, env.sync_batch_size):
            states = {key: node.store.state_of(key) for key in chunk}
            fingerprints: Dict[str, bytes] = {}
            for key in chunk:
                fingerprint = index.fingerprint(key)
                if fingerprint is not None:
                    fingerprints[key] = fingerprint
            size = (sum(node.payload_state_size(key, state)
                        for key, state in states.items())
                    + len(fingerprints) * DIGEST_BYTES
                    + env.request_overhead_bytes)
            node.emit(Send(Message(
                sender=node.node_id,
                receiver=target_id,
                msg_type=MessageType.KEY_HANDOFF,
                payload={"states": states, "fingerprints": fingerprints},
                size_bytes=size,
            )))

    # ------------------------------------------------------------------ #
    # Crash recovery
    # ------------------------------------------------------------------ #
    def on_recover(self) -> None:
        """Drop in-flight exchange snapshots (process memory)."""
        self.sessions.clear()
        self.peer_trees.clear()
