"""Merkle trees for anti-entropy (Riak/Dynamo "hashtree exchange").

Exchanging the full state of every key on every anti-entropy round is simple
but wasteful: most keys agree most of the time.  Production systems —
including the Riak deployment the paper's evaluation modified — summarise each
replica's key space in a Merkle tree and exchange only the hashes, descending
into subtrees whose hashes differ and finally transferring only the keys that
actually diverge.  The cluster's exchange is the per-vnode Merkle-delta
protocol in :mod:`repro.kvstore.protocol.anti_entropy`, over trees the
write-maintained :mod:`repro.kvstore.merkle_index` keeps current.

This module provides:

* :class:`MerkleTree` — a fixed-fanout hash tree over a key space, read by
  path: a frozen view of the index maps of a
  :class:`~repro.kvstore.merkle_index.MerkleIndex`, or built from
  ``(key, fingerprint)`` pairs through the same index code.  Fingerprints
  are derived from the ground-truth
  sibling identities (origin dots), so the tree is mechanism-independent and
  two replicas agree on a key's fingerprint exactly when they store the same
  sibling set.
* :func:`diff_keys` — the keys whose fingerprints differ between two trees
  (descending only into differing buckets), with :class:`DiffStats`
  counting the work; the reference the exchange's tests compare against.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core import codec
from ..core.exceptions import ConfigurationError
from .server import StorageNode


def _hash_bytes(payload: bytes) -> bytes:
    return hashlib.sha256(payload).digest()


def state_fingerprint(mechanism, state) -> bytes:
    """Fingerprint of one mechanism state's sibling set.

    Built from the sorted ground-truth origin dots of the live siblings, so
    two replicas have equal fingerprints iff they store the same versions —
    regardless of which causality mechanism produced them.  This is the unit
    of work the incremental index (:mod:`repro.kvstore.merkle_index`) pays
    once per mutation instead of once per key per tree rebuild.

    The digest is memoized per sorted dot tuple (in :mod:`repro.core.codec`),
    so a merge, handoff or replayed hint that reproduces an already-seen
    sibling set hashes nothing.
    """
    dots = tuple(sorted(s.origin_dot for s in mechanism.siblings(state)))
    return codec.sibling_set_fingerprint(dots)


def state_fingerprint_cold(mechanism, state) -> bytes:
    """Uncached recompute of :func:`state_fingerprint` (audits and tests)."""
    dots = tuple(sorted(s.origin_dot for s in mechanism.siblings(state)))
    return _hash_bytes(codec.sibling_set_material(dots))


def key_fingerprint(node: StorageNode, key: str) -> bytes:
    """Fingerprint of a key's sibling set at one replica."""
    return state_fingerprint(node.mechanism, node.storage.get_state(key))


def bucket_path(key: str, fanout: int, depth: int) -> Tuple[int, ...]:
    """The leaf-bucket path a key hashes to in a (fanout, depth) tree.

    Shared by :class:`MerkleTree` and the incremental
    :class:`~repro.kvstore.merkle_index.MerkleIndex` so a write-maintained
    index and a from-scratch rebuild place every key in the same bucket and
    produce byte-identical digests.
    """
    digest = hashlib.md5(key.encode("utf-8")).digest()
    return tuple(digest[level] % fanout for level in range(depth))


class MerkleTree:
    """A fixed-depth, fixed-fanout Merkle tree over a key space.

    Keys are assigned to leaf buckets by hashing, so two trees built over the
    same key universe place every key in the same bucket and their digests are
    directly comparable level by level.  The tree is a frozen view of a
    :class:`~repro.kvstore.merkle_index.MerkleIndex`'s maps; building one from
    ``fingerprints`` runs them through that index, the one digest algorithm.
    """

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def __init__(self,
                 fingerprints: Dict[str, bytes],
                 fanout: int = 16,
                 depth: int = 2) -> None:
        from .merkle_index import MerkleIndex  # circular-import guard
        index = MerkleIndex(None, fanout=fanout, depth=depth)
        for key, fingerprint in fingerprints.items():
            index.put(key, fingerprint)
        index.flush()
        self._adopt(index)

    @classmethod
    def view_of(cls, index) -> "MerkleTree":
        """Freeze a flushed index's current maps into a tree."""
        tree = cls.__new__(cls)
        tree._adopt(index)
        return tree

    def _adopt(self, index) -> None:
        # Shallow copies suffice: fingerprints and digests are bytes and the
        # index keeps bucket members as immutable sorted tuples.
        self.fanout = index.fanout
        self.depth = index.depth
        self._fingerprints = dict(index._fingerprints)
        self._buckets = dict(index._buckets)
        self._digests = dict(index._digests)
        self._empty = index._empty

    @classmethod
    def for_node(cls, node: StorageNode, keys: Optional[Iterable[str]] = None,
                 fanout: int = 16, depth: int = 2) -> "MerkleTree":
        """Build the tree of one replica's current state."""
        key_list = list(keys) if keys is not None else node.storage.keys()
        fingerprints = {key: key_fingerprint(node, key) for key in key_list}
        return cls(fingerprints, fanout=fanout, depth=depth)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def root_digest(self) -> bytes:
        """Digest summarising the whole replica state."""
        return self._digests.get((), self._empty[0])

    def fingerprint(self, key: str) -> Optional[bytes]:
        """The stored fingerprint for ``key`` (None when absent)."""
        return self._fingerprints.get(key)

    def keys(self) -> List[str]:
        """Every key covered by the tree, sorted."""
        return sorted(self._fingerprints)

    def _path(self, path: Sequence[int]) -> Tuple[int, ...]:
        path = tuple(path)
        if len(path) > self.depth or not all(
                isinstance(branch, int) and 0 <= branch < self.fanout
                for branch in path):
            raise ConfigurationError(f"invalid tree path {path!r}")
        return path

    def digest_at(self, path: Sequence[int]) -> bytes:
        """Digest of the node addressed by ``path`` (``()`` is the root)."""
        path = self._path(path)
        return self._digests.get(path, self._empty[len(path)])

    def child_digests(self, path: Sequence[int]) -> List[Tuple[Tuple[int, ...], bytes]]:
        """``(child_path, digest)`` pairs for the children of ``path``'s node.

        This is one "level" of the hashtree exchange: a replica ships these
        pairs to its peer, which compares them against its own tree and asks
        for the children of the ones that differ.  A leaf bucket has none.
        """
        path = self._path(path)
        if len(path) == self.depth:
            return []
        empty = self._empty[len(path) + 1]
        return [(path + (branch,), self._digests.get(path + (branch,), empty))
                for branch in range(self.fanout)]

    def bucket_fingerprints(self, path: Sequence[int]) -> Dict[str, bytes]:
        """``{key: fingerprint}`` of the leaf bucket addressed by ``path``."""
        path = self._path(path)
        if len(path) != self.depth:
            raise ConfigurationError(f"path {path!r} is not a leaf bucket")
        return {key: self._fingerprints[key] for key in self._buckets.get(path, ())}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MerkleTree):
            return NotImplemented
        return self.root_digest == other.root_digest

    def __hash__(self) -> int:  # pragma: no cover - trivial
        return hash(self.root_digest)


@dataclass
class DiffStats:
    """How much work a tree-driven comparison did (for the efficiency report)."""

    nodes_compared: int = 0
    buckets_descended: int = 0
    keys_compared: int = 0
    keys_divergent: int = 0


def diff_keys(left: MerkleTree, right: MerkleTree,
              stats: Optional[DiffStats] = None) -> List[str]:
    """Keys whose fingerprints differ between the two trees.

    Only descends into subtrees whose digests differ, and only compares the
    individual key fingerprints of leaf buckets that differ — the property
    that makes hashtree exchange cheap when replicas mostly agree.
    """
    if left.fanout != right.fanout or left.depth != right.depth:
        raise ConfigurationError("cannot diff Merkle trees with different shapes")
    stats = stats if stats is not None else DiffStats()
    divergent: List[str] = []

    def walk(path: Tuple[int, ...]) -> None:
        stats.nodes_compared += 1
        if left.digest_at(path) == right.digest_at(path):
            return
        if len(path) == left.depth:
            stats.buckets_descended += 1
            a = left.bucket_fingerprints(path)
            b = right.bucket_fingerprints(path)
            for key in sorted(a.keys() | b.keys()):
                stats.keys_compared += 1
                if a.get(key) != b.get(key):
                    stats.keys_divergent += 1
                    divergent.append(key)
            return
        for branch in range(left.fanout):
            walk(path + (branch,))

    walk(())
    return divergent
