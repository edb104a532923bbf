"""Unit tests for Merkle-tree assisted anti-entropy."""

from __future__ import annotations

import hashlib
import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks import DVVMechanism
from repro.core import ConfigurationError
from repro.kvstore import ClientSession, SyncReplicatedStore
from repro.kvstore.merkle import (
    DiffStats,
    MerkleTree,
    diff_keys,
    key_fingerprint,
)
from repro.kvstore.merkle_index import MerkleIndex


def populated_store(keys=10, servers=("A", "B", "C")):
    store = SyncReplicatedStore(DVVMechanism(), server_ids=servers)
    client = ClientSession("writer")
    for index in range(keys):
        key = f"key-{index}"
        client.get(store, key, server_id=servers[0])
        client.put(store, key, f"value-{index}", server_id=servers[0])
    return store


class TestMerkleTree:
    def test_identical_states_identical_roots(self):
        store = populated_store()
        store.converge()
        tree_a = MerkleTree.for_node(store.node("A"))
        tree_b = MerkleTree.for_node(store.node("B"))
        assert tree_a.root_digest == tree_b.root_digest
        assert tree_a == tree_b

    def test_divergent_states_differ(self):
        store = populated_store()
        store.converge()
        client = ClientSession("late-writer")
        client.get(store, "key-3", server_id="A")
        client.put(store, "key-3", "changed", server_id="A")
        tree_a = MerkleTree.for_node(store.node("A"))
        tree_b = MerkleTree.for_node(store.node("B"))
        assert tree_a.root_digest != tree_b.root_digest

    def test_fingerprint_tracks_sibling_identity_not_mechanism(self):
        store = populated_store(keys=1)
        assert key_fingerprint(store.node("A"), "key-0") != key_fingerprint(store.node("B"), "key-0")
        store.converge()
        assert key_fingerprint(store.node("A"), "key-0") == key_fingerprint(store.node("B"), "key-0")

    def test_keys_and_fingerprint_queries(self):
        store = populated_store(keys=3)
        tree = MerkleTree.for_node(store.node("A"))
        assert tree.keys() == ["key-0", "key-1", "key-2"]
        assert tree.fingerprint("key-0") is not None
        assert tree.fingerprint("missing") is None

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            MerkleTree({}, fanout=1)
        with pytest.raises(ConfigurationError):
            MerkleTree({}, depth=0)

    def test_path_queries_for_wire_protocol(self):
        store = populated_store(keys=8)
        tree = MerkleTree.for_node(store.node("A"), fanout=4, depth=2)
        assert tree.digest_at(()) == tree.root_digest
        level1 = tree.child_digests(())
        assert [path for path, _ in level1] == [(0,), (1,), (2,), (3,)]
        # leaf buckets partition the key space
        all_keys = []
        for path, _digest in level1:
            for leaf_path, _leaf_digest in tree.child_digests(path):
                all_keys.extend(tree.bucket_fingerprints(leaf_path))
        assert sorted(all_keys) == tree.keys()
        with pytest.raises(ConfigurationError):
            tree.digest_at((9,))
        with pytest.raises(ConfigurationError):
            tree.bucket_fingerprints(())  # root is not a leaf


def reference_tree(fingerprints, fanout, depth):
    """Independent from-scratch builder: the recursive algorithm MerkleTree
    used before it became a view of MerkleIndex.  Returns the digest of every
    path and the sorted keys of every leaf bucket."""
    buckets = {}
    for key in fingerprints:
        digest = hashlib.md5(key.encode("utf-8")).digest()
        path = tuple(digest[level] % fanout for level in range(depth))
        buckets.setdefault(path, []).append(key)
    digests, leaves = {}, {}

    def build(prefix):
        if len(prefix) == depth:
            leaves[prefix] = sorted(buckets.get(prefix, []))
            material = b"".join(fingerprints[key] for key in leaves[prefix])
        else:
            material = b"".join(build(prefix + (branch,)) for branch in range(fanout))
        digests[prefix] = hashlib.sha256(material).digest()
        return digests[prefix]

    build(())
    return digests, leaves


def assert_matches_reference(tree, fingerprints):
    digests, leaves = reference_tree(fingerprints, tree.fanout, tree.depth)
    for path, digest in digests.items():
        assert tree.digest_at(path) == digest
    for path, keys in leaves.items():
        assert tree.bucket_fingerprints(path) == {key: fingerprints[key] for key in keys}


#: 50 fixed keys with fixed fingerprints, and their root digest per tree
#: shape as computed by the recursive builder before MerkleTree became a view
#: of MerkleIndex.  Never regenerate these from the current code.
FIXED_FINGERPRINTS = {f"key-{i}": hashlib.sha256(f"fp-{i}".encode()).digest()
                      for i in range(50)}
FIXED_ROOTS = {
    (16, 2): "61fd9b51339985b7a5e93ead92688eeb53ae8e986ac4ca9cb6f3e8d3464df7b0",
    (4, 2): "721d0a805ee03e3e579fc6b9d0d7b1416b0ac91bb6ed025543112842bccbd038",
    (3, 3): "e13e6f9cd0eaf4a0d4b7d62d62b8c89a06951356615fc0836c7117118a54711a",
}

KEYS = [f"k{i}" for i in range(24)]
OPERATIONS = st.lists(st.tuples(
    st.sampled_from(["put", "put", "drop", "flush", "snapshot"]),
    st.sampled_from(KEYS),
    st.binary(min_size=32, max_size=32),
), max_size=60)


class TestIndependentReference:
    @pytest.mark.parametrize("shape", sorted(FIXED_ROOTS))
    def test_pinned_root_digest(self, shape):
        fanout, depth = shape
        tree = MerkleTree(FIXED_FINGERPRINTS, fanout=fanout, depth=depth)
        digests, _ = reference_tree(FIXED_FINGERPRINTS, fanout, depth)
        assert tree.root_digest.hex() == digests[()].hex() == FIXED_ROOTS[shape]
        assert_matches_reference(tree, FIXED_FINGERPRINTS)

    @settings(max_examples=60, deadline=None)
    @given(fanout=st.integers(2, 5), depth=st.integers(1, 3),
           initial=st.dictionaries(st.sampled_from(KEYS),
                                   st.binary(min_size=32, max_size=32)),
           operations=OPERATIONS)
    def test_index_equals_reference_after_any_mutation_sequence(
            self, fanout, depth, initial, operations):
        # A mechanism whose states are never empty: every state the listener
        # sees is live, and drops arrive as ``state=None``.
        index = MerkleIndex(SimpleNamespace(is_empty=lambda state: False),
                            fanout=fanout, depth=depth)
        model = dict(initial)
        for key, fingerprint in initial.items():
            index.on_state_changed(key, "live", fingerprint=fingerprint)
        held = []
        for operation, key, fingerprint in itertools.chain(
                operations, [("snapshot", None, None)]):
            if operation == "put":
                index.on_state_changed(key, "live", fingerprint=fingerprint)
                model[key] = fingerprint
            elif operation == "drop":
                index.on_state_changed(key, None)
                model.pop(key, None)
            elif operation == "flush":
                index.flush()
            else:
                snapshot = index.snapshot()
                assert_matches_reference(snapshot, model)
                held.append((snapshot, dict(model)))
        assert_matches_reference(MerkleTree(model, fanout=fanout, depth=depth), model)
        for snapshot, frozen in held:  # later mutations never leak backwards
            assert_matches_reference(snapshot, frozen)


class TestDiffKeys:
    def test_diff_finds_exactly_the_divergent_keys(self):
        store = populated_store(keys=20)
        store.converge()
        client = ClientSession("late-writer")
        for key in ("key-2", "key-15"):
            client.get(store, key, server_id="A")
            client.put(store, key, "changed-" + key, server_id="A")
        universe = store.node("A").storage.keys()
        tree_a = MerkleTree.for_node(store.node("A"), universe)
        tree_b = MerkleTree.for_node(store.node("B"), universe)
        assert sorted(diff_keys(tree_a, tree_b)) == ["key-15", "key-2"]

    def test_diff_skips_agreeing_buckets(self):
        store = populated_store(keys=50)
        store.converge()
        client = ClientSession("late-writer")
        client.get(store, "key-7", server_id="A")
        client.put(store, "key-7", "changed", server_id="A")
        universe = store.node("A").storage.keys()
        tree_a = MerkleTree.for_node(store.node("A"), universe)
        tree_b = MerkleTree.for_node(store.node("B"), universe)
        stats = DiffStats()
        divergent = diff_keys(tree_a, tree_b, stats)
        assert divergent == ["key-7"]
        # far fewer per-key comparisons than the 50-key universe
        assert stats.keys_compared < 20
        assert stats.keys_divergent == 1

    def test_identical_trees_compare_only_the_root(self):
        store = populated_store(keys=10)
        store.converge()
        tree_a = MerkleTree.for_node(store.node("A"))
        tree_b = MerkleTree.for_node(store.node("B"))
        stats = DiffStats()
        assert diff_keys(tree_a, tree_b, stats) == []
        assert stats.nodes_compared == 1
        assert stats.keys_compared == 0

    def test_mismatched_shapes_rejected(self):
        tree_a = MerkleTree({}, fanout=4, depth=2)
        tree_b = MerkleTree({}, fanout=8, depth=2)
        with pytest.raises(ConfigurationError):
            diff_keys(tree_a, tree_b)

    def test_single_key_divergence_is_localised(self):
        """One divergent key among many: the diff descends into exactly one
        bucket and compares only that bucket's keys."""
        store = populated_store(keys=64)
        store.converge()
        client = ClientSession("late-writer")
        client.get(store, "key-11", server_id="A")
        client.put(store, "key-11", "changed", server_id="A")
        universe = store.node("A").storage.keys()
        tree_a = MerkleTree.for_node(store.node("A"), universe)
        tree_b = MerkleTree.for_node(store.node("B"), universe)
        stats = DiffStats()
        assert diff_keys(tree_a, tree_b, stats) == ["key-11"]
        assert stats.buckets_descended == 1
        assert stats.keys_divergent == 1
        # only the divergent bucket's keys were fingerprint-compared
        bucket_keys = stats.keys_compared
        assert bucket_keys < 64 / 4
        # root + its 16 children + the 16 leaves of the single differing
        # branch — the other 15 branches are never descended into
        assert stats.nodes_compared == 1 + 16 + 16

    def test_tree_updates_after_key_deletion(self):
        """Deleting a key changes the tree and the diff localises exactly it."""
        store = populated_store(keys=12)
        store.converge()
        node_a = store.node("A")
        before = MerkleTree.for_node(node_a)
        node_a.storage.delete("key-5")
        after = MerkleTree.for_node(node_a)
        assert before.root_digest != after.root_digest
        assert after.fingerprint("key-5") is None
        assert "key-5" not in after.keys()
        assert diff_keys(before, after) == ["key-5"]
        # against a replica that still has the key, the deletion shows up as
        # exactly that key diverging
        tree_b = MerkleTree.for_node(store.node("B"))
        assert diff_keys(after, tree_b) == ["key-5"]
