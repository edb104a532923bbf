"""Property tests: the incremental Merkle index always matches a rebuild.

The incremental index subsystem's core invariant is that a node's
write-maintained hash tree is indistinguishable from one rebuilt from scratch
over its current storage — for **every** mutation path.  These tests drive
randomized churn with fault injection (crash-restart, wiped recovery,
partitions and heals, hint replay, Merkle-delta transfers, read repair, join
handoff) and after every step compare each live node's incremental root
digest against ``MerkleTree.for_node`` on the same storage.  Any write path
that forgets to go through the mutation listener — or any staleness bug in
the dirty-bucket bookkeeping — shows up as a digest mismatch at the first
checkpoint after it fires.
"""

from __future__ import annotations

import random

import pytest

from repro.clocks import create
from repro.cluster import QuorumConfig
from repro.kvstore import MerkleTree, SimulatedCluster
from repro.network import FixedLatency

KEYS = ("alpha", "beta", "gamma", "delta")
SERVERS = ("n1", "n2", "n3")


def build_cluster(mechanism_name: str, seed: int, **kwargs) -> SimulatedCluster:
    kwargs.setdefault("server_ids", SERVERS)
    kwargs.setdefault("quorum", QuorumConfig(n=3, r=2, w=2))
    kwargs.setdefault("latency", FixedLatency(0.5))
    kwargs.setdefault("anti_entropy_interval_ms", None)
    kwargs.setdefault("hint_replay_interval_ms", 20.0)
    return SimulatedCluster(create(mechanism_name), seed=seed, **kwargs)


def assert_index_matches_rebuild(cluster: SimulatedCluster, context: str = "") -> None:
    """Every live node's incremental root digest equals a from-scratch rebuild."""
    for server_id, server in sorted(cluster.servers.items()):
        index = server.node.merkle_index
        assert index is not None, f"{server_id} lost its Merkle index ({context})"
        rebuilt = MerkleTree.for_node(server.node,
                                      fanout=cluster.env.merkle_fanout,
                                      depth=cluster.env.merkle_depth)
        assert index.root_digest == rebuilt.root_digest, (
            f"{server_id}: incremental root diverged from rebuild ({context}); "
            f"index keys={index.keys()} storage keys={server.node.storage.keys()}"
        )


class TestIndexEqualsRebuildUnderChurn:
    @pytest.mark.parametrize("mechanism_name", ["dvv", "dvvset", "causal_history"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_randomized_churn_with_fault_injection(self, mechanism_name, seed):
        cluster = build_cluster(mechanism_name, seed)
        rng = random.Random(seed * 6007 + sum(map(ord, mechanism_name)))
        clients = [cluster.client(f"c{index}") for index in range(3)]
        crashed = None
        counter = 0

        for step in range(40):
            action = rng.choice(
                ["put", "put", "put", "get", "partition", "heal",
                 "crash", "recover", "sync"]
            )
            if action == "put":
                client = rng.choice(clients)
                key = rng.choice(KEYS)
                counter += 1
                value = f"{client.client_id}-v{counter}"
                client.get(key, lambda _r, c=client, k=key, v=value: c.put(k, v))
            elif action == "get":
                rng.choice(clients).get(rng.choice(KEYS))
            elif action == "partition":
                loner = rng.choice(SERVERS)
                cluster.partitions.partition(
                    {loner}, {node for node in SERVERS if node != loner}
                )
            elif action == "heal":
                cluster.partitions.heal()
            elif action == "crash" and crashed is None:
                crashed = rng.choice(SERVERS)
                cluster.fail_node(crashed)
            elif action == "recover" and crashed is not None:
                # crash-restart (index rebuilt from surviving storage) or
                # disk wipe (index emptied with the disk)
                cluster.recover_node(crashed, wipe=rng.random() < 0.4)
                crashed = None
            elif action == "sync":
                cluster.run_anti_entropy_round(settle=False)
            cluster.run(until=cluster.simulation.now + rng.uniform(2.0, 10.0))
            assert_index_matches_rebuild(cluster, context=f"step {step}: {action}")

        cluster.partitions.heal()
        if crashed is not None:
            cluster.recover_node(crashed)
        cluster.drain()
        cluster.converge(max_rounds=40)
        assert cluster.is_converged()
        assert_index_matches_rebuild(cluster, context="after convergence")

    def test_hint_replay_to_wiped_node_keeps_index_current(self):
        """Hint replay repopulates a wiped disk *through the index listener*."""
        cluster = build_cluster("dvv", seed=11)
        client = cluster.client("writer")
        for key in KEYS:
            client.put(key, f"{key}-v1")
        cluster.run(until=cluster.simulation.now + 30.0)
        cluster.fail_node("n2")
        for key in KEYS:
            client.get(key, lambda _r, k=key: client.put(k, f"{k}-v2"))
        cluster.run(until=cluster.simulation.now + 30.0)
        cluster.recover_node("n2", wipe=True)
        assert_index_matches_rebuild(cluster, context="right after wipe")
        cluster.drain()
        assert cluster.servers["n2"].node.stats["hint_replays"] > 0
        assert_index_matches_rebuild(cluster, context="after hint replay")
        cluster.converge(max_rounds=40)
        assert_index_matches_rebuild(cluster, context="after convergence")

    def test_join_handoff_feeds_the_newcomers_index(self):
        """KEY_HANDOFF ingestion lands in the joiner's (fresh) index."""
        cluster = build_cluster("dvv", seed=13, hint_replay_interval_ms=None)
        client = cluster.client("writer")
        for index in range(12):
            client.put(f"key-{index}", f"v{index}")
        cluster.simulation.run_until_idle()
        handed_off = cluster.join_node("n4")
        cluster.simulation.run_until_idle()
        assert handed_off > 0
        assert cluster.servers["n4"].node.stats["handoffs"] > 0
        assert_index_matches_rebuild(cluster, context="after join handoff")

    def test_decommission_handoff_feeds_survivor_indexes(self):
        cluster = build_cluster("dvv", seed=17, hint_replay_interval_ms=None,
                                quorum=QuorumConfig(n=1, r=1, w=1))
        client = cluster.client("writer")
        for index in range(12):
            client.put(f"key-{index}", f"v{index}")
        cluster.simulation.run_until_idle()
        cluster.decommission_node("n2")
        cluster.simulation.run_until_idle()
        assert_index_matches_rebuild(cluster, context="after decommission")

    def test_read_repair_path_keeps_index_current(self):
        """Batched READ_REPAIR merges flow through the mutation listener."""
        cluster = build_cluster("dvv", seed=19, hint_replay_interval_ms=None,
                                quorum=QuorumConfig(n=3, r=3, w=1))
        client = cluster.client("writer")
        for key in KEYS:
            client.put(key, f"{key}-v1")
        cluster.run(until=cluster.simulation.now + 20.0)
        for key in KEYS:
            client.get(key)   # R=3 reads notice and repair stale replicas
        cluster.drain()
        assert_index_matches_rebuild(cluster, context="after read repair")

    def test_rebuild_maintenance_mode_has_no_index(self):
        cluster = build_cluster("dvv", seed=23, merkle_maintenance="rebuild",
                                hint_replay_interval_ms=None)
        client = cluster.client("writer")
        client.put("k", "v1")
        cluster.drain()
        assert all(server.node.merkle_index is None
                   for server in cluster.servers.values())
        cluster.run_anti_entropy_round()
        assert cluster.is_converged()
        # the rebuild cost is visible in the maintenance counters instead
        totals = cluster.stat_totals()
        assert totals["full_rebuilds"] > 0
