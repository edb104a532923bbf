"""The asyncio backend end to end over real sockets.

Read-your-writes between two clients and convergence, once over Unix-domain
sockets and once over TCP, a check that anti-entropy runs from each server's
write-maintained per-vnode index, plus a lifetime check: once stopped and dropped,
a cluster must be garbage even though the event loop still holds handles
for the connections it closed, and a malformed inbound frame closes only the
connection it arrived on.
"""

from __future__ import annotations

import asyncio
import gc
import socket
import weakref

import pytest

from repro.clocks import create
from repro.kvstore import AsyncioCluster, MerkleTree, VnodeIndexSet
from repro.network.wire import WIRE_VERSION

SERVER_IDS = ("A", "B", "C")
#: Listeners a TCP cluster binds: every server and both clients.
TCP_NODES = len(SERVER_IDS) + 2


def free_consecutive_ports(count: int, attempts: int = 50) -> int:
    """A base port such that ``base .. base + count - 1`` are all bindable."""
    for _ in range(attempts):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            base = probe.getsockname()[1]
        if base + count > 65536:
            continue
        sockets = []
        try:
            for port in range(base, base + count):
                sock = socket.socket()
                sockets.append(sock)
                sock.bind(("127.0.0.1", port))
        except OSError:
            continue
        finally:
            for sock in sockets:
                sock.close()
        return base
    pytest.skip(f"no run of {count} free consecutive TCP ports")


async def read_your_writes(cluster: AsyncioCluster) -> None:
    async with cluster:
        alice = await cluster.client("alice")
        bob = await cluster.client("bob")
        assert await alice.put("cart", "beer") is not None
        assert (await alice.get("cart")).values == ["beer"]
        # R + W > N: a quorum read by another client sees the acked write.
        seen = await bob.get("cart")
        assert seen.values == ["beer"]
        # Bob's write carries the context he read, so it supersedes alice's.
        assert await bob.put("cart", "beer+chips") is not None
        assert (await alice.get("cart")).values == ["beer+chips"]
        await cluster.converge(timeout_s=10.0)
        assert cluster.is_converged()
        assert cluster.metrics_snapshot()["requests.failed"] == 0


def test_unix_sockets_read_your_writes_and_converge():
    asyncio.run(read_your_writes(AsyncioCluster(
        create("dvv"), server_ids=SERVER_IDS, anti_entropy_interval_ms=20.0)))


def test_anti_entropy_reads_each_servers_per_vnode_index():
    async def scenario(cluster: AsyncioCluster) -> None:
        async with cluster:
            writer = await cluster.client("writer")
            for index in range(8):
                assert await writer.put(f"k{index}", f"v{index}") is not None
            await cluster.converge(timeout_s=10.0)
            assert cluster.is_converged()

    cluster = AsyncioCluster(create("dvvset"), server_ids=SERVER_IDS,
                             anti_entropy_interval_ms=20.0)
    asyncio.run(scenario(cluster))
    assert cluster.stat_totals()["full_rebuilds"] == 0
    for server in cluster.servers.values():
        index = server.node.merkle_index
        assert isinstance(index, VnodeIndexSet)
        rebuilt = MerkleTree.for_node(server.node,
                                      fanout=cluster.env.merkle_fanout,
                                      depth=cluster.env.merkle_depth)
        assert index.root_digest == rebuilt.root_digest


def test_tcp_read_your_writes_and_converge():
    base_port = free_consecutive_ports(TCP_NODES)
    cluster = AsyncioCluster(create("dvvset"), server_ids=SERVER_IDS,
                             transport="tcp", base_port=base_port,
                             anti_entropy_interval_ms=20.0)
    asyncio.run(read_your_writes(cluster))
    assert sorted(port for _, _, port in cluster.address_book.values()) == \
        list(range(base_port, base_port + TCP_NODES))


def test_stopped_cluster_is_garbage_without_another_loop_turn():
    async def scenario():
        cluster = AsyncioCluster(create("dvv"), server_ids=SERVER_IDS,
                                 anti_entropy_interval_ms=10.0,
                                 hint_replay_interval_ms=10.0)
        await cluster.start()
        client = await cluster.client("c1")
        assert await client.put("k", "v") is not None
        await asyncio.sleep(0.05)   # let both daemons tick
        await cluster.stop()
        alive = weakref.ref(cluster)
        del cluster, client
        # No await between stop() and here: the loop still holds the
        # connection-lost callbacks of the endpoints stop() closed.
        gc.collect()
        return alive()

    assert asyncio.run(scenario()) is None


def test_malformed_frame_closes_only_its_own_connection():
    async def scenario(cluster: AsyncioCluster) -> None:
        async with cluster:
            _, path = cluster.address_book["A"]
            bad_reader, bad_writer = await asyncio.open_unix_connection(path)
            idle_reader, idle_writer = await asyncio.open_unix_connection(path)
            body = bytes([WIRE_VERSION]) + b"\xff garbage, not a message"
            bad_writer.write(len(body).to_bytes(4, "big") + body)
            await bad_writer.drain()

            # The server closes the connection that carried the bad frame ...
            assert await asyncio.wait_for(bad_reader.read(), timeout=5.0) == b""
            # ... and nothing else: the idle one is still open.
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(idle_reader.read(1), timeout=0.05)
            assert cluster.servers["A"].transport.stats.malformed_frames == 1
            assert cluster.metrics_snapshot()["transport.malformed_frames"] == 1

            client = await cluster.client("c1")
            assert await client.put("k", "v") is not None
            assert (await client.get("k")).values == ["v"]
            bad_writer.close()
            idle_writer.close()

    asyncio.run(scenario(AsyncioCluster(create("dvv"), server_ids=SERVER_IDS)))
