"""End-to-end span trees: a sloppy-quorum write traced through both backends.

The scenario is the paper's availability story in miniature: a primary
replica is down when the write arrives, so the coordinator's replica
deadline fires, a fallback is promoted into the quorum carrying a hint, and
once the primary returns the hint is replayed to it.  Every stage must be
visible in the write's span tree — coordinator fan-out, the timed-out
primary, the fallback promotion, the stored hint, and (critically) the
*eventual* hint replay, which happens long after the client request
completed but still links into the same trace.

Both backends are asserted with the same helper, so the span vocabulary
cannot drift between the simulator and asyncio.
"""

from __future__ import annotations

import asyncio
import contextlib
import os

from repro.clocks import create
from repro.cluster import QuorumConfig
from repro.kvstore import SimulatedCluster
from repro.kvstore.asyncio_cluster import AsyncioCluster
from repro.kvstore.host import HostedServer
from repro.obs import InMemoryTraceSink, Tracer, format_span_tree

SERVER_IDS = ("A", "B", "C", "D")
QUORUM = QuorumConfig(n=3, r=2, w=2, sloppy=True)


def pick_key(placement, down_position: int = 1):
    """A key whose preference list puts a *non-coordinator* primary at
    ``down_position`` — the node we will take down.  The coordinator
    (position 0) must stay up so the client's first candidate answers."""
    for index in range(200):
        key = f"cart-{index}"
        primaries = placement.primary_replicas(key)
        if len(primaries) >= 3:
            return key, primaries[down_position]
    raise AssertionError("no suitable key found")


def assert_sloppy_write_trace(sink, trace_id: str, down: str) -> None:
    """The span-tree shape every backend must produce for the scenario."""
    roots = sink.trees(trace_id)
    assert len(roots) == 1, format_span_tree(roots)
    root = roots[0]
    rendered = format_span_tree([root])

    assert root.name == "client.put", rendered
    assert root.status == "ok", rendered

    coordinators = root.find("coordinator.put")
    assert coordinators, rendered
    coordinator = coordinators[0]
    assert coordinator.status == "ok", rendered

    # fan-out: one replica.put per contacted node, as coordinator children
    replicas = coordinator.find("replica.put")
    assert len(replicas) >= 3, rendered
    by_target = {span.attrs["replica"]: span for span in replicas}
    assert by_target[down].status == "timeout", rendered

    # the deadline promoted a fallback into the quorum...
    (promotion,) = coordinator.find("fallback.promotion")
    assert promotion.attrs["primary"] == down, rendered
    fallback = promotion.attrs["fallback"]
    assert by_target[fallback].attrs.get("hint_for") == down, rendered

    # ...which stored a hint for the dead primary...
    stored = [span for span in sink.spans(trace_id).values()
              if span.name == "hint.stored" and span.attrs["target"] == down]
    assert stored, rendered

    # ...replayed to it after recovery, still inside the write's trace.
    replays = [span for span in sink.spans(trace_id).values()
               if span.name == "hint.replay"]
    assert any(span.attrs["target"] == down for span in replays), rendered
    # the replay happened after the client request already completed
    assert min(s.started_at for s in replays) >= root.ended_at, rendered


def test_sloppy_quorum_write_span_tree_simulated():
    sink = InMemoryTraceSink()
    cluster = SimulatedCluster(
        create("dvv"),
        server_ids=SERVER_IDS,
        quorum=QUORUM,
        seed=42,
        request_mode="async",
        anti_entropy_interval_ms=None,
        hint_replay_interval_ms=25.0,
        tracer=Tracer(sink),
    )
    key, down = pick_key(cluster.placement)
    client = cluster.client("c1")

    cluster.fail_node(down)
    client.put(key, "umbrella")
    cluster.run(until=150.0)
    assert key not in cluster.servers[down].node.storage.keys()

    cluster.recover_node(down)
    cluster.run(until=400.0)
    assert sum(server.node.pending_hints()
               for server in cluster.servers.values()) == 0

    (trace_id,) = [t for t in sink.trace_ids() if t.startswith("client:c1#")]
    assert_sloppy_write_trace(sink, trace_id, down)


def test_sloppy_quorum_write_span_tree_asyncio():
    sink = InMemoryTraceSink()

    async def scenario():
        cluster = AsyncioCluster(
            create("dvv"),
            server_ids=SERVER_IDS,
            quorum=QUORUM,
            anti_entropy_interval_ms=None,
            hint_replay_interval_ms=40.0,
            replica_timeout_ms=80.0,
            request_timeout_ms=1000.0,
            tracer=Tracer(sink),
        )
        async with cluster:
            key, down = pick_key(cluster.placement)
            client = await cluster.client("c1")

            # take the primary down (and clear its stale socket file so a
            # replacement can bind the same address later)
            crashed = cluster.servers[down]
            crashed.runner.cancel_all()
            await crashed.transport.close()
            socket_path = cluster.address_book[down][1]
            with contextlib.suppress(OSError):
                os.unlink(socket_path)

            result = await client.put(key, "umbrella")
            assert result is not None

            # the put resolves at quorum, *before* the dead primary's
            # deadline fires — wait for the handoff tail to store the hint
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 10.0
            while sum(s.node.pending_hints()
                      for s in cluster.servers.values()) == 0:
                assert loop.time() < deadline, "hint never stored"
                await asyncio.sleep(0.01)

            # bring the node back as a fresh listener on the same address
            server = HostedServer(down, cluster.env, cluster._transport_for,
                                  cluster.merkle_maintenance)
            await server.transport.start()
            cluster.servers[down] = server

            deadline = loop.time() + 10.0
            while sum(s.node.pending_hints()
                      for s in cluster.servers.values()) > 0:
                assert loop.time() < deadline, "hints never drained"
                await asyncio.sleep(0.05)
            # one more beat so the replayed hint's span events land
            await asyncio.sleep(0.1)
            return down

    down = asyncio.run(scenario())
    (trace_id,) = [t for t in sink.trace_ids() if t.startswith("client:c1#")]
    assert_sloppy_write_trace(sink, trace_id, down)


def test_tracing_is_off_by_default():
    """An untraced cluster must not grow any tracer state or emit events."""
    cluster = SimulatedCluster(create("dvv"), server_ids=("A", "B", "C"))
    assert cluster.env.tracer.enabled is False
    client = cluster.client("c1")
    client.put("k", "v")
    cluster.run(until=50.0)
    assert client.records and client.records[0].ok
