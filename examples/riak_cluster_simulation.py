#!/usr/bin/env python3
"""A Riak-style cluster under load: metadata size and request latency.

This example reproduces, at laptop scale, the evaluation the brief
announcement cites: the same closed-loop read-modify-write workload is run
against a simulated 3-node cluster (quorum R=W=2, read repair, anti-entropy)
once for each causality mechanism, and the per-request latency plus the
causality-metadata footprint are reported.  Because the simulated network
charges transmission time per byte, the only difference between runs is the
size of the clocks each mechanism ships around — which is exactly the paper's
point.

Run with::

    python examples/riak_cluster_simulation.py
"""

from __future__ import annotations

from repro.analysis import analyze_requests, measure_simulated_cluster, render_table
from repro.clocks import create
from repro.cluster import QuorumConfig
from repro.kvstore import SimulatedCluster
from repro.network import FixedLatency, SizeDependentLatency
from repro.workloads import ClosedLoopConfig, run_closed_loop_workload

MECHANISMS = ["dvvset", "dvv", "client_vv", "causal_history"]
CLIENTS = 24
DURATION_MS = 800.0


def run_one(mechanism_name: str):
    cluster = SimulatedCluster(
        create(mechanism_name),
        server_ids=("riak1", "riak2", "riak3"),
        quorum=QuorumConfig(n=3, r=2, w=2),
        latency=SizeDependentLatency(base=FixedLatency(0.25), bytes_per_ms=600.0),
        anti_entropy_interval_ms=50.0,
        seed=2012,
    )
    config = ClosedLoopConfig(
        keys=("session:42", "cart:42"),
        think_time_ms=5.0,
        write_fraction=0.6,
        stop_at_ms=DURATION_MS,
    )
    run_closed_loop_workload(cluster, client_count=CLIENTS, config=config)
    latency = analyze_requests(mechanism_name, cluster.all_request_records(),
                               duration_ms=DURATION_MS)
    metadata = measure_simulated_cluster(cluster)
    return latency, metadata, cluster.metrics_snapshot()["transport.bytes_sent"]


def main() -> None:
    rows = []
    for name in MECHANISMS:
        latency, metadata, wire_bytes = run_one(name)
        rows.append([
            name,
            latency.requests,
            round(latency.overall.mean, 2),
            round(latency.overall.p95, 2),
            round(latency.mean_context_bytes, 1),
            metadata.total_bytes,
            wire_bytes,
        ])
    print(render_table(
        ["mechanism", "requests", "mean latency ms", "p95 ms",
         "context bytes/request", "stored metadata bytes", "bytes on the wire"],
        rows,
        title=f"Simulated 3-node cluster, {CLIENTS} closed-loop clients, identical workload",
    ))
    print()
    print("Reading the table: the DVV-family mechanisms keep the causal context")
    print("bounded by the replication degree (3 servers), so requests carry and")
    print("store less metadata and finish sooner; per-client version vectors and")
    print("explicit causal histories grow with the number of clients/writes and")
    print("pay for it in latency — the effect the paper reports from Riak.")


if __name__ == "__main__":
    main()
