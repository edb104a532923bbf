"""Wall-clock smoke of the asyncio backend — real sockets, real concurrency.

The simulator measures the protocol in virtual time; this benchmark runs the
exact same state machines over real Unix-domain sockets
(:class:`repro.kvstore.AsyncioCluster`) and reports what a wall clock sees:
a 3-node cluster, several truly concurrent clients issuing a mixed PUT/GET
workload, anti-entropy and hint replay ticking as asyncio tasks.  The checks
are about liveness and safety rather than speed: every client request must
complete, the replicas must converge once the workload stops, and the
throughput must be nonzero (the backend actually moved frames).

Besides the pytest tests, the module runs standalone as a smoke check
for CI::

    PYTHONPATH=src python benchmarks/bench_asyncio_backend.py --smoke

which exercises all three headline mechanisms (dvv, dvvset, causal_history)
and writes the measured numbers to ``BENCH_asyncio_backend.json``.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import random
import sys

try:  # pragma: no cover - trivial import guard (script mode)
    import repro  # noqa: F401
except ModuleNotFoundError:  # pragma: no cover - only on uninstalled checkouts
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import pytest

from repro.analysis import analyze_requests, render_table
from repro.clocks import create
from repro.kvstore import AsyncioCluster

MECHANISMS = ("dvv", "dvvset", "causal_history")

#: The ISSUE's acceptance floor: a real cluster must serve at least this many
#: truly concurrent clients.
CLIENT_COUNT = 4


async def _run_cluster_workload(mechanism_name: str,
                                clients: int = CLIENT_COUNT,
                                duration_s: float = 0.4,
                                keys: int = 4,
                                write_fraction: float = 0.6,
                                seed: int = 2012) -> dict:
    """Drive a 3-node asyncio cluster with a concurrent mixed workload.

    Returns the measured numbers: completed/failed requests, wall-clock
    ops/s, latency stats, convergence time and wire traffic.
    """
    cluster = AsyncioCluster(
        create(mechanism_name),
        server_ids=("A", "B", "C"),
        anti_entropy_interval_ms=50.0,
        hint_replay_interval_ms=25.0,
    )
    key_space = [f"key-{index}" for index in range(keys)]
    async with cluster:
        sessions = [await cluster.client(f"c{index}") for index in range(clients)]
        loop = asyncio.get_running_loop()
        stop_at = loop.time() + duration_s

        async def drive(client, index: int) -> None:
            rng = random.Random(seed * 1000 + index)
            while loop.time() < stop_at:
                key = key_space[rng.randrange(len(key_space))]
                if rng.random() < write_fraction:
                    await client.put(key, f"{client.client_id}-{rng.random():.6f}")
                else:
                    await client.get(key)

        started = loop.time()
        await asyncio.gather(*(drive(c, i) for i, c in enumerate(sessions)))
        elapsed_s = loop.time() - started
        convergence_s = await cluster.converge(timeout_s=30.0)
        records = cluster.all_request_records()
        latency = analyze_requests(mechanism_name, records,
                                   duration_ms=elapsed_s * 1000.0)
        wire_bytes = sum(server.transport.stats.bytes_sent
                         for server in cluster.servers.values())
        return {
            "mechanism": mechanism_name,
            "clients": clients,
            "requests": latency.requests,
            "failed": sum(1 for record in records if not record.ok),
            "ops_per_s": round(latency.throughput_per_s, 1),
            "mean_ms": round(latency.overall.mean, 3),
            "p95_ms": round(latency.overall.p95, 3),
            "wire_bytes": wire_bytes,
            "elapsed_s": round(elapsed_s, 3),
            "convergence_s": round(convergence_s, 3),
            "converged": cluster.is_converged(),
        }


def run_cluster_workload(mechanism_name: str, **kwargs) -> dict:
    """Synchronous wrapper so pytest and the smoke gate share one driver."""
    return asyncio.run(_run_cluster_workload(mechanism_name, **kwargs))


@pytest.mark.parametrize("mechanism_name", MECHANISMS)
def test_asyncio_backend_serves_concurrent_clients(mechanism_name):
    """4 concurrent clients over real sockets: all complete, all converge."""
    result = run_cluster_workload(mechanism_name, duration_s=0.25)
    assert result["requests"] > 0
    assert result["failed"] == 0
    assert result["ops_per_s"] > 0
    assert result["converged"]


def run_smoke(duration_s: float = 0.5,
              results_path: str = "BENCH_asyncio_backend.json") -> int:
    """CI gate: the asyncio backend must serve real concurrent traffic.

    For each headline mechanism, a 3-node Unix-socket cluster takes a mixed
    PUT/GET workload from 4 concurrent clients; the gate fails if any request
    fails, the replicas do not converge, or wall-clock throughput is zero.
    The measured numbers go to ``results_path`` as a CI artifact.
    """
    results: dict = {"duration_s": duration_s, "clients": CLIENT_COUNT}
    rows = []
    for mechanism_name in MECHANISMS:
        result = run_cluster_workload(mechanism_name, duration_s=duration_s)
        results[mechanism_name] = result
        rows.append([mechanism_name, result["requests"], result["failed"],
                     result["ops_per_s"], result["mean_ms"], result["p95_ms"],
                     result["convergence_s"], result["converged"]])
    print(render_table(
        ["mechanism", "requests", "failed", "ops/s", "mean ms", "p95 ms",
         "converge s", "converged"],
        rows,
        title=(f"Asyncio backend smoke — 3 nodes, {CLIENT_COUNT} concurrent "
               f"clients, unix sockets, {duration_s}s"),
    ))
    for mechanism_name in MECHANISMS:
        result = results[mechanism_name]
        if result["requests"] == 0 or result["ops_per_s"] <= 0:
            print(f"FAIL: {mechanism_name} served no traffic over the asyncio "
                  "backend", file=sys.stderr)
            return 1
        if result["failed"] > 0:
            print(f"FAIL: {mechanism_name} failed {result['failed']} of "
                  f"{result['requests'] + result['failed']} requests over the "
                  "asyncio backend", file=sys.stderr)
            return 1
        if not result["converged"]:
            print(f"FAIL: {mechanism_name} replicas did not converge after the "
                  "workload", file=sys.stderr)
            return 1
        print(f"OK: {mechanism_name} served {result['requests']} requests at "
              f"{result['ops_per_s']} ops/s, converged in "
              f"{result['convergence_s']}s")
    pathlib.Path(results_path).write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {results_path}")
    return 0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="run the concurrent-clients wall-clock gate")
    parser.add_argument("--duration-s", type=float, default=0.5,
                        dest="duration_s")
    parser.add_argument("--out", default="BENCH_asyncio_backend.json",
                        help="where --smoke writes its measured numbers as JSON")
    args = parser.parse_args()
    if not args.smoke:
        parser.error("run under pytest for the test suite, or pass --smoke")
    raise SystemExit(run_smoke(duration_s=args.duration_s,
                               results_path=args.out))
