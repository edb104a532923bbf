"""The benchmark's three workloads and the measurements taken on them.

``kv_uniform`` and ``kv_hot_key`` drive an in-process
:class:`~repro.kvstore.AsyncioCluster` (3 nodes over Unix-domain sockets,
N=3/R=2/W=2 sloppy quorums) with an **open-loop** Poisson stream: the whole
arrival schedule is drawn from the seed before the cluster exists, and each
arrival fires at its due time through ``loop.call_at`` whether or not earlier
requests have finished.  Latency is timed from the due time, so a stall
shows up in every request that queued behind it.  ``sim_soak`` runs the
fixed-seed ``soak`` churn scenario on the deterministic simulator.

Every run ends at the correctness gate: the replicas converge and the
write-log oracle (:func:`repro.analysis.correctness.check_cluster`) finds no
lost update.  A run that fails it raises :class:`GateError` and reports no
numbers.
"""

from __future__ import annotations

import asyncio
import gc
import math
import os
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis import correctness
from repro.clocks import create
from repro.core.codec import codec_stats
from repro.kvstore import AsyncioCluster
from repro.kvstore.simulated import SimulatedCluster
from repro.workloads.scenarios import run_churn_scenario

from .layers import LayerTrace, layer_metrics, top_layers, window


class GateError(RuntimeError):
    """The run's outputs failed the correctness gate."""


@dataclass(frozen=True)
class KvWorkload:
    """One open-loop traffic mix against the socket cluster."""

    name: str
    mechanism: str
    keys: int
    #: Zipf exponent of key popularity; 0 draws keys uniformly.
    zipf_s: float
    write_fraction: float
    rate_per_s: float
    sessions: int
    anti_entropy_interval_ms: float


KV_WORKLOADS: Dict[str, KvWorkload] = {
    # Request path: many small frames, Merkle work a few percent of CPU.
    # 200 ops/s keeps the loop under half busy, so a 2x regression in any
    # layer still does not saturate it.
    "kv_uniform": KvWorkload("kv_uniform", "dvv", keys=2000, zipf_s=0.0,
                             write_fraction=0.5, rate_per_s=200.0, sessions=2,
                             anti_entropy_interval_ms=1000.0),
    # Sibling/metadata regime: the hottest of 64 keys takes about a quarter
    # of the traffic, so states and frames grow with writes per key, and the
    # default 100 ms anti-entropy interval makes Merkle snapshots a large
    # share of CPU.
    "kv_hot_key": KvWorkload("kv_hot_key", "dvvset", keys=64, zipf_s=1.1,
                             write_fraction=0.5, rate_per_s=60.0, sessions=2,
                             anti_entropy_interval_ms=100.0),
}

WORKLOADS = tuple(KV_WORKLOADS) + ("sim_soak",)

SERVER_IDS = ("A", "B", "C")
#: Measured seconds per trial.  A kv run is a series of trials, each on a
#: freshly built cluster, and its percentiles are over the requests of all
#: of them.  Each kv_uniform window holds about one long gen-2 collection,
#: which delays about 1% of its requests, so a p99 swings with how many
#: arrivals that pause catches and with the host's own stalls: over ten
#: seeds its quartiles spread more than a quarter of its median, which is
#: why p99 is reported by the traced run instead of as a bounded metric.
TRIAL_S = 5.0
#: Arrivals before each trial's measured window, excluded from every metric.
WARMUP_S = 1.0
#: Extra cluster builds before each kv trial and after each soak call;
#: ``setup_s`` is the fastest of these and of the builds the load runs on,
#: so the builds sample the whole run.
SETUP_REPEATS = 6
#: Bound on draining in-flight requests and on convergence after the load.
DRAIN_TIMEOUT_S = 60.0
#: Simulated length of one soak scenario call (about 2 s of wall time).
SOAK_SIM_MS = 10_000.0
#: Wall seconds a run budgets per soak scenario call.
SOAK_CALL_S = 2.5
#: Socket directory, relative to the working directory so socket paths stay
#: short whatever the checkout's location.
SOCKET_DIR = ".storebench_sockets"


@dataclass(frozen=True)
class Arrival:
    """One generated request: when it is due (s after the schedule starts),
    which session sends it, and what it asks."""

    due_s: float
    session: int
    op: str
    key: str
    value: str


def build_schedule(spec: KvWorkload, seed: int, duration_s: float,
                   trial: int = 0) -> List[Arrival]:
    """The seeded Poisson arrival schedule of one trial, ``duration_s`` long."""
    rng = random.Random(f"{spec.name}:{seed}:{trial}")
    keys = [f"key-{index:04d}" for index in range(spec.keys)]
    cum_weights = None
    if spec.zipf_s > 0:
        total = 0.0
        cum_weights = []
        for rank in range(spec.keys):
            total += 1.0 / (rank + 1) ** spec.zipf_s
            cum_weights.append(total)
    schedule: List[Arrival] = []
    due = rng.expovariate(spec.rate_per_s)
    while due < duration_s:
        if cum_weights is None:
            key = keys[rng.randrange(spec.keys)]
        else:
            key = rng.choices(keys, cum_weights=cum_weights)[0]
        op = "put" if rng.random() < spec.write_fraction else "get"
        schedule.append(Arrival(due, rng.randrange(spec.sessions), op, key,
                                f"v{len(schedule)}"))
        due += rng.expovariate(spec.rate_per_s)
    return schedule


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failed requests) sort last."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def best(times: Sequence[float]) -> float:
    """The fastest of repeated timings of the same work.

    A shared virtual machine can run at a fast and a slow speed for tens of
    seconds at a time (on a 2-vCPU cloud VM a fixed pure-Python loop read
    about 40% slower in the slow state, process CPU time included), so a
    median follows the share of a run spent in each state.  Such noise only
    ever adds time, so the fastest repeat is the steadier estimate of what
    the program costs.
    """
    return min(times)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class RunResult:
    """What one workload run measured."""

    #: Operations the run attempted and how many failed (the result line's
    #: ``attempted``/``failed``).
    attempted: int
    failed: int
    #: Client requests issued.
    requests: int
    metrics: Dict[str, float]
    layers: Dict[str, float] = field(default_factory=dict)
    #: One-line human summary (printed to stderr).
    summary: str = ""
    #: Process CPU seconds the traced layers are measured against.
    cpu_s: float = 0.0


# ---------------------------------------------------------------------- #
# Socket cluster, open loop
# ---------------------------------------------------------------------- #
@dataclass
class _KvTally:
    """Measurements accumulated over the trials of one kv run."""

    #: Latency of every measured request (s; ``inf`` when it failed).
    latencies: List[float] = field(default_factory=list)
    lags: List[float] = field(default_factory=list)
    setups: List[float] = field(default_factory=list)
    requests: int = 0
    failed: int = 0
    cpu_s: float = 0.0
    window_wall_s: float = 0.0
    wall_s: float = 0.0
    counts: Optional[Dict[str, Any]] = None
    stats: Dict[str, float] = field(default_factory=dict)


def trial_plan(seconds: float) -> tuple:
    """(trials, measured seconds each, warm-up seconds each) for a run."""
    trials = max(1, round(seconds / TRIAL_S))
    each = seconds / trials
    return trials, each, min(WARMUP_S, each / 5.0)


async def _timed_build(spec: KvWorkload, socket_dir: str, setups: List[float]):
    """Build and start a cluster and its sessions, timing those calls.

    Each build starts from a freshly collected heap, so every build does the
    same collector work whatever ran before it.
    """
    os.makedirs(socket_dir)
    gc.collect()
    started = time.perf_counter()
    cluster = AsyncioCluster(create(spec.mechanism), server_ids=SERVER_IDS,
                             socket_dir=socket_dir,
                             anti_entropy_interval_ms=spec.anti_entropy_interval_ms)
    await cluster.start()
    sessions = [await cluster.client(f"s{index}") for index in range(spec.sessions)]
    setups.append(time.perf_counter() - started)
    return cluster, sessions


async def _run_kv(spec: KvWorkload, seed: int, seconds: float,
                  trace: Optional[LayerTrace], socket_root: str) -> _KvTally:
    trials, measured_s, warmup = trial_plan(seconds)
    tally = _KvTally()
    for trial in range(trials):
        for attempt in range(SETUP_REPEATS):
            cluster, _ = await _timed_build(
                spec, os.path.join(socket_root, f"setup{trial}.{attempt}"),
                tally.setups)
            await cluster.stop()
        schedule = build_schedule(spec, seed, warmup + measured_s, trial)
        cluster, sessions = await _timed_build(
            spec, os.path.join(socket_root, f"trial{trial}"), tally.setups)
        try:
            await _drive_trial(spec, schedule, warmup, measured_s, trace,
                               cluster, sessions, tally)
        finally:
            await cluster.stop()
        # The finished cluster is garbage now; collect it here rather than
        # inside the next trial's window.
        gc.collect()
    return tally


async def _drive_trial(spec, schedule, warmup, measured_s, trace,
                       cluster, sessions, tally: _KvTally) -> None:
    """Fire one trial's schedule open loop, drain it, and gate the result."""
    loop = asyncio.get_running_loop()
    latencies = tally.latencies
    pending = set()
    errors: List[BaseException] = []
    marks: Dict[str, Any] = {}
    drained = loop.create_future()
    window_closed = loop.create_future()
    wall_started = time.perf_counter()
    start = loop.time() + 0.01

    async def request(arrival: Arrival, due: float, measured: bool) -> None:
        client = sessions[arrival.session]
        if arrival.op == "put":
            result = await client.put(arrival.key, arrival.value)
        else:
            result = await client.get(arrival.key)
        if result is None:
            tally.failed += 1
        if measured:
            latencies.append(loop.time() - due if result is not None else math.inf)

    def finished(task: asyncio.Task) -> None:
        pending.discard(task)
        if task.exception() is not None:
            errors.append(task.exception())
        if not pending and "fired" in marks and not drained.done():
            drained.set_result(None)

    def fire(index: int) -> None:
        arrival = schedule[index]
        due = start + arrival.due_s
        measured = arrival.due_s >= warmup
        if measured:
            tally.lags.append(loop.time() - due)
        task = loop.create_task(request(arrival, due, measured))
        pending.add(task)
        task.add_done_callback(finished)
        if index + 1 < len(schedule):
            loop.call_at(start + schedule[index + 1].due_s, fire, index + 1)
        else:
            marks["fired"] = True

    def mark(name: str) -> None:
        marks[name] = (time.process_time(), time.perf_counter(),
                       trace.totals() if trace is not None else None)
        if name == "window_end":
            window_closed.set_result(None)

    loop.call_at(start + schedule[0].due_s, fire, 0)
    loop.call_at(start + warmup, mark, "window_start")
    loop.call_at(start + warmup + measured_s, mark, "window_end")
    await asyncio.wait_for(asyncio.gather(drained, window_closed),
                           timeout=warmup + measured_s + DRAIN_TIMEOUT_S)
    if errors:
        raise errors[0]
    await cluster.converge(timeout_s=DRAIN_TIMEOUT_S)
    verdict = correctness.check_cluster(cluster)
    tally.wall_s += time.perf_counter() - wall_started
    if verdict.total_lost_updates:
        raise GateError(f"{spec.name}: {verdict.total_lost_updates} lost updates")

    tally.requests += len(schedule)
    tally.cpu_s += marks["window_end"][0] - marks["window_start"][0]
    tally.window_wall_s += marks["window_end"][1] - marks["window_start"][1]
    if trace is not None:
        counts = window(marks["window_start"][2], marks["window_end"][2])
        tally.counts = counts if tally.counts is None else _add(tally.counts, counts)
        for name, value in cluster.metrics_snapshot().items():
            if name in RATIO_STATS:
                tally.stats[name] = tally.stats.get(name, 0) + value


def run_kv(name: str, seed: int, seconds: float,
           trace: Optional[LayerTrace] = None) -> RunResult:
    """One open-loop run of a socket workload (sockets under the cwd)."""
    spec = KV_WORKLOADS[name]
    socket_root = os.path.join(SOCKET_DIR, str(os.getpid()))
    os.makedirs(socket_root)
    codec_before = codec_stats()
    try:
        tally = asyncio.run(_run_kv(spec, seed, seconds, trace, socket_root))
    finally:
        shutil.rmtree(socket_root, ignore_errors=True)
        try:
            os.rmdir(SOCKET_DIR)
        except OSError:
            pass  # another run still uses it

    latencies = tally.latencies
    if percentile(latencies, 0.99) == math.inf:
        raise GateError(f"{name}: more than 1% of measured requests failed")
    metrics = {
        "p50_ms": percentile(latencies, 0.50) * 1000.0,
        "p99_ms": percentile(latencies, 0.99) * 1000.0,
        "cpu_us_per_op": tally.cpu_s * 1e6 / len(latencies),
        "wall_s": tally.wall_s,
        "setup_s": best(tally.setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    summary = (f"{name}: {trial_plan(seconds)[0]} trials, "
               f"{len(latencies)} measured requests of {tally.requests}, "
               f"{tally.failed} failed, p50 {metrics['p50_ms']:.2f} ms, "
               f"p99 {metrics['p99_ms']:.2f} ms, "
               f"{metrics['cpu_us_per_op']:.0f} us CPU/op, "
               f"fastest build {metrics['setup_s'] * 1000:.2f} ms")
    layers: Dict[str, float] = {}
    if trace is not None:
        layers = layer_metrics(trace, tally.counts, tally.cpu_s, len(latencies))
        layers.update(_ratios(tally.stats, codec_before))
        layers.update({
            "loop.lag_p99_ms": percentile(tally.lags, 0.99) * 1000.0,
            "loop.busy": tally.cpu_s / tally.window_wall_s,
            "requests.error_rate": tally.failed / tally.requests,
        })
    return RunResult(tally.requests, tally.failed, tally.requests, metrics,
                     layers, summary, tally.cpu_s)


#: Program counters the useful-versus-attempted ratios are made of.
RATIO_STATS = ("merkle.partitions_differing", "merkle.partitions_compared",
               "read_repair.replicas_repaired", "read_repair.reads_checked")


def _ratios(snapshot: Dict[str, Any], codec_before: Dict[str, int]) -> Dict[str, float]:
    """Useful-versus-attempted ratios from the program's own counters."""

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    codec = codec_stats()
    hits = codec["encode_hits"] - codec_before["encode_hits"]
    misses = codec["encode_misses"] - codec_before["encode_misses"]
    return {
        "merkle.differing_ratio": ratio(snapshot.get("merkle.partitions_differing", 0),
                                        snapshot.get("merkle.partitions_compared", 0)),
        "read_repair.repaired_per_read": ratio(
            snapshot.get("read_repair.replicas_repaired", 0),
            snapshot.get("read_repair.reads_checked", 0)),
        "codec.encode_hit_ratio": ratio(hits, hits + misses),
    }


# ---------------------------------------------------------------------- #
# Simulated soak
# ---------------------------------------------------------------------- #
def soak_plan(seconds: float) -> tuple:
    """(scenario calls, simulated ms each) for a run of ``seconds``.

    One scenario call simulates 10 s and takes about 2 s of wall time; a run
    repeats the same call, and a shorter run simulates proportionally less.
    """
    return max(1, int(seconds // SOAK_CALL_S)), min(SOAK_SIM_MS, 3000.0 * seconds)


def run_soak(seed: int, seconds: float,
             trace: Optional[LayerTrace] = None) -> RunResult:
    """The ``soak`` churn scenario under dvvset, the same call repeated.

    Every call runs the scenario with the run's seed, so every call does the
    same work; the time metrics are the fastest call's (see ``best``).
    """
    runs, sim_ms = soak_plan(seconds)
    setups: List[float] = []
    arguments: List[tuple] = []
    original_init = SimulatedCluster.__init__

    def timed_init(self, *args, **kwargs) -> None:
        started = time.perf_counter()
        original_init(self, *args, **kwargs)
        setups.append(time.perf_counter() - started)
        arguments.append((args, kwargs))

    def extra_builds() -> None:
        """Build the scenario's cluster again (timed by ``timed_init``)."""
        args, kwargs = arguments[0]
        for _ in range(SETUP_REPEATS):
            gc.collect()
            SimulatedCluster(*args, **kwargs)
        arguments.clear()

    walls: List[float] = []
    cpus: List[float] = []
    outcomes = set()
    counts: Optional[Dict[str, Any]] = None
    codec_before = codec_stats()
    snapshots: List[Dict[str, Any]] = []
    SimulatedCluster.__init__ = timed_init
    try:
        for _ in range(runs):
            gc.collect()  # start every scenario from the same clean heap
            before = trace.totals() if trace is not None else None
            cpu_started = time.process_time()
            started = time.perf_counter()
            report = run_churn_scenario("soak", create("dvvset"),
                                        seed=seed, duration_ms=sim_ms)
            walls.append(time.perf_counter() - started)
            cpus.append(time.process_time() - cpu_started)
            if trace is not None:
                step = window(before, trace.totals())
                counts = step if counts is None else _add(counts, step)
            if not report.converged:
                raise GateError(f"sim_soak seed {seed}: replicas diverged")
            if report.lost_updates != 0:
                raise GateError(f"sim_soak seed {seed}: "
                                f"{report.lost_updates} lost updates")
            records = report.cluster.all_request_records()
            outcomes.add(tuple(record.latency_ms if record.ok else math.inf
                               for record in records))
            snapshots.append(report.cluster.metrics_snapshot())
            del report
            extra_builds()
    finally:
        SimulatedCluster.__init__ = original_init
    if len(outcomes) != 1:
        raise GateError(f"sim_soak seed {seed}: repeated calls served "
                        f"different requests")
    latencies = outcomes.pop()
    failed = sum(1 for latency in latencies if latency == math.inf)

    metrics = {
        # Simulated milliseconds: the latency the scenario's clients observe.
        "p50_ms": percentile(latencies, 0.50),
        "p99_ms": percentile(latencies, 0.99),
        "cpu_us_per_op": best(cpus) * 1e6 / len(latencies),
        "wall_s": best(walls),
        "setup_s": best(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    summary = (f"sim_soak: {runs} x {sim_ms / 1000:.0f} s simulated, "
               f"{len(latencies)} requests per call ({failed} failed under "
               f"injected faults), wall {metrics['wall_s']:.2f} s for the "
               f"fastest call, median {statistics.median(walls):.2f} s")
    requests = runs * len(latencies)
    layers: Dict[str, float] = {}
    if trace is not None:
        layers = layer_metrics(trace, counts, sum(cpus), requests)
        merged = {name: sum(snapshot.get(name, 0) for snapshot in snapshots)
                  for name in RATIO_STATS}
        layers.update(_ratios(merged, codec_before))
        layers.update({"loop.lag_p99_ms": 0.0, "loop.busy": 0.0,
                       "requests.error_rate": failed / len(latencies)})
    # The operation this workload attempts is the scenario; its client
    # requests failing during injected crashes and WAN cuts is part of the
    # scenario, judged by the convergence and lost-update gate above.
    return RunResult(runs, 0, requests, metrics, layers, summary, sum(cpus))


def _add(left: Dict[str, Any], right: Dict[str, Any]) -> Dict[str, Any]:
    return {name: ({key: value + right[name][key] for key, value in value.items()}
                   if isinstance(value, dict) else value + right[name])
            for name, value in left.items()}


def run_workload(name: str, seed: int, seconds: float,
                 trace: Optional[LayerTrace] = None) -> RunResult:
    """Run one named workload; raises :class:`GateError` on a failed gate."""
    if name == "sim_soak":
        return run_soak(seed, seconds, trace)
    if name not in KV_WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    return run_kv(name, seed, seconds, trace)


def run_traced(name: str, seed: int, seconds: float) -> RunResult:
    """The per-layer run: an untraced pass, then the same inputs traced.

    The traced pass gives every layer metric; comparing its CPU per request
    with the untraced pass gives ``trace.overhead``.  The untraced pass also
    gives ``latency.p99_ms``: the tail is reported here, without a bound,
    because run to run it moves far more than any bound the benchmark may
    set (see ``TRIAL_S``).
    """
    plain = run_workload(name, seed, seconds)
    with LayerTrace() as trace:
        traced = run_workload(name, seed, seconds, trace)
    traced.layers["trace.overhead"] = (traced.metrics["cpu_us_per_op"]
                                       / plain.metrics["cpu_us_per_op"] - 1.0)
    traced.layers["latency.p99_ms"] = plain.metrics["p99_ms"]
    top = ", ".join(f"{layer} {share:.1%}"
                    for layer, share in top_layers(traced.layers))
    traced.summary += (f"; top layers by self time: {top}; unattributed "
                       f"{traced.layers['unattributed.share']:.1%}")
    return traced
