"""End-to-end benchmark of the replicated store, with a per-layer trace.

Run one workload from the root of a checkout::

    python3 storebench/run.py --workload kv_uniform --seed 1 --seconds 30 --trace 0

``BENCHMARK.json`` at the repository root lists the workloads and metrics;
:mod:`storebench.workloads` defines the workloads and
:mod:`storebench.layers` the trace.

End-to-end metrics (``--trace 0``, nothing wrapped):

``p50_ms``
    kv workloads: median request latency from the moment the request was
    *due* (open loop), over every measured request of the run; a failed
    request counts as infinitely late.  sim_soak: the median latency the
    scenario's clients observe, in simulated milliseconds (a function of the
    seed and the protocol, so it moves only when behaviour changes).  The
    99th percentile, timed the same way, is ``latency.p99_ms`` of the traced
    run: it varies too much from run to run to carry a bound.
``cpu_us_per_op``
    Process CPU time over the measured windows divided by the requests in
    them: servers, clients, daemons and the collector together.  One event
    loop runs out of CPU at about 1/this requests per second.  sim_soak
    repeats one scenario call and reports the call that used the least CPU.
``wall_s``
    kv workloads: wall time from each trial's first arrival to its verified
    convergence, summed.  sim_soak: wall time of one scenario call,
    convergence and oracle verdict included; every call of a run repeats the
    same seeded scenario, and the fastest is reported.
``setup_s``
    Time to build and start a cluster (and, for kv, its client sessions):
    the fastest of every cluster the run builds, from a collected heap each
    time.  kv builds seven clusters before each trial's load and sim_soak
    builds the scenario's cluster six more times after each call, so the
    builds sample the whole run.

Repeats of the same work report their fastest time because a shared host's
speed drifts for tens of seconds at a time and only ever adds time (see
:func:`storebench.workloads.best`).
``peak_rss_mb``
    Peak resident set size of the process.

Every run must pass the correctness gate (replicas converge, the write-log
oracle finds no lost update) or it exits non-zero without a result.

Per-layer metrics (``--trace 1``): ``<layer>.calls``, ``<layer>.self_ms``
and ``<layer>.share`` (self time over process CPU) for each layer in
:data:`storebench.layers.LAYER_NAMES`, plus ratios measured where the work
happens.  What each layer should move, and where:

* ``wire.encode``/``wire.decode`` (``wire.decode.us_per_call``,
  ``wire.bytes_per_op``): ``cpu_us_per_op`` and ``p50_ms`` on both kv
  workloads; nothing on sim_soak, which never encodes a frame.
* ``transport.send`` (``transport.frames_per_op``): ``p50_ms`` and
  ``cpu_us_per_op`` on kv_uniform; nothing on sim_soak.
* ``protocol.node``/``protocol.client`` (``protocol.messages_per_op``):
  ``cpu_us_per_op`` on kv_uniform, ``wall_s`` on sim_soak.
* ``storage`` (``storage.siblings_per_read``): ``cpu_us_per_op`` on
  kv_hot_key; small on kv_uniform.
* ``merkle.snapshot``/``merkle.flush``/``merkle.update``
  (``merkle.snapshot.max_ms``, ``merkle.differing_ratio``): ``wall_s`` on
  sim_soak, ``latency.p99_ms`` and ``cpu_us_per_op`` on kv_hot_key;
  nothing on kv_uniform.
* ``placement``, ``oracle``, ``sim``: ``wall_s`` on sim_soak only.
* ``gc`` (``gc.pause_ms``, ``gc.gen2.*``): ``latency.p99_ms`` on both kv
  workloads and ``peak_rss_mb`` everywhere.
* ``loop.lag_p99_ms`` (how late the generator fired) and ``loop.busy``: the
  stalls ``latency.p99_ms`` inherits.
* ``unattributed.share`` is CPU no wrapped layer claimed (asyncio internals,
  the load generator); ``trace.overhead`` is traced over untraced CPU per
  request, minus one.
"""
