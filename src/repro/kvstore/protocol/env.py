"""The environment contract between protocol state machines and a backend.

A :class:`ProtocolEnv` bundles everything a state machine may consult that is
*not* part of its own state: cluster configuration (quorums, timeouts, batch
sizes), shared services (placement, the ground-truth write log, cluster-wide
sync statistics) and the two oracle queries that differ per backend
(``can_reach`` — the failure-detector view used by membership-mode
coordination and hint replay — and ``is_registered`` — "is this process still
alive", used to drop queued work after a simulated crash).

The shared :class:`~repro.kvstore.host.ClusterHost` builds one
:class:`StaticProtocolEnv` per cluster and hands the same object to every
hosted machine.  The simulator replaces the two oracles with its own
failure-detector view; the asyncio backend keeps the permissive defaults.
A test that changes a knob mid-run assigns to the cluster's ``env``.

State machines only ever *read* the env.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ...obs.trace import NO_TRACER

#: How coordinators decide whom to contact: consult the membership view's
#: failure detector ("membership", the default), or fan out with per-replica
#: deadlines and sloppy-quorum fallbacks ("async").
REQUEST_MODES = ("membership", "async")

#: How async-mode per-replica deadlines are chosen: one fixed timeout
#: ("fixed"), or an EWMA of each replica's observed ack latency, clamped to a
#: floor/ceiling ("adaptive").
DEADLINE_MODES = ("fixed", "adaptive")


@dataclass
class StaticProtocolEnv:
    """The plain-value env every hosted machine reads.

    The attribute set *is* the contract: anything here may be read by the
    state machines.
    """

    mechanism: Any
    quorum: Any
    placement: Any
    write_log: Any
    merkle_stats: Any

    request_mode: str = "async"
    replica_timeout_ms: float = 10.0
    request_timeout_ms: float = 50.0
    client_timeout_ms: float = 75.0
    sync_batch_size: int = 16
    merkle_fanout: int = 16
    merkle_depth: int = 2
    read_repair_batch_ms: float = 2.0
    deadline_mode: str = "fixed"
    deadline_floor_ms: float = 2.0
    deadline_ceiling_ms: float = 10.0
    request_overhead_bytes: int = 64
    hinted_handoff_enabled: bool = True
    hint_backoff_multiplier: float = 6.0

    #: Failure-detector view (membership-mode coordination, hint replay
    #: eligibility).  Real-network backends default to "assume reachable and
    #: let deadlines decide", which is exactly Dynamo's stance.
    can_reach: Callable[[str, str], bool] = field(default=lambda s, t: True)
    #: Liveness of a local process (simulated crashes drop queued work).
    is_registered: Callable[[str], bool] = field(default=lambda n: True)
    #: Span emitter for per-request tracing (see :mod:`repro.obs.trace`).
    #: The default null tracer makes every instrumented path a single
    #: ``tracer.enabled`` check; span events go straight to the tracer's
    #: sink, never through the effect system, so tracing cannot perturb
    #: protocol behaviour.
    tracer: Any = NO_TRACER
