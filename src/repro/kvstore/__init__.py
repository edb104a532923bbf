"""The replicated multi-version key-value store (simulated Dynamo/Riak substrate).

Two store frontends share the same replica-local machinery
(:class:`~repro.kvstore.server.StorageNode` + pluggable causality mechanism):

* :class:`~repro.kvstore.sync_store.SyncReplicatedStore` — synchronous, exact
  control over interleavings; used by the Figure 1 scenario and the
  correctness / metadata experiments.
* :class:`~repro.kvstore.simulated.SimulatedCluster` — message-passing over
  the discrete-event network simulator with quorums, read repair and
  anti-entropy; used by the latency experiment and the integration tests.

The message protocol itself lives in :mod:`repro.kvstore.protocol` as
transport-agnostic state machines.  :class:`~repro.kvstore.host.ClusterHost`
hosts them — ring, placement, env, server and client shells, daemons,
metrics — for both the simulator and
:class:`~repro.kvstore.asyncio_cluster.AsyncioCluster`, which runs them over
real TCP/Unix-domain sockets for wall-clock benchmarking.
"""

from .anti_entropy import AntiEntropyDaemon, HintedHandoffDaemon
from .asyncio_cluster import AsyncClusterClient, AsyncioCluster
from .client import ClientSession, GetResult, PutResult
from .context import CausalContext
from .host import ClusterHost, HostedClient, HostedServer
from .merkle import (
    DiffStats,
    MerkleTree,
    bucket_path,
    diff_keys,
    key_fingerprint,
    state_fingerprint,
)
from .merkle_index import MerkleIndex, VnodeIndexSet
from .merge import (
    CallbackResolver,
    LastWriterWins,
    SiblingResolver,
    UnionMerge,
    resolve_and_writeback,
)
from .protocol import (
    DEADLINE_MODES,
    REQUEST_MODES,
    MerkleSyncStats,
    RequestRecord,
    default_value_size,
)
from .read_repair import ReadRepairStats, RepairPlan, plan_read_repair
from .server import Hint, StorageNode
from .simulated import SimulatedCluster
from .storage import NodeStorage, VnodeManager, VnodeStore
from .sync_store import SyncReplicatedStore
from .write_log import WriteLog, WriteRecord

__all__ = [
    "DEADLINE_MODES",
    "REQUEST_MODES",
    "AntiEntropyDaemon",
    "AsyncClusterClient",
    "AsyncioCluster",
    "CallbackResolver",
    "CausalContext",
    "ClientSession",
    "ClusterHost",
    "DiffStats",
    "GetResult",
    "Hint",
    "HintedHandoffDaemon",
    "HostedClient",
    "HostedServer",
    "LastWriterWins",
    "MerkleIndex",
    "MerkleSyncStats",
    "MerkleTree",
    "NodeStorage",
    "PutResult",
    "ReadRepairStats",
    "RepairPlan",
    "RequestRecord",
    "SiblingResolver",
    "SimulatedCluster",
    "StorageNode",
    "SyncReplicatedStore",
    "UnionMerge",
    "VnodeIndexSet",
    "VnodeManager",
    "VnodeStore",
    "WriteLog",
    "WriteRecord",
    "bucket_path",
    "default_value_size",
    "diff_keys",
    "key_fingerprint",
    "plan_read_repair",
    "resolve_and_writeback",
    "state_fingerprint",
]
