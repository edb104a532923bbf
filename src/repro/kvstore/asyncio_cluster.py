"""The asyncio backend: the same protocol machines over real sockets.

This is the "serves real traffic" counterpart of the deterministic simulator
in :mod:`repro.kvstore.simulated`.  Both host the exact same state machines
from :mod:`repro.kvstore.protocol` in the same server and client shells of
the shared :class:`~repro.kvstore.host.ClusterHost` — but here every message
crosses an actual TCP or Unix-domain socket through an
:class:`~repro.network.asyncio_transport.AsyncioEndpoint`, timers are
``loop.call_later``, the clock is the wall clock, and any number of clients
issue requests concurrently.

The cluster runs in ``request_mode="async"`` (Dynamo-style deadline-driven
coordination): there is no simulated membership oracle on a real network, so
reachability is decided by deadlines and sloppy-quorum fallbacks, which is
exactly what the async mode implements.  Anti-entropy and hint replay are
the simulator's daemons, scheduled with ``loop.call_later``.

Everything lives in one process (one event loop) — the point is real
concurrency, framing and wall-clock latency, not multi-host deployment — so
convergence checks read peer storage directly, the way the simulator's do.

Typical use::

    cluster = AsyncioCluster(create("dvv"), server_ids=("A", "B", "C"))
    async with cluster:
        client = await cluster.client("c1")
        await client.put("cart", "beer")
        result = await client.get("cart")
"""

from __future__ import annotations

import asyncio
import os
import tempfile
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..clocks.interface import CausalityMechanism
from ..cluster.preference_list import QuorumConfig
from ..cluster.ring import DEFAULT_PARTITION_COUNT
from ..cluster.topology import Topology
from ..core.exceptions import ConfigurationError
from ..network.asyncio_transport import Address, AsyncioEndpoint
from ..network.message import Message
from ..network.transport import TransportStats
from .client import GetResult, PutResult
from .host import ClusterHost, HostedClient


def _socket_name(node_id: str) -> str:
    """A filesystem-safe Unix socket name for a node id."""
    return node_id.replace(":", "_").replace("/", "_") + ".sock"


class UnixDirAddressBook:
    """Derives every node's socket path from one shared directory.

    Convention over registry: each participant listens at
    ``<dir>/<sanitized-id>.sock``, so any id is addressable without central
    bookkeeping — in particular clients started later, or in *other
    processes* (the CLI's ``connect`` command), whose existence the servers
    could not have known at start time.  Sending toward an id nobody has
    bound yet is simply a counted drop, like every unreachable receiver.
    """

    def __init__(self, directory: Optional[str]) -> None:
        self.directory = directory

    def __contains__(self, node_id: str) -> bool:
        return True

    def __getitem__(self, node_id: str) -> Address:
        return ("unix", os.path.join(self.directory, _socket_name(node_id)))


class _LoopScheduler:
    """The daemons' ``Simulation.schedule`` contract over ``call_later``."""

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop

    def schedule(self, delay_ms: float, callback: Callable[[], None],
                 label: str = "") -> asyncio.TimerHandle:
        return self._loop.call_later(delay_ms / 1000.0, callback)


class AsyncClusterClient(HostedClient):
    """A concurrent client of the asyncio cluster.

    The host's client shell with awaitable requests: :meth:`get` and
    :meth:`put` resolve when the reply arrives (or with ``None`` once the
    machine has exhausted its coordinator candidates).
    """

    async def get(self, key: str) -> Optional[GetResult]:
        """GET ``key``; resolves with the result, or ``None`` on failure."""
        future: "asyncio.Future[Optional[GetResult]]" = (
            asyncio.get_running_loop().create_future())
        super().get(key, lambda result: future.done() or future.set_result(result))
        return await future

    async def put(self, key: str, value: Any,
                  use_context: bool = True) -> Optional[PutResult]:
        """PUT ``value`` under ``key``; resolves when acknowledged."""
        future: "asyncio.Future[Optional[PutResult]]" = (
            asyncio.get_running_loop().create_future())
        super().put(key, value,
                    lambda result: future.done() or future.set_result(result),
                    use_context=use_context)
        return await future

    async def start(self) -> None:
        await self.transport.start()

    async def close(self) -> None:
        self.runner.cancel_all()
        await self.transport.close()


class AsyncioCluster(ClusterHost):
    """A running cluster over real sockets, one event loop, many clients.

    Parameters mirror the simulator's where they mean the same thing; the
    transport knobs (latency models, loss, partitions) do not exist here —
    the network is whatever the kernel provides.

    ``transport="unix"`` (default) listens on Unix-domain sockets under
    ``socket_dir`` (a fresh temp dir when omitted); ``transport="tcp"``
    listens on ``host`` with consecutive ports from ``base_port``.
    """

    client_class = AsyncClusterClient
    #: No failure detector on a real network: deadlines and sloppy-quorum
    #: fallbacks decide reachability.
    sloppy_by_default = True

    def __init__(self,
                 mechanism: CausalityMechanism,
                 server_ids: Sequence[str] = ("A", "B", "C"),
                 quorum: Optional[QuorumConfig] = None,
                 transport: str = "unix",
                 socket_dir: Optional[str] = None,
                 host: str = "127.0.0.1",
                 base_port: int = 0,
                 anti_entropy_interval_ms: Optional[float] = 100.0,
                 hint_replay_interval_ms: Optional[float] = 50.0,
                 replica_timeout_ms: float = 250.0,
                 request_timeout_ms: float = 1000.0,
                 client_timeout_ms: Optional[float] = None,
                 deadline_mode: str = "fixed",
                 sync_batch_size: int = 16,
                 merkle_fanout: int = 16,
                 merkle_depth: int = 2,
                 merkle_maintenance: str = "incremental",
                 read_repair_batch_ms: float = 2.0,
                 virtual_nodes: int = 32,
                 partition_count: int = DEFAULT_PARTITION_COUNT,
                 request_overhead_bytes: int = 64,
                 topology: Optional[Topology] = None,
                 tracer: Optional[Any] = None) -> None:
        if transport not in ("unix", "tcp"):
            raise ConfigurationError(
                f"unknown transport {transport!r}; choose 'unix' or 'tcp'")
        if transport == "tcp" and base_port <= 0:
            raise ConfigurationError(
                "transport='tcp' needs an explicit base_port")
        self.transport_kind = transport
        self._owns_socket_dir = socket_dir is None
        self._host = host
        self._next_port = base_port
        #: node id → listen address: a plain dict filled as nodes are
        #: created for TCP; for unix a :class:`UnixDirAddressBook` whose
        #: directory is fixed at :meth:`start` when none was given.
        self.address_book: Any = (UnixDirAddressBook(socket_dir)
                                  if transport == "unix" else {})
        self._started = False
        #: Metrics captured at shutdown, after the daemons stopped but
        #: before the transports closed — without it, stats accumulated by
        #: the anti-entropy and hint-replay daemons' last in-flight work
        #: would be unreadable once the endpoints are gone.
        self._final_snapshot: Optional[Dict[str, Any]] = None
        super().__init__(
            mechanism, server_ids, quorum,
            anti_entropy_interval_ms=anti_entropy_interval_ms,
            anti_entropy_strategy="merkle",
            hint_replay_interval_ms=hint_replay_interval_ms,
            request_mode="async",
            replica_timeout_ms=replica_timeout_ms,
            request_timeout_ms=request_timeout_ms,
            client_timeout_ms=client_timeout_ms,
            sync_batch_size=sync_batch_size,
            merkle_fanout=merkle_fanout,
            merkle_depth=merkle_depth,
            merkle_maintenance=merkle_maintenance,
            read_repair_batch_ms=read_repair_batch_ms,
            deadline_mode=deadline_mode,
            deadline_floor_ms=replica_timeout_ms / 5.0,
            deadline_ceiling_ms=replica_timeout_ms,
            virtual_nodes=virtual_nodes,
            partition_count=partition_count,
            request_overhead_bytes=request_overhead_bytes,
            topology=topology,
            tracer=tracer,
        )

    # ------------------------------------------------------------------ #
    # Backend hooks
    # ------------------------------------------------------------------ #
    def _transport_for(self, node_id: str,
                       handler: Callable[[Message], None]) -> AsyncioEndpoint:
        if self.transport_kind == "tcp" and node_id not in self.address_book:
            self.address_book[node_id] = ("tcp", self._host, self._next_port)
            self._next_port += 1
        return AsyncioEndpoint(node_id, self.address_book, handler=handler)

    def transport_stats(self) -> List[TransportStats]:
        # One endpoint per node; each message is counted once as sent (by
        # its sender) and once as delivered (by its receiver), so the sum is
        # the cluster total, like the simulator's single shared transport.
        return ([server.transport.stats for server in self.servers.values()]
                + [client.transport.stats for client in self.clients.values()])

    @property
    def socket_dir(self) -> Optional[str]:
        """Directory of the Unix-domain sockets (None before a unix start)."""
        if self.transport_kind != "unix":
            return None
        return self.address_book.directory

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind every server's listener and start the background daemons."""
        if self._started:
            return
        if self._final_snapshot is not None:
            raise ConfigurationError("a stopped AsyncioCluster cannot restart")
        if self.transport_kind == "unix" and self.address_book.directory is None:
            self.address_book.directory = tempfile.mkdtemp(prefix="repro-cluster-")
        for server in self.servers.values():
            await server.transport.start()
        self._start_daemons(_LoopScheduler(asyncio.get_running_loop()))
        self._started = True

    async def stop(self) -> None:
        """Stop daemons, close every endpoint, remove Unix sockets."""
        self._stop_daemons()
        # Flush the final metrics while every endpoint's stats object is
        # still alive: the daemons have stopped, so the counters are
        # complete, and snapshots taken after shutdown stay meaningful.
        self._final_snapshot = self.metrics_registry().snapshot()
        for client in self.clients.values():
            await client.close()
        for server in self.servers.values():
            server.runner.cancel_all()
            await server.transport.close()
        directory = self.socket_dir
        if self._owns_socket_dir and directory is not None:
            for name in os.listdir(directory):
                try:
                    os.unlink(os.path.join(directory, name))
                except OSError:
                    pass
            try:
                os.rmdir(directory)
            except OSError:
                pass
        self._started = False

    async def __aenter__(self) -> "AsyncioCluster":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def client(self, client_id: str) -> AsyncClusterClient:
        """Create (and start) the client node with the given id."""
        if client_id in self.clients:
            return self.clients[client_id]
        client = self._add_client(client_id)
        await client.start()
        return client

    # ------------------------------------------------------------------ #
    # Convergence and metrics (in-process verification helpers)
    # ------------------------------------------------------------------ #
    async def converge(self, timeout_s: float = 30.0,
                       poll_s: float = 0.05) -> float:
        """Wait until anti-entropy has converged every replica; returns the
        wall-clock seconds it took.  Raises ``TimeoutError`` on expiry."""
        loop = asyncio.get_running_loop()
        started = loop.time()
        deadline = started + timeout_s
        while True:
            if self.is_converged():
                return loop.time() - started
            if loop.time() >= deadline:
                raise TimeoutError(
                    f"cluster did not converge within {timeout_s}s")
            await asyncio.sleep(poll_s)

    def metrics_snapshot(self) -> Dict[str, Any]:
        """One flat, stable, JSON-serializable view of every cluster stat.

        After :meth:`stop` this returns the snapshot captured at shutdown
        (daemons drained, transports still open), so no daemon work from the
        final interval is lost.
        """
        if self._final_snapshot is not None:
            return dict(self._final_snapshot)
        return super().metrics_snapshot()
