"""Client behaviour drivers for the simulated (message-passing) cluster.

The synchronous store replays :class:`~repro.workloads.traces.Trace` objects;
the simulated cluster instead needs *drivers* — objects that issue a request,
wait for its reply (an event-loop callback), think for a while, and issue the
next one.  The closed-loop read-modify-write driver below is the workload the
latency experiment (E4) uses: it is the access pattern the paper's Riak
evaluation models (clients updating objects they previously fetched).

Two knobs turn the uniform loop into the paper's Figure-1 story at scale:
``zipf_s`` skews key choice toward a hot key, and ``stale_write_fraction``
makes some writes reuse the context of an *earlier* read instead of reading
fresh — exactly the stale-context overwrite that produces concurrent
siblings when several clients race on the same key.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.exceptions import ConfigurationError
from ..kvstore.host import HostedClient
from ..kvstore.simulated import SimulatedCluster
from .generator import zipf_weights


def _stable_seed(client_id: str) -> int:
    """Deterministic fallback seed for a driver without an explicit one.

    ``hash(str)`` is randomised per process, which silently broke replay:
    the same scenario seeded differently on every run.  CRC32 is stable
    across processes and Python versions.
    """
    return zlib.crc32(client_id.encode("utf-8")) & 0xFFFF


@dataclass
class ClosedLoopConfig:
    """Parameters of a closed-loop read-modify-write client.

    Attributes
    ----------
    keys:
        The keys this client operates on.  Chosen uniformly per operation
        unless ``zipf_s`` > 0, in which case the choice is Zipfian with the
        *first* key the hottest.
    think_time_ms:
        Mean exponential think time between completing one operation and
        starting the next.
    write_fraction:
        Fraction of operations that are writes; a write is always preceded by
        the read whose context it uses (read-modify-write), unless
        ``blind_write_fraction`` or ``stale_write_fraction`` strikes.
    blind_write_fraction:
        Fraction of writes issued without a context (careless client).
    stale_write_fraction:
        Fraction of writes that skip the fresh read and reuse whatever
        context the client's session still holds from an earlier read of the
        key (stale client).  Only applies once the key has been read at
        least once.  This is the sibling driver: two clients writing from
        the same stale context are causally concurrent.
    zipf_s:
        Zipf skew exponent over ``keys`` (0 = uniform).
    stop_at_ms:
        Simulated time after which the driver stops issuing new operations.
    """

    keys: Sequence[str] = ("key-0",)
    think_time_ms: float = 5.0
    write_fraction: float = 0.5
    blind_write_fraction: float = 0.0
    stale_write_fraction: float = 0.0
    zipf_s: float = 0.0
    stop_at_ms: float = 1000.0

    def __post_init__(self) -> None:
        if not self.keys:
            raise ConfigurationError("closed-loop driver needs at least one key")
        if self.think_time_ms < 0:
            raise ConfigurationError("think time must be non-negative")
        if self.zipf_s < 0:
            raise ConfigurationError(f"zipf_s must be >= 0, got {self.zipf_s}")
        for name in ("write_fraction", "blind_write_fraction",
                     "stale_write_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")


class ClosedLoopClient:
    """A closed-loop read-modify-write driver over one simulated client."""

    def __init__(self,
                 cluster: SimulatedCluster,
                 client_id: str,
                 config: ClosedLoopConfig,
                 seed: Optional[int] = None) -> None:
        self.cluster = cluster
        self.client: HostedClient = cluster.client(client_id)
        self.config = config
        self._rng = random.Random(seed if seed is not None
                                  else _stable_seed(client_id))
        self._keys = list(config.keys)
        self._key_weights = (zipf_weights(len(self._keys), config.zipf_s)
                             if config.zipf_s > 0 else None)
        #: Keys this driver has read at least once — only those can be
        #: written from a stale context.
        self._has_context: set = set()
        self._operation_counter = 0
        self.operations_started = 0
        self._stopped = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self, initial_delay_ms: Optional[float] = None) -> None:
        """Schedule the driver's first operation."""
        delay = initial_delay_ms if initial_delay_ms is not None else self._think_time()
        self.cluster.simulation.schedule(delay, self._next_operation,
                                         label=f"client-loop:{self.client.client_id}")

    def stop(self) -> None:
        """Stop issuing new operations (in-flight ones still complete)."""
        self._stopped = True

    # ------------------------------------------------------------------ #
    # The loop
    # ------------------------------------------------------------------ #
    def _next_operation(self) -> None:
        if self._stopped or self.cluster.simulation.now >= self.config.stop_at_ms:
            return
        self.operations_started += 1
        key = self._pick_key()
        if self._rng.random() < self.config.write_fraction:
            self._read_modify_write(key)
        else:
            self._read(key)

    def _pick_key(self) -> str:
        if self._key_weights is not None:
            return self._rng.choices(self._keys, weights=self._key_weights, k=1)[0]
        return self._rng.choice(self._keys)

    def _read(self, key: str) -> None:
        def after_read(_result) -> None:
            self._has_context.add(key)
            self._after_operation()

        self.client.get(key, after_read)

    def _read_modify_write(self, key: str) -> None:
        self._operation_counter += 1
        value = f"{self.client.client_id}:v{self._operation_counter}"
        blind = self._rng.random() < self.config.blind_write_fraction

        if blind:
            self.client.put(key, value, lambda _result: self._after_operation(),
                            use_context=False)
            return

        stale = (key in self._has_context
                 and self._rng.random() < self.config.stale_write_fraction)
        if stale:
            # Reuse the session's last-read context without refreshing it:
            # concurrent with any write accepted since that read.
            self.client.put(key, value, lambda _result: self._after_operation())
            return

        def after_read(_result) -> None:
            self._has_context.add(key)
            self.client.put(key, value, lambda _r: self._after_operation())

        self.client.get(key, after_read)

    def _after_operation(self) -> None:
        if self._stopped:
            return
        self.cluster.simulation.schedule(self._think_time(), self._next_operation,
                                         label=f"client-loop:{self.client.client_id}")

    def _think_time(self) -> float:
        if self.config.think_time_ms == 0:
            return 0.0
        return self._rng.expovariate(1.0 / self.config.think_time_ms)


def run_closed_loop_workload(cluster: SimulatedCluster,
                             client_count: int,
                             config: ClosedLoopConfig,
                             drain: bool = True,
                             base_seed: int = 0) -> List[ClosedLoopClient]:
    """Start ``client_count`` closed-loop drivers and run the simulation.

    The simulation runs until ``config.stop_at_ms`` and then (when ``drain``)
    until every in-flight request and background task has completed.  Returns
    the drivers (whose underlying clients hold the request records).
    ``base_seed`` offsets every driver's RNG so a scenario seed fully
    determines the traffic (driver ``i`` gets ``base_seed + i``).
    """
    drivers = [
        ClosedLoopClient(cluster, f"client-{index}", config,
                         seed=base_seed + index)
        for index in range(client_count)
    ]
    for driver in drivers:
        driver.start(initial_delay_ms=driver._rng.uniform(0, config.think_time_ms or 1.0))
    cluster.run(until=config.stop_at_ms)
    for driver in drivers:
        driver.stop()
    if drain:
        cluster.drain()
    return drivers
