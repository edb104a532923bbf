"""Per-layer CPU attribution for a traced benchmark run.

:class:`LayerTrace` wraps the public entry points of each layer of the store
from the outside — nothing in ``repro`` knows it is being measured — and
keeps, per layer, a call count and the *self* time: a span's duration minus
the part covered by nested spans of other layers.  Spans live on one stack
(everything runs on one thread), totals stay in memory, and the caller reads
them when the run ends.

Garbage-collector pauses are charged to the ``gc`` layer and subtracted from
whichever span they interrupted, so a gen-2 collection that happens to fire
inside a Merkle snapshot does not show up as Merkle cost.

Install the trace **before** building any cluster: ``MerkleIndex`` binds its
``on_state_changed`` method as a storage listener when it is attached, so a
later patch of the class would never see those calls.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis import correctness
from repro.cluster.preference_list import PlacementService
from repro.kvstore.merkle_index import MerkleIndex
from repro.kvstore.protocol.client import ClientProtocol
from repro.kvstore.protocol.node import ProtocolNode
from repro.kvstore.server import StorageNode
from repro.network import wire
from repro.network.asyncio_transport import AsyncioEndpoint
from repro.network.simulator import Simulation

#: Layer name → the (owner, attribute) pairs whose calls it covers.  The wire
#: codec is wrapped at ``encode_message``/``decode_message``: the socket
#: transport imports ``frame_message``/``read_message`` by name, and those
#: look the two codec functions up in the module on every call.
LAYERS: Dict[str, Tuple[Tuple[Any, str], ...]] = {
    "wire.encode": ((wire, "encode_message"),),
    "wire.decode": ((wire, "decode_message"),),
    "transport.send": ((AsyncioEndpoint, "send"),),
    "protocol.node": ((ProtocolNode, "on_message"), (ProtocolNode, "on_timer"),
                      (ProtocolNode, "start_merkle_sync_with"),
                      (ProtocolNode, "replay_hints")),
    "protocol.client": ((ClientProtocol, "on_message"),
                        (ClientProtocol, "on_timer"),
                        (ClientProtocol, "get"), (ClientProtocol, "put")),
    # The protocol machines read through ``state_of``; ``local_read`` is the
    # synchronous store's path.
    "storage": ((StorageNode, "state_of"), (StorageNode, "local_read"),
                (StorageNode, "local_write"), (StorageNode, "local_merge"),
                (StorageNode, "ingest_handoff")),
    "merkle.snapshot": ((MerkleIndex, "snapshot"),),
    "merkle.flush": ((MerkleIndex, "flush"),),
    "merkle.update": ((MerkleIndex, "on_state_changed"),),
    "placement": ((PlacementService, "primary_replicas"),
                  (PlacementService, "extended_preference_list")),
    "oracle": ((correctness, "check_cluster"),),
    "sim": ((Simulation, "step"),),
}

#: Every layer the trace reports, the collector included.
LAYER_NAMES: Tuple[str, ...] = tuple(LAYERS) + ("gc",)


class _Frame:
    __slots__ = ("layer", "start", "children")

    def __init__(self, layer: str, start: int) -> None:
        self.layer = layer
        self.start = start
        self.children = 0


class LayerTrace:
    """Span-stack accounting of self time per layer (a context manager).

    ``with LayerTrace() as trace:`` patches every entry point in
    :data:`LAYERS` and registers a ``gc.callbacks`` hook; leaving the block
    restores the originals.  :meth:`totals` returns a copy of the counters,
    so a caller can difference two reads to measure a window.
    """

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {name: 0 for name in LAYER_NAMES}
        self.self_ns: Dict[str, int] = {name: 0 for name in LAYER_NAMES}
        #: Longest self time of a single span per layer over the whole
        #: trace, in ns (collector pauses inside it excluded).
        self.max_ns: Dict[str, int] = {name: 0 for name in LAYER_NAMES}
        #: Bytes of every encoded message body (frames add a 4-byte prefix).
        self.encoded_bytes = 0
        #: Messages handed to the server-side protocol machines.
        self.node_messages = 0
        #: Storage reads (``state_of``/``local_read``) and the siblings they held.
        self.reads = 0
        self.siblings_read = 0
        self.gen2_collections = 0
        self.gen2_max_ns = 0
        self._stack: List[_Frame] = []
        self._gc_started: Optional[Tuple[int, int]] = None
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "LayerTrace":
        try:
            for layer, targets in LAYERS.items():
                for owner, attribute in targets:
                    original = owner.__dict__[attribute]
                    setattr(owner, attribute, self._wrap(
                        layer, original, self._after_call(owner, attribute)))
                    self._patched.append((owner, attribute, original))
        except KeyError:
            self._restore()
            raise
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._on_gc)
        self._restore()

    def _restore(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def _wrap(self, layer: str, function: Callable,
              after: Optional[Callable]) -> Callable:
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = _Frame(layer, clock())
            stack.append(frame)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(stack.pop(), clock())
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = function
        return traced

    def _after_call(self, owner: Any, attribute: str) -> Optional[Callable]:
        """Counting done outside the span, so it costs the trace, not a layer."""
        if owner is ProtocolNode and attribute == "on_message":
            def count_message(args, effects) -> None:
                self.node_messages += 1
            return count_message
        if attribute == "encode_message":
            def count_bytes(args, body) -> None:
                self.encoded_bytes += len(body)
            return count_bytes
        if attribute == "state_of":
            def count_siblings(args, state) -> None:
                self.reads += 1
                self.siblings_read += len(args[0].mechanism.siblings(state))
            return count_siblings
        if attribute == "local_read":
            def count_read_siblings(args, result) -> None:
                self.reads += 1
                self.siblings_read += len(result.siblings)
            return count_read_siblings
        return None

    def _close(self, frame: _Frame, end: int) -> None:
        duration = end - frame.start
        own = duration - frame.children
        layer = frame.layer
        self.calls[layer] += 1
        self.self_ns[layer] += own
        if own > self.max_ns[layer]:
            self.max_ns[layer] = own
        if self._stack:
            self._stack[-1].children += duration

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        now = time.perf_counter_ns()
        if phase == "start":
            self._gc_started = (now, info["generation"])
            return
        if self._gc_started is None:
            return
        started, generation = self._gc_started
        self._gc_started = None
        pause = now - started
        self.calls["gc"] += 1
        self.self_ns["gc"] += pause
        if generation == 2:
            self.gen2_collections += 1
            self.gen2_max_ns = max(self.gen2_max_ns, pause)
        if self._stack:
            self._stack[-1].children += pause

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def totals(self) -> Dict[str, Any]:
        """A copy of every counter (differences of two reads give a window)."""
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "encoded_bytes": self.encoded_bytes,
            "node_messages": self.node_messages,
            "reads": self.reads,
            "siblings_read": self.siblings_read,
            "gen2_collections": self.gen2_collections,
        }


def window(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    """Counters accumulated between two :meth:`LayerTrace.totals` reads."""
    out: Dict[str, Any] = {}
    for name, value in after.items():
        if isinstance(value, dict):
            out[name] = {key: value[key] - before[name][key] for key in value}
        else:
            out[name] = value - before[name]
    return out


def layer_metrics(trace: LayerTrace, counts: Dict[str, Any],
                  cpu_s: float, requests: int) -> Dict[str, float]:
    """Flatten a window of counters into the benchmark's per-layer metrics.

    ``cpu_s`` is the process CPU time of the same window; every layer's
    share is its self time over it, and whatever no layer claimed is
    reported as ``unattributed`` (asyncio internals, the load generator,
    interpreter overhead) rather than dropped.
    """
    cpu_ms = cpu_s * 1000.0
    metrics: Dict[str, float] = {}
    attributed_ms = 0.0
    for layer in LAYER_NAMES:
        self_ms = counts["self_ns"][layer] / 1e6
        attributed_ms += self_ms
        metrics[f"{layer}.calls"] = counts["calls"][layer]
        metrics[f"{layer}.self_ms"] = self_ms
        metrics[f"{layer}.share"] = self_ms / cpu_ms if cpu_ms else 0.0
    decodes = counts["calls"]["wire.decode"]
    reads = counts["reads"]
    per_op = 1.0 / requests if requests else 0.0
    metrics.update({
        "wire.decode.us_per_call": (metrics["wire.decode.self_ms"] * 1000.0 / decodes
                                    if decodes else 0.0),
        # Each frame on the socket is the encoded body plus a 4-byte prefix.
        "wire.bytes_per_op": (counts["encoded_bytes"]
                              + 4 * counts["calls"]["wire.encode"]) * per_op,
        "transport.frames_per_op": counts["calls"]["transport.send"] * per_op,
        "protocol.messages_per_op": counts["node_messages"] * per_op,
        "storage.siblings_per_read": counts["siblings_read"] / reads if reads else 0.0,
        "merkle.snapshot.max_ms": trace.max_ns["merkle.snapshot"] / 1e6,
        "gc.pause_ms": metrics["gc.self_ms"],
        "gc.gen2.collections": counts["gen2_collections"],
        "gc.gen2.max_ms": trace.gen2_max_ns / 1e6,
        "unattributed.ms": cpu_ms - attributed_ms,
        "unattributed.share": (cpu_ms - attributed_ms) / cpu_ms if cpu_ms else 0.0,
    })
    return metrics


def top_layers(metrics: Dict[str, float], count: int = 3) -> List[Tuple[str, float]]:
    """The ``count`` layers with the largest self time, with their shares."""
    ranked = sorted(LAYER_NAMES, key=lambda layer: metrics[f"{layer}.self_ms"],
                    reverse=True)
    return [(layer, metrics[f"{layer}.share"]) for layer in ranked[:count]]
