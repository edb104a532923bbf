"""Run one workload of the store benchmark and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 storebench/run.py --workload kv_uniform --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the same inputs twice, untraced and then with every layer
wrapped, and reports the per-layer metrics plus ``trace.overhead``.  A
one-line summary goes to stderr; the last line of stdout is the result
object.  A run whose outputs fail the correctness gate exits with status 1
and prints no result.  The benchmark imports the store from ``src/`` of the
checkout it sits in, and exits with status 2 if that is missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

END_TO_END_UNITS = {"p50_ms": "ms", "cpu_us_per_op": "us", "wall_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics besides each layer's ``calls``/``self_ms``/``share``.
DERIVED_UNITS = {
    "latency.p99_ms": "ms",
    "wire.decode.us_per_call": "us",
    "wire.bytes_per_op": "bytes/op",
    "transport.frames_per_op": "1/op",
    "protocol.messages_per_op": "1/op",
    "storage.siblings_per_read": "1/read",
    "merkle.snapshot.max_ms": "ms",
    "merkle.differing_ratio": "ratio",
    "read_repair.repaired_per_read": "ratio",
    "codec.encode_hit_ratio": "ratio",
    "gc.pause_ms": "ms",
    "gc.gen2.collections": "count",
    "gc.gen2.max_ms": "ms",
    "loop.lag_p99_ms": "ms",
    "loop.busy": "ratio",
    "requests.error_rate": "ratio",
    "unattributed.ms": "ms",
    "unattributed.share": "ratio",
    "trace.overhead": "ratio",
}


def per_layer_units(layer_names) -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer in layer_names:
        units.update({f"{layer}.calls": "count", f"{layer}.self_ms": "ms",
                      f"{layer}.share": "ratio"})
    units.update(DERIVED_UNITS)
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"storebench: no store sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from storebench.layers import LAYER_NAMES
    from storebench.workloads import WORKLOADS, GateError, run_traced, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    try:
        if args.trace:
            result = run_traced(args.workload, args.seed, args.seconds)
            units = per_layer_units(LAYER_NAMES)
            metrics = {name: {"value": result.layers[name], "unit": unit}
                       for name, unit in units.items()}
        else:
            result = run_workload(args.workload, args.seed, args.seconds)
            metrics = {name: {"value": result.metrics[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
    except GateError as error:
        print(f"storebench: correctness gate failed: {error}", file=sys.stderr)
        return 1
    print(result.summary, file=sys.stderr)
    print(json.dumps({"correct": True, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
