"""Tests of the benchmark itself, at tiny sizes.

The command-line runs go through ``run.py`` in a subprocess, exactly as the
benchmark is invoked, and check its output against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.network import wire
from storebench.layers import LAYER_NAMES, LayerTrace
from storebench.workloads import (KV_WORKLOADS, WORKLOADS, build_schedule,
                                  run_soak)

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "storebench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def test_benchmark_json_names_the_workloads():
    assert [workload["name"] for workload in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_emits_every_metric(workload, trace):
    completed = _run(workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared}
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_same_seed_same_schedule():
    for spec in KV_WORKLOADS.values():
        first = build_schedule(spec, 11, 5.0)
        assert first == build_schedule(spec, 11, 5.0)
        assert first != build_schedule(spec, 12, 5.0)
        # Poisson at the workload's rate: within 25% over 5 s.
        assert abs(len(first) - spec.rate_per_s * 5.0) < spec.rate_per_s * 5.0 * 0.25
        assert first != build_schedule(spec, 11, 5.0, trial=1)
        assert all(later.due_s > earlier.due_s
                   for earlier, later in zip(first, first[1:]))


def test_hot_key_takes_about_a_quarter_of_traffic():
    schedule = build_schedule(KV_WORKLOADS["kv_hot_key"], 5, 200.0)
    hottest = sum(1 for arrival in schedule if arrival.key == "key-0000")
    assert 0.18 < hottest / len(schedule) < 0.32


def test_same_seed_same_soak_requests():
    first, second = run_soak(4, 0.5), run_soak(4, 0.5)
    assert first.requests == second.requests > 0
    # Simulated latencies are a function of the seed alone.
    assert first.metrics["p50_ms"] == second.metrics["p50_ms"]
    assert first.metrics["p99_ms"] == second.metrics["p99_ms"]


def test_layer_self_times_add_up_to_process_cpu():
    original = wire.encode_message
    with LayerTrace() as trace:
        result = run_soak(4, 0.5, trace)
    assert wire.encode_message is original
    layers = result.layers
    self_ms = sum(layers[f"{layer}.self_ms"] for layer in LAYER_NAMES)
    cpu_ms = self_ms + layers["unattributed.ms"]
    assert cpu_ms == pytest.approx(result.cpu_s * 1000.0)
    # Nested spans are not double counted: the self times fit in the CPU the
    # process used (spans are wall time, so allow for descheduling), and the
    # simulator's layers cover most of it.
    assert 0.5 * cpu_ms < self_ms < 1.1 * cpu_ms
    assert sum(layers[f"{layer}.share"] for layer in LAYER_NAMES) == pytest.approx(
        self_ms / cpu_ms)


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "storebench", tmp_path / "storebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("kv_uniform", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout == ""
