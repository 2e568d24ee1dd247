"""Self-tests for the benchmark: determinism, attribution and the gate.

Run from the repository root:

    python3 -m pytest perfbench -q

They shrink the passes (few ops, few faulted ops) and inject
class-level slowdowns large enough to stand far above run-to-run noise.
``read_large`` is left out: its set-up alone takes seconds.
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from repro.basefs.filesystem import BaseFilesystem  # noqa: E402
from repro.basefs.writeback import WritebackDaemon  # noqa: E402
from repro.blockdev.device import MemoryBlockDevice  # noqa: E402
from repro.ondisk.bitmap import Bitmap  # noqa: E402

from perfbench.bench import timed_pass, traced_pass  # noqa: E402
from perfbench.tracer import LAYERS  # noqa: E402
from perfbench.workloads import WORKLOADS, make_stream  # noqa: E402

FAULT = WORKLOADS["fault_recovery"]
APPEND = WORKLOADS["append_fsync"]

#: Per-layer metrics that count work rather than time it.
COUNT_METRICS = (
    "core.oplog.records_per_op",
    "basefs.page_cache.hit_ratio",
    "basefs.page_cache.evictions_per_kop",
    "basefs.inode_cache.hit_ratio",
    "basefs.dentry_cache.hit_ratio",
    "blockdev.cache.hit_ratio",
    "basefs.writeback.commits_per_kop",
    "basefs.writeback.pressure_commit_share",
    "basefs.commit.calls_per_kop",
    "basefs.journal_mgr.blocks_per_commit",
    "blockdev.blkmq.submits_per_op",
    "blockdev.device.reads_per_op",
    "blockdev.device.writes_per_op",
    "blockdev.device.flushes_per_op",
    "core.recovery.count",
    "core.recovery.failures",
    "core.recovery.window_ops_mean",
)


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _small_traced(workload, seed=3, ops=600, faulted=12):
    result = traced_pass(workload, seed, ops / workload.nominal_rate, min_faulted=faulted)
    assert result.correct, result.problems
    return result


def test_benchmark_json_matches_what_the_passes_print():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    timed = timed_pass(FAULT, seed=5, seconds=0.2, min_faulted=10)
    assert timed.correct, timed.problems
    traced = _small_traced(FAULT, ops=300, faulted=5)
    assert [m["name"] for m in declared["end_to_end"]] == list(timed.metrics)
    assert [m["name"] for m in declared["per_layer"]] == list(traced.metrics)
    for metric in declared["end_to_end"] + declared["per_layer"]:
        produced = (timed.metrics | traced.metrics)[metric["name"]]
        assert produced.unit == metric["unit"], metric["name"]
    assert all(value.value > 0 for value in timed.metrics.values())


def test_counts_repeat_at_one_seed_and_the_seed_changes_the_stream():
    for workload in (FAULT, APPEND):
        first = _small_traced(workload)
        second = _small_traced(workload)
        for name in COUNT_METRICS:
            assert first.metrics[name].value == second.metrics[name].value, (workload.name, name)
    describe = lambda stream: [op.describe() for op in stream.prepopulate + stream.measured]  # noqa: E731
    assert describe(make_stream(APPEND, 1, 500)) == describe(make_stream(APPEND, 1, 500))
    assert describe(make_stream(APPEND, 1, 500)) != describe(make_stream(APPEND, 2, 500))


def test_flush_slowdown_is_attributed_to_the_device_layer_only(monkeypatch):
    delay = 400e-6
    base = _small_traced(APPEND, ops=1500)
    original = MemoryBlockDevice.flush

    def slow_flush(self):
        _spin(delay)
        return original(self)

    monkeypatch.setattr(MemoryBlockDevice, "flush", slow_flush)
    slow = _small_traced(APPEND, ops=1500)
    expected = slow.metrics["blockdev.device.flushes_per_op"].value * delay * 1e6
    grew = {
        layer: slow.layer_self_us_per_op[layer] - base.layer_self_us_per_op[layer]
        for layer in LAYERS
    }
    assert grew["blockdev.device"] > 0.8 * expected, grew
    for layer in LAYERS:
        if layer != "blockdev.device":
            assert grew[layer] < 0.2 * grew["blockdev.device"], (layer, grew)


def test_find_free_slowdown_moves_replay_and_faulted_latency(monkeypatch):
    per_bit = 5e-6
    base_fault = timed_pass(FAULT, seed=4, seconds=0.5, min_faulted=40)
    base_append = timed_pass(APPEND, seed=4, seconds=1.0, min_faulted=10)
    base_trace = _small_traced(FAULT, seed=4, ops=600, faulted=20)
    original = Bitmap.find_free

    def slow_find_free(self, start=0):
        bit = original(self, start)
        if bit is not None:  # cost grows with the bits scanned
            _spin(((bit - start) % self.nbits + 1) * per_bit)
        return bit

    monkeypatch.setattr(Bitmap, "find_free", slow_find_free)
    slow_fault = timed_pass(FAULT, seed=4, seconds=0.5, min_faulted=40)
    slow_append = timed_pass(APPEND, seed=4, seconds=1.0, min_faulted=10)
    slow_trace = _small_traced(FAULT, seed=4, ops=600, faulted=20)

    name = "ondisk.bitmap.find_free_us_per_replayed_op"
    assert slow_trace.metrics[name].value > 2 * base_trace.metrics[name].value
    assert slow_fault.metrics["faulted_op_p50_ms"].value > 1.3 * base_fault.metrics["faulted_op_p50_ms"].value
    # The base allocator searches from a rotor and finds a free bit at
    # once, so the common-case op path does not move.
    assert slow_append.metrics["op_p50_us"].value < 1.25 * base_append.metrics["op_p50_us"].value
    assert slow_fault.correct and slow_append.correct


def test_gate_names_a_wrong_read(monkeypatch):
    original = BaseFilesystem.read

    def corrupt_read(self, fd, length, opseq=0):
        data = original(self, fd, length, opseq)
        return bytes([data[0] ^ 0xFF]) + data[1:] if data else data

    monkeypatch.setattr(BaseFilesystem, "read", corrupt_read)
    result = timed_pass(FAULT, seed=6, seconds=0.2, min_faulted=5)
    assert not result.correct
    assert any("read" in problem and "spec gave" in problem for problem in result.problems)


def test_gate_catches_an_fsync_that_is_not_durable(monkeypatch):
    # fsync returns without committing, and write-back never commits.
    monkeypatch.setattr(BaseFilesystem, "fsync", lambda self, fd, opseq=0: None)
    monkeypatch.setattr(WritebackDaemon, "tick", lambda self: False)
    result = timed_pass(APPEND, seed=6, seconds=0.5, min_faulted=5)
    assert any("durability:" in problem for problem in result.problems), result.problems


def test_cli_rejects_unknown_workload():
    from perfbench import run

    with pytest.raises(SystemExit) as exit_info:
        run.main(["--workload", "nope", "--seed", "1", "--seconds", "1"])
    assert exit_info.value.code != 0
