"""The closed-loop driver: one client issues each op after the previous
one returns, timing each ``apply`` with ``perf_counter``.

Between ops, about every ``CALIBRATION_PERIOD_S``, the driver also times
a fixed slice of pure-Python work.  This shared machine's speed drifts
by 20-40% within and between runs; the slice drifts with it, so a time
scaled by the slices taken around it compares across runs (see
README.md).
"""

from __future__ import annotations

import statistics
import time
import zlib
from dataclasses import dataclass, field

from perfbench.workloads import Mounted


def digest(outcome) -> object:
    """A compact, implementation-neutral fingerprint of one op's outcome.

    Read data is reduced to its length and CRC; stat results carry inode
    numbers and so are compared by the state check instead."""
    if outcome is None:
        return "raised"
    if outcome.errno is not None:
        return outcome.errno.name
    value = outcome.value
    if isinstance(value, bytes):
        return ("bytes", len(value), zlib.crc32(value))
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, list):
        return tuple(sorted(value))
    return "ok"


CALIBRATION_PERIOD_S = 0.02
#: Median slice time on the 2-core x86 VM the benchmark was tuned on:
#: scaled times read as if measured at that machine's usual speed.
CALIBRATION_REFERENCE_S = 250e-6

_CALIBRATION_PAYLOAD = bytes(range(256)) * 2


def calibration_slice() -> int:
    """Fixed work shaped like the op path: tuple-keyed dict updates,
    byte slicing and small allocations, all in the interpreter."""
    table: dict[tuple[int, int], int] = {}
    total = 0
    for i in range(400):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0) + 1
        chunk = _CALIBRATION_PAYLOAD[i & 255 : (i & 255) + 64]
        total += len(chunk) + chunk[0]
    return total


def time_calibration_slice() -> float:
    start = time.perf_counter()
    calibration_slice()
    return time.perf_counter() - start


def scale_to_reference(seconds: float, slices: list[float]) -> float:
    """``seconds`` as if measured at the reference speed, judged by the
    median of the calibration slices taken around it."""
    return seconds * CALIBRATION_REFERENCE_S / statistics.median(slices)


def _around(slices: list[float], mark: int) -> list[float]:
    """The calibration slices nearest an op that ran after ``mark`` of
    them: three before it and three after."""
    return slices[max(0, mark - 3) : mark + 3] or slices


@dataclass
class Segment:
    """What one stretch of the closed loop measured."""

    first: int  # index into the measured ops
    ops: int = 0
    # Per op, in order: (seconds, whether its base hit an injected
    # fault, calibration slices taken before it).
    timings: list[tuple[float, bool, int]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    user_bytes: int = 0  # bytes passed to write
    device_bytes: int = 0  # bytes the device wrote
    exhausted: bool = False  # ended because the pre-generated stream ran out
    calibrations: list[float] = field(default_factory=list)  # slice times, s

    def raw(self, faulted: bool) -> list[float]:
        """Latencies of the unfaulted (or faulted) ops as measured."""
        return [seconds for seconds, hit, _ in self.timings if hit == faulted]

    def scaled(self, faulted: bool) -> list[float]:
        """Latencies of the unfaulted (or faulted) ops at the reference
        speed, each scaled by the calibration slices around it."""
        slices = self.calibrations
        return [
            scale_to_reference(seconds, _around(slices, mark))
            for seconds, hit, mark in self.timings
            if hit == faulted
        ]

    def scaled_rate(self) -> float:
        """Ops per second of op time at the reference speed."""
        return self.ops / sum(self.scaled(False) + self.scaled(True))


class Driver:
    """Runs the measured stream on one mounted supervisor, segment by
    segment, keeping what the correctness gate needs."""

    def __init__(self, mounted: Mounted, measured_ops: list, on_op=None):
        self.mounted = mounted
        self.ops = measured_ops
        self.next = 0
        self.digests: list[object] = []
        self.faulted_total = 0
        # Called with each op's index before it runs (the tracer's
        # request identifier).
        self.on_op = on_op

    def run(self, max_ops: int | None = None, min_faulted: int | None = None, armed: bool = False) -> Segment:
        """Run until both limits are reached: ``max_ops`` ops in this
        segment, ``min_faulted`` faulted ops over the whole run."""
        fs = self.mounted.fs
        device = self.mounted.device
        injector = self.mounted.injector
        seqs = self.mounted.seqs
        ops = self.ops
        digests = self.digests
        on_op = self.on_op
        perf = time.perf_counter
        segment = Segment(first=self.next)
        injector.armed = armed
        writes_before = device.io_stats.writes
        index = self.next
        end = len(ops) if max_ops is None else min(len(ops), index + max_ops)
        faulted_total = self.faulted_total
        user_bytes = 0
        calibrations = segment.calibrations
        timings = segment.timings
        last_calibration = perf()
        while True:
            if (max_ops is None or index >= end) and (
                min_faulted is None or faulted_total >= min_faulted
            ):
                break
            if index >= len(ops):
                segment.exhausted = True
                break
            operation = ops[index]
            seqs.append(fs.seq + 1)
            fired = injector.fired
            if on_op is not None:
                on_op(index)
            t0 = perf()
            try:
                outcome = operation.apply(fs)
            except Exception as exc:  # counted, and the gate then names the divergence
                outcome = None
                segment.failures.append(f"op {index} {operation.describe()}: {exc!r}")
            t1 = perf()
            hit = injector.fired != fired
            faulted_total += hit
            timings.append((t1 - t0, hit, len(calibrations)))
            if t1 - last_calibration >= CALIBRATION_PERIOD_S:
                calibrations.append(time_calibration_slice())
                last_calibration = perf()
            digests.append(digest(outcome))
            if operation.name == "write":
                user_bytes += len(operation.args["data"])
            index += 1
        calibrations.append(time_calibration_slice())
        injector.armed = False
        segment.ops = index - self.next
        segment.user_bytes = user_bytes
        segment.device_bytes = (device.io_stats.writes - writes_before) * device.block_size
        self.next = index
        self.faulted_total = faulted_total
        return segment
