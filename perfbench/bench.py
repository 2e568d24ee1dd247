"""The two passes of the benchmark.

* ``timed_pass`` — default ``RAEConfig``, no benchmark tracing.  Every
  end-to-end metric comes from here.
* ``traced_pass`` — the same ops under the span tracer, plus two untraced
  arms (default and all-observability-off) for the overhead fractions.
  Every per-layer metric comes from here.

Both run ``ROUNDS`` rounds, pool their measurements, and end each round
with the correctness gate (``perfbench.gate``).
"""

from __future__ import annotations

import gc
import math
import resource
import time
from dataclasses import dataclass, field

from perfbench import gate
from perfbench.driver import Driver, Segment, scale_to_reference, time_calibration_slice
from perfbench.tracer import LAYERS, SpanTracer
from perfbench.workloads import (
    MIN_FAULTED_OPS,
    Mounted,
    Stream,
    Workload,
    make_stream,
    obs_off_config,
    set_up,
    timed_ops,
)

#: A run pools this many rounds, each on a fresh mount with its own
#: sub-seed and its share of the ops and faulted ops: one odd stream then
#: moves a run's figures less.
ROUNDS = 3
#: Each round sets up until both hold (the last mount is measured);
#: ``setup_s`` is the median over all rounds.
SETUP_MIN_SECONDS_PER_ROUND = 0.7
SETUP_MAX_REPEATS_PER_ROUND = 15


@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    raw: float | None = None  # before scaling to the reference speed


@dataclass
class Result:
    workload: str
    seed: int
    traced: bool
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, Metric] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    # traced pass only: self time of every layer, µs per op
    layer_self_us_per_op: dict[str, float] = field(default_factory=dict)
    calibrations: int = 0  # calibration slices the timed pass took

    @property
    def correct(self) -> bool:
        return not self.problems

    def add(self, name: str, value: float, unit: str, samples: int, raw: float | None = None) -> None:
        self.metrics[name] = Metric(float(value), unit, int(samples), raw)

    def add_time(self, name: str, scaled: list[float], raw: list[float], q: float, unit: str) -> None:
        """The ``q``-quantile of a time series, scaled to the reference
        speed, with the as-measured quantile alongside."""
        per_second = {"s": 1.0, "ms": 1e3, "us": 1e6}[unit]
        self.add(
            name, percentile(scaled, q) * per_second, unit, len(scaled),
            raw=percentile(raw, q) * per_second,
        )


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank q-quantile (0 < q <= 1); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# rounds


def round_seed(seed: int, index: int) -> int:
    """Sub-seed of one round: distinct for every (seed, round) pair."""
    return seed * ROUNDS + index


def _share(total: int) -> int:
    return math.ceil(total / ROUNDS)


def _calibrate(slices: list[float], count: int = 3) -> None:
    slices.extend(time_calibration_slice() for _ in range(count))


@dataclass
class Round:
    """One mount's worth of a run: the common segment, the fault segment
    (the same segment on ``fault_recovery``), and the gate's inputs."""

    stream: Stream
    driver: Driver
    common: Segment
    fault: Segment
    crash: tuple[bytes, int] | None

    @property
    def segments(self) -> list[Segment]:
        return [self.common] if self.fault is self.common else [self.common, self.fault]


def _common(workload: Workload, driver: Driver, ops: int, min_faulted: int) -> Segment:
    return driver.run(
        max_ops=ops,
        min_faulted=min_faulted if workload.faults_in_timed else None,
        armed=workload.faults_in_timed,
    )


def _measure(
    workload: Workload, stream, mounted: Mounted, ops: int, min_faulted: int,
    on_op=None, between=None,
) -> Round:
    """Run the common segment, then (on the probe workloads) the fault
    segment.  ``between`` runs after the common segment."""
    driver = Driver(mounted, stream.measured, on_op=on_op)
    common = _common(workload, driver, ops, min_faulted)
    crash = None
    if workload.track_durability:
        # What a power cut now would leave, for the durability check.
        crash = gate.durable_image(mounted.device), driver.next
    if between is not None:
        between()
    fault = common
    if not workload.faults_in_timed:
        fault = driver.run(min_faulted=min_faulted, armed=True)
    return Round(stream, driver, common, fault, crash)


def _gate_round(result: Result, workload: Workload, index: int, measured: Round) -> None:
    for label, segment in zip(("common", "fault"), measured.segments):
        result.attempted += segment.ops
        result.failed += len(segment.failures)
        result.problems.extend(f"round {index} {label}: {failure}" for failure in segment.failures[:5])
        if segment.exhausted:
            result.problems.append(f"round {index} {label}: the pre-generated stream ran out")
    problems = gate.check(workload, measured.stream, measured.driver, measured.crash)
    result.problems.extend(f"round {index}: {problem}" for problem in problems)


def _pooled_rate(segments: list[Segment]) -> float:
    """Ops per second of op time at the reference speed, over segments."""
    return sum(s.ops for s in segments) / sum(sum(s.scaled(False)) + sum(s.scaled(True)) for s in segments)


def _raw_rate(segments: list[Segment]) -> float:
    return sum(s.ops for s in segments) / sum(sum(s.raw(False)) + sum(s.raw(True)) for s in segments)


# ----------------------------------------------------------------------
# timed pass


def _set_up_repeatedly(workload: Workload, stream, raw: list[float], scaled: list[float]) -> Mounted:
    """Set up at least once and for ``SETUP_MIN_SECONDS_PER_ROUND``; the
    last mount is the one measured.  Appends each set-up's time as
    measured and scaled by the calibration slices just before and after."""
    slices: list[float] = []
    mounted = None
    spent = 0.0
    for repeat in range(SETUP_MAX_REPEATS_PER_ROUND):
        if repeat and spent >= SETUP_MIN_SECONDS_PER_ROUND:
            break
        mounted = None
        gc.collect()  # free the previous image before timing the next
        before = len(slices)
        _calibrate(slices)
        start = time.perf_counter()
        mounted = set_up(workload, stream)
        raw.append(time.perf_counter() - start)
        _calibrate(slices)
        scaled.append(scale_to_reference(raw[-1], slices[before:]))
        spent += raw[-1]
    return mounted


def timed_pass(
    workload: Workload, seed: int, seconds: float, min_faulted: int = MIN_FAULTED_OPS
) -> Result:
    """``min_faulted`` shrinks the pass for self-tests."""
    result = Result(workload.name, seed, traced=False)
    ops, faulted = _share(timed_ops(workload, seconds)), _share(min_faulted)
    setup_raw: list[float] = []
    setup_scaled: list[float] = []
    commons: list[Segment] = []
    segments: list[Segment] = []
    peak_rss_mb = 0.0
    for index in range(ROUNDS):
        stream = make_stream(workload, round_seed(seed, index), ops + workload.fault_allowance)
        mounted = _set_up_repeatedly(workload, stream, setup_raw, setup_scaled)
        measured = _measure(workload, stream, mounted, ops, faulted)
        if index == 0:  # before any correctness check allocates
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        _gate_round(result, workload, index, measured)
        commons.append(measured.common)
        segments.extend(measured.segments)
        stream = mounted = measured = None

    result.calibrations = sum(len(segment.calibrations) for segment in segments)
    common_ops = sum(segment.ops for segment in commons)
    result.add("ops_per_s", _pooled_rate(commons), "1/s", common_ops, raw=_raw_rate(commons))
    ops_scaled = [t for segment in commons for t in segment.scaled(False)]
    ops_raw = [t for segment in commons for t in segment.raw(False)]
    result.add_time("op_p50_us", ops_scaled, ops_raw, 0.50, "us")
    result.add_time("op_p99_us", ops_scaled, ops_raw, 0.99, "us")
    faulted_scaled = [t for segment in segments for t in segment.scaled(True)]
    faulted_raw = [t for segment in segments for t in segment.raw(True)]
    result.add_time("faulted_op_p50_ms", faulted_scaled, faulted_raw, 0.50, "ms")
    result.add_time("faulted_op_p95_ms", faulted_scaled, faulted_raw, 0.95, "ms")
    device_bytes = sum(segment.device_bytes for segment in commons)
    user_bytes = sum(segment.user_bytes for segment in commons)
    result.add("write_amp", _ratio(device_bytes, user_bytes), "ratio", common_ops)
    result.add_time("setup_s", setup_scaled, setup_raw, 0.50, "s")
    result.add("peak_rss_mb", peak_rss_mb, "MB", 1)
    return result


# ----------------------------------------------------------------------
# traced pass

#: Op identifiers of round ``i`` in the trace start at ``i * _OP_STRIDE``.
_OP_STRIDE = 10**8


def _counters(tracer: SpanTracer, mounted: Mounted) -> dict[str, int]:
    """Cumulative layer stats: summed over every base instance mounted on
    this device (a contained reboot starts fresh stats), plus the
    device's and the supervisor's."""
    totals: dict[str, int] = {}

    def add(prefix: str, stats, fields) -> None:
        for name in fields:
            key = f"{prefix}.{name}"
            totals[key] = totals.get(key, 0) + getattr(stats, name)

    for base in tracer.bases:
        if base.device is not mounted.device:
            continue
        add("page", base.page_cache.stats, ("hits", "misses", "evictions"))
        add("inode", base.inode_cache.stats, ("hits", "misses"))
        add("dentry", base.dentry_cache.stats, ("hits", "negative_hits", "misses"))
        add("buffer", base.cache.stats, ("hits", "misses"))
        add("journal", base.journal.stats, ("blocks_journaled",))
        add("writeback", base.writeback.stats, ("commits", "pressure_commits"))
    add("device", mounted.device.io_stats, ("reads", "writes", "flushes"))
    add("recovery", mounted.fs.stats.recovery, ("successes", "failures", "ops_replayed"))
    return totals


def _add_delta(total: dict[str, int], after: dict[str, int], before: dict[str, int]) -> None:
    for key in after:
        total[key] = total.get(key, 0) + after[key] - before.get(key, 0)


def _untraced(workload: Workload, stream, ops: int, min_faulted: int, config) -> Segment:
    """An overhead arm: the common segment alone, on its own mount."""
    mounted = set_up(workload, stream, config=config)
    return _common(workload, Driver(mounted, stream.measured), ops, min_faulted)


@dataclass
class _Recoveries:
    """Per-recovery phase times and faulted-op times, over all rounds."""

    reboot: list[float] = field(default_factory=list)
    replay: list[float] = field(default_factory=list)
    handoff: list[float] = field(default_factory=list)
    post_commit: list[float] = field(default_factory=list)
    faulted: int = 0
    unpaired: int = 0

    def add(self, stats, first_event: int, faulted: list[float]) -> None:
        self.reboot += stats.reboot_seconds[first_event:]
        self.replay += stats.replay_seconds[first_event:]
        self.handoff += stats.handoff_seconds[first_event:]
        phases = stats.total_seconds[first_event:]
        self.faulted += len(faulted)
        if len(phases) == len(faulted):
            self.post_commit += [op - total for op, total in zip(faulted, phases)]
        else:  # a nested recovery broke the one-to-one pairing
            self.unpaired += len(faulted)


def traced_pass(
    workload: Workload,
    seed: int,
    seconds: float,
    min_faulted: int = MIN_FAULTED_OPS,
    spans_path: str | None = None,
) -> Result:
    """The same rounds and ops as the timed pass of ``seconds``;
    ``min_faulted`` shrinks the pass for self-tests."""
    result = Result(workload.name, seed, traced=True)
    ops, faulted = _share(timed_ops(workload, seconds)), _share(min_faulted)
    tracer = SpanTracer()
    arms: dict[str, list[Segment]] = {"default": [], "obs-off": [], "traced": []}
    common_ranges: list[tuple[int, int]] = []
    fault_ranges: list[tuple[int, int]] = []
    common_counts: dict[str, int] = {}
    fault_counts: dict[str, int] = {}
    recoveries = _Recoveries()
    for index in range(ROUNDS):
        stream = make_stream(workload, round_seed(seed, index), ops + workload.fault_allowance)
        # The overhead arms run on the first round only, to bound the
        # pass's length: each needs its own set-up.
        for arm, config in (("default", None), ("obs-off", obs_off_config())) if index == 0 else ():
            segment = _untraced(workload, stream, ops, faulted, config)
            result.attempted += segment.ops
            result.failed += len(segment.failures)
            arms[arm].append(segment)
            gc.collect()
        offset = index * _OP_STRIDE

        def enter_op(op_index: int) -> None:
            tracer.op = offset + op_index

        with tracer:
            mounted = set_up(workload, stream)
            stats = mounted.fs.stats.recovery
            start = _counters(tracer, mounted)
            after_common: dict[str, int] = {}
            events_before_fault: list[int] = []

            def between() -> None:
                tracer.op = -1
                after_common.update(_counters(tracer, mounted))
                events_before_fault.append(len(stats.total_seconds))

            measured = _measure(workload, stream, mounted, ops, faulted, on_op=enter_op, between=between)
            tracer.op = -1
            end = _counters(tracer, mounted)
        if index == 0:
            arms["traced"].append(measured.common)
        common, fault = measured.common, measured.fault
        common_ranges.append((offset + common.first, offset + common.first + common.ops))
        fault_ranges.append((offset + fault.first, offset + fault.first + fault.ops))
        _add_delta(common_counts, after_common, start)
        if fault is common:
            _add_delta(fault_counts, after_common, start)
            recoveries.add(stats, 0, fault.raw(True))
        else:
            _add_delta(fault_counts, end, after_common)
            recoveries.add(stats, events_before_fault[0], fault.raw(True))
        _gate_round(result, workload, index, measured)
        stream = mounted = measured = None
    if spans_path is not None:
        tracer.dump(spans_path)

    spans = tracer.spans()
    common_ops = sum(end - first for first, end in common_ranges)
    _layer_metrics(result, spans, spans.select(common_ranges), common_ops, common_counts)
    _recovery_metrics(result, spans, spans.select(fault_ranges), fault_counts, recoveries)
    rate = {arm: _pooled_rate(segments) for arm, segments in arms.items()}
    arm_ops = arms["traced"][0].ops
    result.add("obs.overhead_frac", 1.0 - rate["default"] / rate["obs-off"], "ratio", arm_ops)
    result.add("bench.trace_overhead_frac", 1.0 - rate["traced"] / rate["default"], "ratio", arm_ops)
    return result


def _layer_metrics(result: Result, spans, selected: list[int], n: int, counts: dict[str, int]) -> None:
    self_time = spans.self_by_layer(selected)
    busy = spans.busy_by_layer(selected)
    result.layer_self_us_per_op = {layer: self_time[layer] / n * 1e6 for layer in LAYERS}

    def per_op_us(seconds: float) -> float:
        return seconds / n * 1e6

    def total(ids) -> float:
        return sum(spans.duration[i] for i in ids)

    result.add("core.supervisor.self_us_per_op", per_op_us(self_time["core.supervisor"]), "us/op", n)
    records = spans.calls(selected, "OpLog.record")
    result.add("core.oplog.records_per_op", len(records) / n, "1/op", n)
    result.add("core.oplog.busy_us_per_op", per_op_us(busy["core.oplog"]), "us/op", n)
    result.add("basefs.filesystem.self_us_per_op", per_op_us(self_time["basefs.filesystem"]), "us/op", n)

    page_lookups = counts["page.hits"] + counts["page.misses"]
    result.add("basefs.page_cache.hit_ratio", _ratio(counts["page.hits"], page_lookups), "ratio", page_lookups)
    result.add("basefs.page_cache.evictions_per_kop", counts["page.evictions"] / n * 1e3, "1/kop", n)
    result.add("basefs.page_cache.busy_us_per_op", per_op_us(busy["basefs.page_cache"]), "us/op", n)
    inode_lookups = counts["inode.hits"] + counts["inode.misses"]
    result.add("basefs.inode_cache.hit_ratio", _ratio(counts["inode.hits"], inode_lookups), "ratio", inode_lookups)
    dentry_hits = counts["dentry.hits"] + counts["dentry.negative_hits"]
    dentry_lookups = dentry_hits + counts["dentry.misses"]
    result.add("basefs.dentry_cache.hit_ratio", _ratio(dentry_hits, dentry_lookups), "ratio", dentry_lookups)
    buffer_lookups = counts["buffer.hits"] + counts["buffer.misses"]
    result.add("blockdev.cache.hit_ratio", _ratio(counts["buffer.hits"], buffer_lookups), "ratio", buffer_lookups)

    scans = spans.calls(selected, "BaseFilesystem.dirty_page_count") + spans.calls(
        selected, "BaseFilesystem.dirty_metadata_count"
    )
    result.add("basefs.writeback.dirty_scan_us_per_op", per_op_us(total(scans)), "us/op", len(scans))
    ticks = spans.calls(selected, "WritebackDaemon.tick")
    result.add(
        "basefs.writeback.tick_self_us_per_op",
        per_op_us(sum(spans.self_time[i] for i in ticks)), "us/op", len(ticks),
    )
    commits = counts["writeback.commits"]
    result.add("basefs.writeback.commits_per_kop", commits / n * 1e3, "1/kop", n)
    result.add(
        "basefs.writeback.pressure_commit_share",
        _ratio(counts["writeback.pressure_commits"], commits), "ratio", commits,
    )

    commit_spans = [i for i in spans.calls(selected, "BaseFilesystem.commit") if spans.outermost(i)]
    commit_us = [spans.duration[i] * 1e6 for i in commit_spans]
    result.add("basefs.commit.calls_per_kop", len(commit_spans) / n * 1e3, "1/kop", n)
    result.add("basefs.commit.p50_us", percentile(commit_us, 0.50), "us", len(commit_us))
    result.add("basefs.commit.p99_us", percentile(commit_us, 0.99), "us", len(commit_us))
    counting = [
        i
        for i in spans.calls(selected, "Bitmap.count_set") + spans.calls(selected, "Bitmap.count_free")
        if spans.under_commit[i] and spans.outermost(i)
    ]
    result.add(
        "ondisk.bitmap.count_us_per_commit",
        _ratio(total(counting), len(commit_spans)) * 1e6, "us/commit", len(commit_spans),
    )
    journal = spans.calls(selected, "JournalManager.commit")
    result.add(
        "basefs.journal_mgr.blocks_per_commit",
        _ratio(counts["journal.blocks_journaled"], len(journal)), "blocks/commit", len(journal),
    )
    result.add(
        "basefs.journal_mgr.busy_us_per_commit",
        _ratio(total(journal), len(journal)) * 1e6, "us/commit", len(journal),
    )

    submits = spans.calls(selected, "BlockMQ.submit")
    result.add("blockdev.blkmq.submits_per_op", len(submits) / n, "1/op", n)
    result.add("blockdev.blkmq.busy_us_per_op", per_op_us(busy["blockdev.blkmq"]), "us/op", n)
    result.add("blockdev.device.reads_per_op", counts["device.reads"] / n, "1/op", n)
    result.add("blockdev.device.writes_per_op", counts["device.writes"] / n, "1/op", n)
    result.add("blockdev.device.flushes_per_op", counts["device.flushes"] / n, "1/op", n)
    result.add("blockdev.device.busy_us_per_op", per_op_us(busy["blockdev.device"]), "us/op", n)
    result.add("obs.busy_us_per_op", per_op_us(busy["obs"]), "us/op", n)


def _recovery_metrics(result: Result, spans, selected: list[int], counts, recoveries: _Recoveries) -> None:
    recovered = counts["recovery.successes"]
    replayed = counts["recovery.ops_replayed"]
    result.add("core.recovery.count", recovered, "count", recoveries.faulted)
    result.add("core.recovery.failures", counts["recovery.failures"], "count", recoveries.faulted)
    result.add("core.recovery.window_ops_mean", _ratio(replayed, recovered), "ops", recovered)
    for name, times in (
        ("core.reboot.ms_p50", recoveries.reboot),
        ("shadowfs.replay.ms_p50", recoveries.replay),
        ("core.handoff.ms_p50", recoveries.handoff),
        ("core.recovery.post_commit_ms_p50", recoveries.post_commit),
    ):
        result.add(name, percentile(times, 0.50) * 1e3, "ms", len(times))
    if recoveries.unpaired:
        result.notes.append(
            f"{recoveries.unpaired} faulted ops ran nested recoveries: left out of post-commit"
        )
    result.add(
        "shadowfs.replay.us_per_replayed_op",
        _ratio(sum(recoveries.replay), replayed) * 1e6, "us/op", replayed,
    )
    find_free = [
        i for i in spans.calls(selected, "Bitmap.find_free")
        if spans.under_replay[i] and spans.outermost(i)
    ]
    result.add(
        "ondisk.bitmap.find_free_us_per_replayed_op",
        _ratio(sum(spans.duration[i] for i in find_free), replayed) * 1e6, "us/op", len(find_free),
    )
