"""The hot-path throughput harness behind ``rae-bench``.

Runs named workload mixes (seeded :mod:`repro.workloads` streams)
against a fresh supervisor per round and distills each mix into the
``BENCH_hotpath.json`` datapoint ROADMAP item 2's speed campaign is
judged against:

* **ops/sec** — best-of-rounds wall time over the whole stream (min is
  the noise-robust estimator, as in the tier-2 ablations);
* **p50/p95/p99 latency** — every ``op.latency.*`` log-scale histogram
  of the best round merged into one mix-level distribution;
* **per-layer self-time** — the :mod:`repro.obs.prof` breakdown (api →
  vfs → pagecache → journal → writeback → blkmq → device), including
  per-op self-time percentiles per layer.

The artifact also records a **calibration score**: a fixed pure-Python
workload timed the same way, so the ratchet (:mod:`repro.bench.ratchet`)
can compare runs from different machines by normalizing throughput and
latency against how fast the interpreter itself is.
"""

from __future__ import annotations

import os
import time
import zlib

from repro.bench.harness import make_device, run_ops
from repro.core.supervisor import RAEConfig, RAEFilesystem
from repro.obs.check import (
    BENCH_HOTPATH_DEFAULT,
    BENCH_HOTPATH_ENV,
    BENCH_HOTPATH_SCHEMA,
)
from repro.obs.metrics import Histogram
from repro.util import atomic_write_json
from repro.workloads import (
    WorkloadGenerator,
    churn_profile,
    fileserver_profile,
    lookup_profile,
    varmail_profile,
    webserver_profile,
)

#: The named mixes: the four canonical hot-path personalities plus the
#: mixed fileserver profile.  Order is presentation order.
MIX_PROFILES = {
    "read_heavy": webserver_profile,
    "write_heavy": varmail_profile,
    "create_unlink_heavy": churn_profile,
    "lookup_heavy": lookup_profile,
    "mixed": fileserver_profile,
}

DEFAULT_OPS = 400
DEFAULT_ROUNDS = 3
DEFAULT_SEED = 11
_BLOCK_COUNT = 16384


def run_mix(
    name: str,
    ops: int = DEFAULT_OPS,
    seed: int = DEFAULT_SEED,
    rounds: int = DEFAULT_ROUNDS,
    attribution: bool = True,
    device_tweak=None,
) -> dict:
    """Run one mix; returns its ``BENCH_hotpath.json`` section.

    ``device_tweak`` (tests) mutates the fresh device *before* the
    supervisor wraps it, so an injected slowdown in, say,
    ``read_block`` is attributed to the device layer like any real
    cost.  The profiler runs in exact mode (every op sampled), so the
    layer tables stay comparable with the committed baseline.
    ``attribution=False`` is the ablation arm: same run, no profiler,
    layer fields zeroed.
    """
    profile = MIX_PROFILES[name]()
    operations = WorkloadGenerator(profile, seed=seed).ops(ops)
    best_seconds = float("inf")
    best_fs = None
    for _ in range(max(1, rounds)):
        device = make_device(_BLOCK_COUNT)
        if device_tweak is not None:
            device_tweak(device)
        fs = RAEFilesystem(
            device, config=RAEConfig(metrics=True, profile=1 if attribution else 0)
        )
        start = time.perf_counter()
        run_ops(fs, operations)
        elapsed = time.perf_counter() - start
        if elapsed < best_seconds:
            best_seconds = elapsed
            best_fs = fs

    merged = Histogram("mix.latency")
    for hist in best_fs.obs.histograms("op.latency."):
        merged.merge(hist)
    if best_fs.profiler is not None:
        layers = best_fs.profiler.layer_summary()
    else:
        from repro.obs.prof import LAYERS

        layers = {
            layer: {
                "self_seconds": 0.0, "calls": 0, "share": 0.0,
                "p50": None, "p95": None, "p99": None,
            }
            for layer in LAYERS
        }
    return {
        "ops": len(operations),
        "elapsed_seconds": best_seconds,
        "ops_per_second": len(operations) / best_seconds if best_seconds else 0.0,
        "latency_seconds": {
            "p50": merged.percentile(0.50),
            "p95": merged.percentile(0.95),
            "p99": merged.percentile(0.99),
        },
        "layers": layers,
    }


def _calibration_round() -> int:
    """Fixed pure-Python work: CRC over a rolling window plus dict
    churn, roughly the byte-shuffling/dispatch blend of the op path."""
    payload = bytes(range(256)) * 64
    crc = 0
    table: dict[int, bytes] = {}
    for i in range(1500):
        crc = zlib.crc32(payload, crc)
        offset = (i * 97) % (len(payload) - 64)
        table[i & 255] = payload[offset : offset + 64]
    return crc


def calibration_score(rounds: int = DEFAULT_ROUNDS) -> float:
    """Calibration runs per second, best of ``rounds`` — the machine
    speed unit the ratchet normalizes every metric with."""
    best = float("inf")
    for _ in range(max(1, rounds)):
        start = time.perf_counter()
        _calibration_round()
        best = min(best, time.perf_counter() - start)
    return 1.0 / best if best > 0 else 0.0


def run_hotpath_bench(
    ops: int = DEFAULT_OPS,
    rounds: int = DEFAULT_ROUNDS,
    seed: int = DEFAULT_SEED,
    mixes=None,
    attribution: bool = True,
    device_tweak=None,
) -> dict:
    """Run the requested mixes (default: all) into one artifact payload."""
    names = list(MIX_PROFILES) if mixes is None else list(mixes)
    for name in names:
        if name not in MIX_PROFILES:
            raise ValueError(
                f"unknown mix {name!r}; known: {', '.join(MIX_PROFILES)}"
            )
    return {
        "schema": BENCH_HOTPATH_SCHEMA,
        "meta": {
            "ops_per_mix": ops,
            "rounds": rounds,
            "seed": seed,
            "attribution": attribution,
            "block_count": _BLOCK_COUNT,
            "calibration_score": calibration_score(rounds),
        },
        "mixes": {
            name: run_mix(
                name,
                ops=ops,
                seed=seed,
                rounds=rounds,
                attribution=attribution,
                device_tweak=device_tweak,
            )
            for name in names
        },
    }


def write_hotpath(payload: dict, path: str | None = None) -> str:
    """Atomically write the artifact (``path`` / ``$BENCH_HOTPATH_PATH``
    / ``BENCH_hotpath.json``)."""
    target = path or os.environ.get(BENCH_HOTPATH_ENV) or BENCH_HOTPATH_DEFAULT
    atomic_write_json(target, payload)
    return target
