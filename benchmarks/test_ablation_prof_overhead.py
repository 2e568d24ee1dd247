"""Ablation — what does layer-attribution profiling cost?

The layer profiler (:mod:`repro.obs.prof`) is on by default, sampled:
``RAEConfig.profile`` is the sampling period (64), so one op in 64 runs
through its 41 wrapped methods, each two reads of the monotonic clock
plus a dict update, and the ops in between run with no wrapper
installed.  Exact mode (``profile=True``, every op wrapped; what
``rae-bench`` runs) is the second arm.  This ablation measures both
against attribution-off on the webserver personality and enforces a
declared overhead budget per arm.

The budgets are deliberately *budgets*, not noise floors: on an
all-RAM :class:`MemoryBlockDevice` the per-call wrapping overhead is
maximal because the wrapped device/cache calls themselves cost almost
nothing — this is the worst case the profiler can face, and the bounds
below are what "cheap enough" means here.  On any device with real IO
latency the relative overhead only shrinks.

Numbers land in ``BENCH_hotpath.json`` via ``rae-bench`` (whose meta
records the attribution arm); this benchmark is the regression guard.
"""

import gc
import time

from repro.bench import format_table, make_rae, print_banner, run_ops
from repro.core.supervisor import RAEConfig
from repro.workloads import WorkloadGenerator, webserver_profile

N_OPS = 400
ROUNDS = 5
#: exact attribution may cost at most this factor over attribution-off
#: on the worst-case in-memory device (measured ~1.25x; band allows CI
#: scheduler noise on top).
OVERHEAD_BUDGET = 1.50
#: the default, sampled profiler may cost at most this factor.
SAMPLED_OVERHEAD_BUDGET = 1.10


def _best_seconds(operations) -> dict[str, tuple[float, object]]:
    """Per arm, the fastest of ROUNDS fresh runs (min is the
    noise-robust estimator) and the last run's filesystem for
    inspection.  Rounds alternate between the arms, so drift in machine
    speed reaches every arm alike, and each run starts from a collected
    heap, so no arm inherits another's garbage."""
    arms = {"exact": True, "sampled": RAEConfig().profile, "off": False}
    best = {arm: (float("inf"), None) for arm in arms}
    for _ in range(ROUNDS):
        for arm, profile in arms.items():
            fs = make_rae(
                block_count=16384, config=RAEConfig(metrics=True, profile=profile)
            )
            gc.collect()
            start = time.perf_counter()
            run_ops(fs, operations)
            best[arm] = (min(best[arm][0], time.perf_counter() - start), fs)
    return best


def test_prof_overhead_within_budget(benchmark):
    operations = WorkloadGenerator(webserver_profile(), seed=77).ops(N_OPS)

    def run_profiled():
        run_ops(
            make_rae(block_count=16384, config=RAEConfig(metrics=True, profile=True)),
            operations,
        )

    benchmark(run_profiled)

    best = _best_seconds(operations)
    on_s, on_fs = best["exact"]
    sampled_s, sampled_fs = best["sampled"]
    off_s, _ = best["off"]

    print_banner("Layer-attribution ablation — RAE supervisor, webserver profile")
    print(
        format_table(
            ["configuration", "best seconds", "ops/s", "relative"],
            [
                ["attribution exact", on_s, N_OPS / on_s, on_s / off_s],
                ["attribution sampled (default)", sampled_s, N_OPS / sampled_s, sampled_s / off_s],
                ["attribution off", off_s, N_OPS / off_s, 1.0],
            ],
        )
    )
    overhead = on_s / off_s - 1.0
    sampled_overhead = sampled_s / off_s - 1.0
    print(
        f"attribution overhead vs off, worst-case RAM device: exact "
        f"{overhead * 100:.1f}%, sampled {sampled_overhead * 100:.1f}%"
    )

    assert on_s <= off_s * OVERHEAD_BUDGET, (
        f"profile=True ({on_s:.4f}s) exceeds the declared overhead budget "
        f"({OVERHEAD_BUDGET:.2f}x) over profile=False ({off_s:.4f}s); either "
        "the wrappers got more expensive or the budget needs a deliberate bump"
    )
    assert sampled_s <= off_s * SAMPLED_OVERHEAD_BUDGET, (
        f"the default sampled profiler ({sampled_s:.4f}s) exceeds its declared "
        f"overhead budget ({SAMPLED_OVERHEAD_BUDGET:.2f}x) over profile=False "
        f"({off_s:.4f}s); sampling or arming got more expensive"
    )

    # The profiled run actually attributed: every layer was exercised by
    # the webserver mix and the self-times account for real time.
    summary = on_fs.profiler.layer_summary()
    assert on_fs.profiler.ops > 0
    assert summary["vfs"]["calls"] > 0 and summary["device"]["calls"] > 0
    assert sum(entry["self_seconds"] for entry in summary.values()) > 0.0
    # The sampled run attributed the first op and every 64th after it.
    assert sampled_fs.profiler.every == RAEConfig().profile
    assert 0 < sampled_fs.profiler.ops < on_fs.profiler.ops
