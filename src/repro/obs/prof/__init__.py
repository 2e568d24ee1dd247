"""Layer-attribution profiling for the supervisor's op hot path.

:class:`LayerProfiler` decomposes a sampled operation's wall time
into *self-time* per layer of the stack — ``api`` (supervisor dispatch)
→ ``vfs`` (path/dentry/fd logic in :class:`BaseFilesystem`) →
``pagecache`` (page + buffer caches) → ``journal`` → ``writeback`` →
``blkmq`` → ``device`` — by wrapping the live methods of the supervisor
side only, for the first op and every N-th op after it (every op in
exact mode).  Nothing under ``repro.shadowfs`` or ``repro.spec`` is
touched (SHADOW-PURITY): the shadow and the spec model stay
instrumentation-free, and the wrapping is runtime ``setattr`` on
instances the supervisor already owns, so no base-layer module gains an
``repro.obs`` import.

The per-layer self-times are the measurement every ROADMAP item 2
optimization is judged against; ``rae-bench`` aggregates them into the
``BENCH_hotpath.json`` artifact and ``rae-report hotpath`` renders the
breakdown.
"""

from repro.obs.prof.profiler import LAYERS, LayerProfiler

__all__ = ["LAYERS", "LayerProfiler"]
