"""Span tracing from outside the program, for the traced pass.

``SpanTracer.install`` replaces the public functions of each layer at
class or module level with a wrapper that records one span per call:
name, start, end, parent span and the measured op it belongs to.  Class
level matters: a contained reboot replaces the base filesystem instance,
and ``run_recovery`` is looked up by name in ``repro.core.supervisor``,
so that is where it is patched.  Install before constructing the
filesystem: the in-program profiler wraps bound methods at attach time.

Spans stay in memory (flat arrays) until ``dump`` writes them out.  A
span's self time is its duration minus what its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array

_FS_OPS = (
    "mkdir", "rmdir", "unlink", "rename", "link", "symlink", "readlink",
    "readdir", "stat", "lstat", "truncate", "open", "close", "read",
    "write", "lseek", "fsync",
)

#: (layer, "module:owner", functions).  An owner of "" names the module
#: itself (module-level functions).
PLAN = (
    ("core.supervisor", "repro.core.supervisor:RAEFilesystem", _FS_OPS),
    ("core.oplog", "repro.core.oplog:OpLog", ("record", "truncate")),
    ("basefs.filesystem", "repro.basefs.filesystem:BaseFilesystem", _FS_OPS),
    ("basefs.page_cache", "repro.basefs.page_cache:PageCache",
     ("lookup", "install", "dirty_pages", "mark_clean", "drop_ino")),
    ("basefs.writeback", "repro.basefs.writeback:WritebackDaemon", ("tick",)),
    ("basefs.writeback", "repro.basefs.filesystem:BaseFilesystem",
     ("dirty_page_count", "dirty_metadata_count")),
    ("basefs.commit", "repro.basefs.filesystem:BaseFilesystem", ("commit",)),
    ("basefs.journal_mgr", "repro.basefs.journal_mgr:JournalManager", ("commit",)),
    ("ondisk.bitmap", "repro.ondisk.bitmap:Bitmap", ("count_set", "count_free", "find_free")),
    ("blockdev.blkmq", "repro.blockdev.blkmq:BlockMQ", ("submit", "pump", "drain", "reap")),
    ("blockdev.device", "repro.blockdev.device:MemoryBlockDevice",
     ("read_block", "write_block", "flush")),
    ("core.recovery", "repro.core.supervisor:", ("run_recovery",)),
    ("core.reboot", "repro.core.recovery:", ("contained_reboot",)),
    ("shadowfs.replay", "repro.shadowfs.replay:ReplayEngine", ("run",)),
    ("core.handoff", "repro.core.recovery:", ("download_metadata",)),
    ("obs", "repro.obs.flight:FlightRecorder", ("note_op",)),
    ("obs", "repro.obs.metrics:Registry", ("histogram", "counter")),
    ("obs", "repro.obs.metrics:Histogram", ("observe",)),
    ("obs", "repro.obs.metrics:Counter", ("inc",)),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in PLAN))


def _owner(spec: str):
    module_name, _, attr = spec.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, attr) if attr else module


class SpanTracer:
    def __init__(self):
        self.names: list[tuple[str, str]] = []  # name id -> (layer, function)
        self.span_op = array("l")
        self.span_parent = array("l")
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op = -1  # the measured op now running; -1 records nothing
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.bases: list = []  # every BaseFilesystem mounted while installed

    # -- patching ------------------------------------------------------

    def _wrap(self, owner, function: str, layer: str) -> None:
        original = owner.__dict__[function]
        name_id = len(self.names)
        self.names.append((layer, f"{getattr(owner, '__name__', owner)}.{function}"))
        stack = self._stack
        span_op, span_parent, span_name = self.span_op, self.span_parent, self.span_name
        span_start, span_end = self.span_start, self.span_end
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            op = tracer.op
            if op < 0:
                return original(*args, **kwargs)
            span = len(span_start)
            span_op.append(op)
            span_parent.append(stack[-1] if stack else -1)
            span_name.append(name_id)
            span_end.append(0.0)
            stack.append(span)
            span_start.append(perf())
            try:
                return original(*args, **kwargs)
            finally:
                span_end[span] = perf()
                stack.pop()

        setattr(owner, function, traced)
        self._patches.append((owner, function, original))

    def install(self) -> None:
        for layer, owner_spec, functions in PLAN:
            owner = _owner(owner_spec)
            for function in functions:
                self._wrap(owner, function, layer)
        base_cls = _owner("repro.basefs.filesystem:BaseFilesystem")
        original_init = base_cls.__dict__["__init__"]
        bases = self.bases

        def init(base, *args, **kwargs):
            original_init(base, *args, **kwargs)
            bases.append(base)

        base_cls.__init__ = init
        self._patches.append((base_cls, "__init__", original_init))

    def uninstall(self) -> None:
        while self._patches:
            owner, function, original = self._patches.pop()
            setattr(owner, function, original)

    def __enter__(self) -> "SpanTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis ------------------------------------------------------

    def spans(self) -> "Spans":
        return Spans(self)

    def dump(self, path: str) -> None:
        """Write every span out as JSON (column arrays plus name table)."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "names": [list(name) for name in self.names],
                    "columns": ["op", "parent", "name", "start", "end"],
                    "op": self.span_op.tolist(),
                    "parent": self.span_parent.tolist(),
                    "name": self.span_name.tolist(),
                    "start": self.span_start.tolist(),
                    "end": self.span_end.tolist(),
                },
                handle,
                separators=(",", ":"),
            )


class Spans:
    """Derived per-span facts: duration, self time, layer, and whether a
    span runs inside a commit or a shadow replay."""

    def __init__(self, tracer: SpanTracer):
        names = tracer.names
        layer_of_name = [layer for layer, _ in names]
        parent = tracer.span_parent
        count = len(tracer.span_start)
        duration = [tracer.span_end[i] - tracer.span_start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += duration[i]
        layer = [layer_of_name[n] for n in tracer.span_name]
        under_commit = [False] * count
        under_replay = [False] * count
        for i in range(count):  # parents are allocated before children
            p = parent[i]
            if p >= 0:
                under_commit[i] = under_commit[p] or layer[p] == "basefs.commit"
                under_replay[i] = under_replay[p] or layer[p] == "shadowfs.replay"
        self.names = names
        self.op = tracer.span_op
        self.parent = parent
        self.name = tracer.span_name
        self.layer = layer
        self.duration = duration
        self.self_time = [duration[i] - child[i] for i in range(count)]
        self.under_commit = under_commit
        self.under_replay = under_replay

    def select(self, ranges: list[tuple[int, int]]) -> list[int]:
        """Spans of the ops in any of the half-open ``[first, end)`` ranges."""
        op = self.op
        return [i for i in range(len(op)) if any(first <= op[i] < end for first, end in ranges)]

    def outermost(self, i: int) -> bool:
        """True when the span's parent is of another layer, so summing
        durations of such spans does not count a nested call twice."""
        p = self.parent[i]
        return p < 0 or self.layer[p] != self.layer[i]

    def self_by_layer(self, spans: list[int]) -> dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for i in spans:
            totals[self.layer[i]] += self.self_time[i]
        return totals

    def busy_by_layer(self, spans: list[int]) -> dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for i in spans:
            if self.outermost(i):
                totals[self.layer[i]] += self.duration[i]
        return totals

    def calls(self, spans: list[int], function: str) -> list[int]:
        """The spans among ``spans`` of one function (``Owner.name``)."""
        wanted = {n for n, (_, fn) in enumerate(self.names) if fn == function}
        return [i for i in spans if self.name[i] in wanted]
