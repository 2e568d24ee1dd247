"""The layer-attribution profiler: self-time per stack layer, per op.

Classic profiler accounting over a supervisor-side span stack.  Every
wrapped method pushes a ``[layer, mark]`` frame; *self-time* is the
wall time a frame spends as the top of the stack, so a parent is never
charged for its children:

* on **push**, the running (top) frame is charged ``now - mark`` and
  the new frame starts with ``mark = now``;
* on **pop**, the finishing frame is charged ``now - mark`` and the
  newly exposed frame's ``mark`` is reset to ``now``.

When the stack empties the operation is over: the per-op accumulator
is folded into the cumulative per-layer totals and one observation per
touched layer lands in a ``layer.self.<layer>`` log-scale histogram,
so the artifact gets p50/p95/p99 *of per-op self-time* per layer.

Attachment is runtime ``setattr`` on live instances — the supervisor,
its base filesystem's subsystems, and the block device — never a
module-level import into the base layers, so the pull-don't-push
discipline (docs/OBSERVABILITY.md) and SHADOW-PURITY both hold.

**Sampling.**  The wrapper closures are built once per base (at
``attach`` and after each contained reboot) into a wrap plan.
:meth:`LayerProfiler.arm` installs the plan with ``setattr``; with a
sampling period ``every`` above 1, the end of the sampled op (its stack
emptying) removes it again, so the ops in between run the plain
methods at no cost.  The supervisor arms at the start of ops 1,
``every + 1``, ``2 * every + 1``, … and enters the op through the
``_call`` wrapper just installed, so only supervisor ops are ever
sampled and each is attributed exactly as in ``every == 1`` mode, where
the plan, armed at the first op, stays installed for good.  A contained
reboot swaps in a fresh base: the profiler's ``on_reboot`` callback
builds the new base's plan and installs it at once when the reboot runs
inside a sampled op (the device instance survives reboots and keeps its
plan).  Methods replaced on these instances after ``attach`` are not
followed: arming reinstalls the wrappers built around the originals.
"""

from __future__ import annotations

from typing import Callable

LAYERS = ("api", "vfs", "pagecache", "journal", "writeback", "blkmq", "device")

# Per-op self-times start around single-digit microseconds and recovery
# episodes can push an op's device share past a second: 0.1 µs × 2ⁿ over
# 30 buckets spans 0.1 µs to ~53 s.
_HIST_LO = 1e-7
_HIST_BUCKETS = 30

_WRAP_MARKER = "__rae_layer_wrapper__"

# (attribute name, layer) wrap plans per wrapped object kind.
_VFS_OPS = (
    "mkdir", "rmdir", "unlink", "rename", "link", "symlink", "readlink",
    "readdir", "stat", "lstat", "truncate", "open", "close", "read",
    "write", "lseek", "fsync", "fstat_ino", "unmount",
)
_PAGECACHE_METHODS = ("lookup", "install", "dirty_pages", "mark_clean", "drop_ino")
_BUFFERCACHE_METHODS = ("read", "write", "writeback", "writeback_some", "sync")
_BLKMQ_METHODS = ("submit", "pump", "drain", "reap")
_DEVICE_METHODS = ("read_block", "write_block", "flush")


def _set_on_instance(obj: object, name: str, value: object) -> bool:
    """Whether ``value`` (what ``obj.name`` returned) is set on the
    instance rather than provided by its class.

    Compares ``value`` with the class attribute bound to ``obj``, the
    way attribute lookup would bind it.  Asking ``name in obj.__dict__``
    instead would turn the instance's inline attribute values into a
    real dict on CPython 3.11+, which slows every later attribute load
    on ``obj`` for good.
    """
    cls = type(obj)
    for klass in cls.__mro__:
        if name in klass.__dict__:
            attr = klass.__dict__[name]
            bind = getattr(type(attr), "__get__", None)
            return value != (attr if bind is None else bind(attr, obj, cls))
    return True


class LayerProfiler:
    """Decompose op wall time into per-layer self-time (see module doc).

    ``registry`` supplies the injected monotonic clock and the
    histogram store — tests pass a fake-clock :class:`Registry` and get
    bit-exact attributions.  ``every`` is the sampling period: the
    wrappers stay installed for good when it is 1, and otherwise come
    off again as soon as a sampled op ends.
    """

    def __init__(self, registry, every: int = 1):
        if every < 1:
            raise ValueError(f"sampling period must be >= 1, got {every}")
        self.registry = registry
        self.every = every
        self.clock: Callable[[], float] = registry.clock
        self.self_seconds: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.ops = 0
        self.armed = False
        self._stack: list[list] = []
        self._op_self: dict[str, float] = {}
        # Wrap plans: (obj, name, wrapper, original, had_instance_attr).
        # The supervisor and device plan lives as long as the attachment;
        # the base plan is rebuilt for every rebooted base.
        self._plan: list[tuple[object, str, object, object, bool]] = []
        self._base_plan: list[tuple[object, str, object, object, bool]] = []
        self._hists = {
            layer: registry.histogram(
                f"layer.self.{layer}", lo=_HIST_LO, buckets=_HIST_BUCKETS
            )
            for layer in LAYERS
        }
        self._fs = None

    # -- wrapping ------------------------------------------------------

    def _wrap(self, plan: list, obj: object, name: str, layer: str) -> None:
        """Build ``obj.name``'s wrapper into ``plan``; installed now if
        the profiler is armed, else at the next :meth:`arm`."""
        original = getattr(obj, name, None)
        if original is None or getattr(original, _WRAP_MARKER, False):
            return
        had_instance_attr = _set_on_instance(obj, name, original)
        clock = self.clock
        stack = self._stack
        acc = self._op_self
        calls = self.calls

        def wrapper(*args, **kwargs):
            now = clock()
            if stack:
                top = stack[-1]
                acc[top[0]] = acc.get(top[0], 0.0) + (now - top[1])
            frame = [layer, now]
            stack.append(frame)
            calls[layer] += 1
            try:
                return original(*args, **kwargs)
            finally:
                now = clock()
                acc[layer] = acc.get(layer, 0.0) + (now - frame[1])
                stack.pop()
                if stack:
                    stack[-1][1] = now
                else:
                    self._flush_op()

        setattr(wrapper, _WRAP_MARKER, True)
        plan.append((obj, name, wrapper, original, had_instance_attr))
        if self.armed:
            setattr(obj, name, wrapper)

    @staticmethod
    def _remove(plan: list) -> None:
        for obj, name, _wrapper, original, had_instance_attr in reversed(plan):
            if had_instance_attr:
                setattr(obj, name, original)
            else:
                try:
                    delattr(obj, name)  # fall back to the class attribute
                except AttributeError:
                    setattr(obj, name, original)

    def arm(self) -> None:
        """Install every wrapper: the op that starts next is sampled.  A
        no-op when already armed."""
        if not self.armed:
            self.armed = True
            for obj, name, wrapper, _original, _had in self._plan + self._base_plan:
                setattr(obj, name, wrapper)

    def disarm(self) -> None:
        """Remove every wrapper; the methods are the plain ones again."""
        if self.armed:
            self.armed = False
            self._remove(self._base_plan)
            self._remove(self._plan)

    def _flush_op(self) -> None:
        """Fold the finished op in and, when sampling, end the sample."""
        self.ops += 1
        acc = self._op_self
        totals = self.self_seconds
        hists = self._hists
        for layer, seconds in acc.items():
            totals[layer] += seconds
            hists[layer].observe(seconds)
        acc.clear()
        if self.every != 1:
            self.disarm()

    def _wrap_base(self, base) -> None:
        plan = self._base_plan
        for name in _VFS_OPS:
            self._wrap(plan, base, name, "vfs")
        # commit is the writeback path's entry (fsync/tick/scrub all
        # funnel there); the journal and home-write costs nested inside
        # it are charged to their own layers.
        self._wrap(plan, base, "commit", "writeback")
        self._wrap(plan, base.writeback, "tick", "writeback")
        self._wrap(plan, base.journal, "commit", "journal")
        for name in _PAGECACHE_METHODS:
            self._wrap(plan, base.page_cache, name, "pagecache")
        for name in _BUFFERCACHE_METHODS:
            self._wrap(plan, base.cache, name, "pagecache")
        for name in _BLKMQ_METHODS:
            self._wrap(plan, base.blkmq, name, "blkmq")

    def _on_reboot(self, new_base) -> None:
        """Contained reboot: the old base's objects are dead.  Build the
        fresh base's wrappers, installed at once only when the reboot
        runs inside a sampled op."""
        if self.armed:
            self._remove(self._base_plan)
        self._base_plan = []
        self._wrap_base(new_base)

    # -- public API ----------------------------------------------------

    def attach(self, fs) -> None:
        """Build the wrappers of a live :class:`RAEFilesystem`
        (supervisor dispatch, its base's layers, and the block device)
        and follow reboots.  Nothing is installed until :meth:`arm`."""
        if self._fs is not None:
            raise ValueError("LayerProfiler is already attached")
        self._fs = fs
        self._wrap(self._plan, fs, "_call", "api")
        self._wrap(self._plan, fs, "unmount", "api")
        for name in _DEVICE_METHODS:
            self._wrap(self._plan, fs.device, name, "device")
        self._wrap_base(fs.base)
        fs.on_reboot.append(self._on_reboot)

    def detach(self) -> None:
        """Restore every wrapped method and stop following reboots.  The
        plans are dropped, so a later :meth:`arm` installs nothing."""
        fs = self._fs
        if fs is None:
            return
        self.disarm()
        self._plan = []
        self._base_plan = []
        if self._on_reboot in fs.on_reboot:
            fs.on_reboot.remove(self._on_reboot)
        self._fs = None
        self._stack.clear()
        self._op_self.clear()

    # -- export --------------------------------------------------------

    def collector_snapshot(self) -> dict:
        """Flat dict for the registry's ``prof.`` collector namespace."""
        snap: dict = {"ops": self.ops, "sample_every": self.every}
        for layer in LAYERS:
            snap[f"{layer}.self_seconds"] = self.self_seconds[layer]
            snap[f"{layer}.calls"] = self.calls[layer]
        return snap

    def layer_summary(self) -> dict:
        """Per-layer breakdown with a deterministic schema: every layer
        is always present, with per-op self-time percentiles from the
        ``layer.self.*`` histograms (``None`` before any op)."""
        total = sum(self.self_seconds.values())
        summary = {}
        for layer in LAYERS:
            hist = self._hists[layer]
            seconds = self.self_seconds[layer]
            summary[layer] = {
                "self_seconds": seconds,
                "calls": self.calls[layer],
                "share": (seconds / total) if total > 0 else 0.0,
                "p50": hist.percentile(0.50),
                "p95": hist.percentile(0.95),
                "p99": hist.percentile(0.99),
            }
        return summary
