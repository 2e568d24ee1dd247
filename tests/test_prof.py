"""Tests for repro.obs.prof: self-time stack math, supervisor
attachment, reboot re-wrapping, detach, the prof collector, and
sampling (wrappers only on every N-th op)."""

import pytest

from repro.api import OpenFlags
from repro.errors import FsError
from repro.core.supervisor import RAEConfig, RAEFilesystem
from repro.obs import Registry
from repro.obs.prof import LAYERS, LayerProfiler
from repro.obs.prof.profiler import _WRAP_MARKER
from tests.conftest import formatted_device
from tests.test_core_supervisor import crash_on_name
from tests.test_obs import FakeClock


def _make_profiler(step: float = 1.0) -> tuple[LayerProfiler, FakeClock]:
    """An armed exact-mode profiler: each ``_wrap`` installs at once."""
    clock = FakeClock(step=step)
    prof = LayerProfiler(Registry(clock=clock))
    prof.arm()
    return prof, clock


class _Leaf:
    """A wrapped callee that costs nothing on the fake clock."""

    def work(self):
        return "leaf"


class _Parent:
    def __init__(self, leaf: _Leaf, calls: int = 1):
        self.leaf = leaf
        self.calls = calls

    def work(self):
        for _ in range(self.calls):
            self.leaf.work()
        return "parent"


class TestSelfTimeStack:
    """Bit-exact attribution math on a fake clock (1 unit per read).

    Every wrapper reads the clock once at push and once at pop, so each
    wrapped frame's *own* bracket contributes exactly the clock units
    consumed while it was the running (top) frame.
    """

    def test_parent_not_charged_for_child(self):
        prof, _ = _make_profiler()
        leaf = _Leaf()
        parent = _Parent(leaf)
        prof._wrap(prof._plan, parent, "work", "api")
        prof._wrap(prof._plan, leaf, "work", "device")

        assert parent.work() == "parent"
        # push parent (t1) -> push leaf charges api t2-t1=1 -> pop leaf
        # charges device t3-t2=1, resets parent's mark -> pop parent
        # charges api t4-t3=1.
        assert prof.self_seconds["api"] == pytest.approx(2.0)
        assert prof.self_seconds["device"] == pytest.approx(1.0)
        assert prof.ops == 1
        assert prof.calls["api"] == 1 and prof.calls["device"] == 1

    def test_sequential_children_reset_the_parent_mark(self):
        prof, _ = _make_profiler()
        leaf = _Leaf()
        parent = _Parent(leaf, calls=2)
        prof._wrap(prof._plan, parent, "work", "api")
        prof._wrap(prof._plan, leaf, "work", "device")

        parent.work()
        # Each child costs the parent one push-charge; the pop resets the
        # parent's mark so nothing is double-counted between children.
        assert prof.self_seconds["api"] == pytest.approx(3.0)
        assert prof.self_seconds["device"] == pytest.approx(2.0)
        assert prof.ops == 1

    def test_exception_unwinding_still_charges_and_flushes(self):
        prof, _ = _make_profiler()

        class _Boom:
            def work(self):
                raise KeyError("boom")

        boom = _Boom()
        prof._wrap(prof._plan, boom, "work", "vfs")
        with pytest.raises(KeyError):
            boom.work()
        assert prof.self_seconds["vfs"] == pytest.approx(1.0)
        assert prof.ops == 1
        assert prof._stack == []

    def test_disarm_restores_instance_and_class_attributes(self):
        """Arming and disarming leaves each attribute where it was: on
        the instance when it was set there, on the class otherwise."""

        class _Owner:
            def method(self):
                return "method"

            @staticmethod
            def static():
                return "static"

            @classmethod
            def klass(cls):
                return "klass"

            def shadowed(self):
                return "class"

        def own():
            return "own"

        owner = _Owner()
        owner.shadowed = own
        owner.extra = own
        prof = LayerProfiler(Registry(clock=FakeClock()), every=2)
        names = ("method", "static", "klass", "shadowed", "extra")
        for name in names:
            prof._wrap(prof._plan, owner, name, "vfs")
        prof.arm()
        assert all(getattr(getattr(owner, name), _WRAP_MARKER, False) for name in names)
        assert owner.method() == "method"
        assert prof.ops == 1 and not prof.armed  # the sample is over
        assert vars(owner) == {"shadowed": own, "extra": own}
        assert owner.method() == "method" and owner.static() == "static"
        assert owner.klass() == "klass" and owner.shadowed() == "own"

    def test_per_layer_histograms_record_per_op_self_time(self):
        prof, _ = _make_profiler()
        leaf = _Leaf()
        prof._wrap(prof._plan, leaf, "work", "blkmq")
        leaf.work()
        leaf.work()
        summary = prof.layer_summary()
        assert summary["blkmq"]["p50"] == pytest.approx(1.0)
        assert summary["blkmq"]["share"] == pytest.approx(1.0)
        # Untouched layers are present with a deterministic zero shape.
        assert summary["journal"] == {
            "self_seconds": 0.0, "calls": 0, "share": 0.0,
            "p50": None, "p95": None, "p99": None,
        }


class TestSupervisorAttachment:
    def _workload(self, fs):
        fs.mkdir("/d")
        fd = fs.open("/d/f", flags=OpenFlags.CREAT)
        fs.write(fd, b"x" * 4096)
        fs.fsync(fd)
        fs.read(fd, 16)
        fs.close(fd)
        fs.stat("/d/f")

    def test_default_config_attaches_and_attributes(self):
        # Exact mode: every op of the workload is attributed.
        fs = RAEFilesystem(formatted_device(4096), RAEConfig(profile=True))
        assert fs.profiler is not None
        self._workload(fs)
        summary = fs.profiler.layer_summary()
        assert set(summary) == set(LAYERS)
        assert fs.profiler.ops > 0
        assert summary["api"]["calls"] > 0
        assert summary["vfs"]["self_seconds"] > 0
        assert summary["device"]["calls"] > 0  # fsync reached the device
        assert sum(e["share"] for e in summary.values()) == pytest.approx(1.0)

    def test_prof_collector_lands_in_registry_snapshot(self):
        fs = RAEFilesystem(formatted_device(4096))
        fs.mkdir("/a")
        collected = fs.obs.snapshot()["collected"]
        assert collected["prof.ops"] >= 1
        assert collected["prof.vfs.calls"] >= 1
        assert "prof.device.self_seconds" in collected

    def test_profile_off_means_no_wrapping(self):
        fs = RAEFilesystem(formatted_device(4096), RAEConfig(profile=False))
        assert fs.profiler is None
        assert "_call" not in fs.__dict__
        assert "mkdir" not in fs.base.__dict__
        assert "prof.ops" not in fs.obs.snapshot()["collected"]

    def test_metrics_off_implies_profile_off(self):
        fs = RAEFilesystem(formatted_device(4096), RAEConfig(metrics=False))
        assert fs.profiler is None

    def test_detach_restores_methods_and_stops_accumulating(self):
        # Exact mode: the wrappers are still installed when detach runs.
        fs = RAEFilesystem(formatted_device(4096), RAEConfig(profile=True))
        fs.mkdir("/a")
        assert "_call" in fs.__dict__ and "read_block" in fs.device.__dict__
        ops_before = fs.profiler.ops
        fs.profiler.detach()
        assert "_call" not in fs.__dict__
        assert "mkdir" not in fs.base.__dict__
        assert "read_block" not in fs.device.__dict__
        fs.mkdir("/b")
        assert fs.profiler.ops == ops_before
        assert fs.readdir("/") == ["a", "b"]

    def test_double_attach_rejected(self):
        fs = RAEFilesystem(formatted_device(4096))
        with pytest.raises(ValueError):
            fs.profiler.attach(fs)

    def test_contained_reboot_rewraps_the_new_base(self):
        from repro.basefs.hooks import HookPoints

        hooks = HookPoints()
        crash_on_name(hooks, "evil")
        fs = RAEFilesystem(formatted_device(4096), RAEConfig(profile=True), hooks=hooks)
        fs.mkdir("/ok")
        fs.mkdir("/evil-dir")  # injected KernelBug -> contained reboot
        assert fs.recovery_count == 1
        vfs_calls = fs.profiler.calls["vfs"]
        fs.mkdir("/after")  # must hit the *new* base's wrappers
        assert fs.profiler.calls["vfs"] > vfs_calls
        assert "mkdir" in fs.base.__dict__  # new base is wrapped in place

    def test_attribution_is_observationally_free(self):
        """profile off vs exact vs sampled: identical op streams end in
        byte-identical images (the wrappers only measure, never change
        behavior).  The sampled arm's period of 4 arms and disarms ten
        times, and its recovery (op 41) runs inside a sampled op."""
        from repro.basefs.hooks import HookPoints
        from repro.workloads import WorkloadGenerator, varmail_profile

        images = []
        for profile in (False, True, 4):
            device = formatted_device(4096)
            hooks = HookPoints()
            crash_on_name(hooks, "evil")
            fs = RAEFilesystem(device, RAEConfig(profile=profile), hooks=hooks)
            for index, operation in enumerate(
                WorkloadGenerator(varmail_profile(), seed=5).ops(40)
            ):
                operation.apply(fs, opseq=index + 1)
            fs.mkdir("/evil-dir")  # recovery under both arms
            assert fs.recovery_count == 1
            fs.unmount()
            images.append(device.snapshot())
        assert images[0] == images[1] == images[2]


class TestDeterministicDeviceAttribution:
    def test_injected_device_cost_lands_in_the_device_layer(self):
        """A slowdown injected into the raw device (on the fake clock)
        is attributed to the device layer, not smeared over callers."""
        clock = FakeClock(step=0.0)  # only explicit ticks advance time
        device = formatted_device(4096)
        real_read = device.read_block

        def slow_read(block_no):
            clock.now += 7.0  # the seeded synthetic regression
            return real_read(block_no)

        device.read_block = slow_read
        fs = RAEFilesystem(device, RAEConfig(profile=True), obs=Registry(clock=clock))
        fd = fs.open("/f", flags=OpenFlags.CREAT)
        fs.write(fd, b"y" * 4096)
        fs.fsync(fd)
        fs.read(fd, 4096)
        fs.close(fd)
        summary = fs.profiler.layer_summary()
        reads = [r for r in (summary["device"],) if r["calls"]]
        assert reads, "device layer never called"
        # With a zero-step clock, *all* elapsed time is the injected
        # device cost — every unit must be charged to the device layer.
        assert summary["device"]["self_seconds"] > 0
        for layer in LAYERS:
            if layer != "device":
                assert summary[layer]["self_seconds"] == pytest.approx(0.0)


def _wrapped_attrs(fs) -> list[str]:
    """Every profiler wrapper installed on the supervisor, its base's
    layer objects, or the device."""
    base = fs.base
    owners = {
        "fs": fs, "base": base, "writeback": base.writeback,
        "journal": base.journal, "page_cache": base.page_cache,
        "cache": base.cache, "blkmq": base.blkmq, "device": fs.device,
    }
    return [
        f"{owner}.{name}"
        for owner, obj in owners.items()
        for name, value in vars(obj).items()
        if getattr(value, _WRAP_MARKER, False)
    ]


class TestSampling:
    """``RAEConfig.profile=N``: ops 1, N+1, 2N+1, ... are attributed
    exactly, and nothing else runs with a wrapper installed."""

    def test_default_is_sampled_every_64th_op(self):
        fs = RAEFilesystem(formatted_device(4096))
        assert RAEConfig().profile == 64
        assert fs.profiler.every == 64
        fs.mkdir("/a")
        assert fs.obs.snapshot()["collected"]["prof.sample_every"] == 64

    def test_exact_mode_reports_its_period(self):
        fs = RAEFilesystem(formatted_device(4096), RAEConfig(profile=True))
        assert fs.profiler.every == 1
        assert fs.obs.snapshot()["collected"]["prof.sample_every"] == 1

    @pytest.mark.parametrize("profile", [-1, -5, 0.5, 2.0, "64", None])
    def test_invalid_period_rejected_whatever_metrics_is(self, profile):
        for metrics in (True, False):
            with pytest.raises(ValueError):
                RAEConfig(profile=profile, metrics=metrics)

    def test_no_wrapper_between_samples(self):
        holder = {"during": []}
        device = formatted_device(4096)
        real_flush = device.flush

        def spying_flush():
            # What is installed while an op reaches the device.
            if "fs" in holder:
                holder["during"].append(len(_wrapped_attrs(holder["fs"])))
            return real_flush()

        device.flush = spying_flush
        fs = RAEFilesystem(device, RAEConfig(profile=4))
        holder["fs"] = fs
        # Nothing is installed until op 1 starts.
        assert not fs.profiler.armed and _wrapped_attrs(fs) == []
        fd = fs.open("/f", flags=OpenFlags.CREAT)  # op 1, sampled
        for _ in (2, 3):
            assert _wrapped_attrs(fs) == []
            assert not fs.profiler.armed
            fs.write(fd, b"z" * 100)  # ops 2 and 3
        fs.fsync(fd)  # op 4, not sampled
        unsampled = len(holder["during"])
        assert unsampled and set(holder["during"]) == {0}
        assert _wrapped_attrs(fs) == [] and not fs.profiler.armed
        fs.fsync(fd)  # op 5, sampled: all 41 wrappers while it runs
        assert set(holder["during"][unsampled:]) == {41}
        assert _wrapped_attrs(fs) == [] and not fs.profiler.armed
        assert fs.profiler.ops == 2
        fs.close(fd)
        fs.unmount()  # not a sampled op: nothing wraps it
        assert fs.profiler.ops == 2

    def test_only_supervisor_ops_are_sampled(self):
        """``FsOp.apply`` follows an ``open`` with ``fstat_ino``, which
        bypasses the supervisor's ``_call``; it never runs wrapped, so
        ``ops`` counts exactly the sampled supervisor ops."""
        from repro.api import FsOp

        fs = RAEFilesystem(formatted_device(4096), RAEConfig(profile=2))
        for seq in range(1, 10):
            FsOp("open", {"path": f"/f{seq}", "flags": int(OpenFlags.CREAT), "perms": 0o644}).apply(fs)
            assert _wrapped_attrs(fs) == []
        assert fs.seq == 9
        assert fs.profiler.ops == fs.profiler.calls["api"] == len(range(1, 10, 2))

    def test_detach_while_sampling_removes_every_wrapper(self):
        fs = RAEFilesystem(formatted_device(4096), RAEConfig(profile=4))
        for name in ("a", "b", "c", "d"):
            fs.mkdir(f"/{name}")
        profiler = fs.profiler
        profiler.arm()  # as op 5's start does
        assert len(_wrapped_attrs(fs)) == 41
        profiler.detach()
        assert _wrapped_attrs(fs) == []
        for seq in range(5, 14):  # spans two more sample points
            fs.mkdir(f"/e{seq}")
            assert _wrapped_attrs(fs) == []
        assert profiler.ops == 1
        assert len(fs.readdir("/")) == 13

    @pytest.mark.parametrize("every, ops", [(2, 9), (4, 16), (5, 23), (64, 200)])
    def test_sample_count_is_deterministic(self, every, ops):
        fs = RAEFilesystem(formatted_device(4096), RAEConfig(profile=every))
        for seq in range(1, ops + 1):
            if seq % 3:
                fs.mkdir(f"/d{seq}")
            else:
                with pytest.raises(FsError):  # an errno op still counts
                    fs.rmdir(f"/missing{seq}")
        assert fs.seq == ops
        # First op, then the op after every N-th.
        assert fs.profiler.ops == len(range(1, ops + 1, every))
        assert fs.profiler.calls["api"] == fs.profiler.ops

    def test_sampled_op_is_attributed_exactly(self):
        """On a fake clock, the sampled op N+1 gets the same per-layer
        self-time as the same op in exact mode."""
        deltas = []
        for profile in (1, 8):
            fs = RAEFilesystem(
                formatted_device(4096), RAEConfig(profile=profile),
                obs=Registry(clock=FakeClock()),
            )
            fd = fs.open("/f", flags=OpenFlags.CREAT)
            for _ in range(6):
                fs.write(fd, b"q" * 5000)
            fs.read(fd, 10)  # op 8
            before = dict(fs.profiler.self_seconds)
            fs.fsync(fd)  # op 9: sampled in both runs
            deltas.append({
                layer: fs.profiler.self_seconds[layer] - before[layer]
                for layer in LAYERS
            })
        assert deltas[0]["journal"] > 0 and deltas[0]["device"] > 0
        assert deltas[0] == deltas[1]

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_sampled_shares_match_exact_mode(self, seed):
        """Bound: with N=64 on a 2,000-op varmail stream (~32 supervisor
        ops sampled) every layer's share is within 0.12 of exact mode.
        Seeds 1-8 measured a largest error of 0.014-0.112."""
        from repro.workloads import WorkloadGenerator, varmail_profile

        operations = WorkloadGenerator(varmail_profile(), seed=seed).ops(2000)
        shares = []
        for profile in (1, 64):
            fs = RAEFilesystem(
                formatted_device(4096), RAEConfig(profile=profile),
                obs=Registry(clock=FakeClock()),
            )
            for index, operation in enumerate(operations):
                operation.apply(fs, opseq=index + 1)
            summary = fs.profiler.layer_summary()
            shares.append({layer: summary[layer]["share"] for layer in LAYERS})
        exact, sampled = shares
        for layer in LAYERS:
            assert sampled[layer] == pytest.approx(exact[layer], abs=0.12), layer

    def test_recovery_in_a_sampled_op_rewraps_then_disarms(self):
        from repro.basefs.hooks import HookPoints

        hooks = HookPoints()
        crash_on_name(hooks, "evil")
        fs = RAEFilesystem(formatted_device(4096), RAEConfig(profile=4), hooks=hooks)
        seen = []
        # Runs after the profiler's own on_reboot callback.
        fs.on_reboot.append(lambda base: seen.append(_wrapped_attrs(fs)))
        for name in ("a", "b", "c", "d"):
            fs.mkdir(f"/{name}")
        old_base = fs.base
        fs.mkdir("/evil-dir")  # op 5, sampled: contained reboot inside
        assert fs.recovery_count == 1 and fs.base is not old_base
        assert "base.mkdir" in seen[0] and "page_cache.lookup" in seen[0]
        assert _wrapped_attrs(fs) == []
        assert not fs.profiler.armed
        assert fs.profiler.ops == 2
        assert fs.readdir("/") == ["a", "b", "c", "d", "evil-dir"]

    def test_recovery_between_samples_wraps_nothing(self):
        from repro.basefs.hooks import HookPoints

        hooks = HookPoints()
        crash_on_name(hooks, "evil")
        fs = RAEFilesystem(formatted_device(4096), RAEConfig(profile=4), hooks=hooks)
        seen = []
        fs.on_reboot.append(lambda base: seen.append(_wrapped_attrs(fs)))
        fs.mkdir("/a")
        fs.mkdir("/evil-dir")  # op 2, not sampled
        assert fs.recovery_count == 1
        assert seen == [[]]
        fs.mkdir("/b")
        fs.mkdir("/c")
        assert _wrapped_attrs(fs) == []
        vfs_calls = fs.profiler.calls["vfs"]
        fs.mkdir("/after")  # op 5: the new base's wrappers attribute it
        assert fs.profiler.calls["vfs"] > vfs_calls
        assert _wrapped_attrs(fs) == []
        assert fs.profiler.ops == 2
