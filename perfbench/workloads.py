"""The benchmark's three workloads, the seeded op streams they run, and
the set-up every pass shares.

Each workload is a filebench-style profile from ``repro.workloads`` on
a device sized for it, plus a fault plan: a ``HookPoints`` handler
registered after prepopulation that raises ``KernelBug`` on every
``fault_every``-th firing of ``fault_hook`` while it is armed.  On
``fault_recovery`` it is armed for the whole measured stream; on the
other two it is armed only for the recovery probe that follows the
common-case segment (see README.md for why).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, replace
from typing import Callable

from repro.api import FsOp
from repro.basefs.hooks import HookPoints
from repro.blockdev.device import MemoryBlockDevice
from repro.core.supervisor import RAEConfig, RAEFilesystem
from repro.errors import KernelBug
from repro.ondisk.mkfs import mkfs
from repro.workloads import (
    Profile,
    WorkloadGenerator,
    fileserver_profile,
    varmail_profile,
    webserver_profile,
)

#: Faulted ops every run measures: p95 then has 18 samples beyond it.
MIN_FAULTED_OPS = 360


def read_large_profile() -> Profile:
    """Webserver mix over 1,200 files of 16 KiB (4,800 pages, 1.17x the
    4,096-page cache), read 16 KiB at a time."""
    return replace(
        webserver_profile(),
        name="read_large",
        prepopulate_files=1200,
        file_size_blocks=(8, 8),
        io_size=(16384, 16384),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    profile: Callable[[], Profile]
    block_count: int
    fault_hook: str
    fault_every: int
    # True: the fault plan is armed for the timed segment itself.
    # False: it is armed only for the recovery probe after it.
    faults_in_timed: bool
    # Ops the timed segment runs per second of ``--seconds``: about the
    # rate measured on a 2-core x86 VM, so a run takes about that long,
    # while parent and change always do the same work at one seed.
    nominal_rate: int
    # Extra pre-generated ops per round for the faulted ops it must run.
    fault_allowance: int
    track_durability: bool = False


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="read_large",
            profile=read_large_profile,
            block_count=16384,
            fault_hook="vfs.open",
            fault_every=4,
            faults_in_timed=False,
            nominal_rate=1000,
            fault_allowance=3000,
        ),
        Workload(
            name="append_fsync",
            profile=varmail_profile,
            block_count=8192,
            fault_hook="vfs.open",
            fault_every=4,
            faults_in_timed=False,
            nominal_rate=3000,
            fault_allowance=3000,
            track_durability=True,
        ),
        Workload(
            name="fault_recovery",
            profile=fileserver_profile,
            block_count=16384,
            fault_hook="dir.insert",
            fault_every=5,
            faults_in_timed=True,
            nominal_rate=2000,
            fault_allowance=8000,
        ),
    )
}


@dataclass
class Stream:
    """The seeded inputs of one run: setup ops, then the measured ops."""

    prepopulate: list[FsOp]
    measured: list[FsOp]


def timed_ops(workload: Workload, seconds: float) -> int:
    """Op count of the timed segment for a ``--seconds`` run."""
    return max(1, round(seconds * workload.nominal_rate))


def make_stream(workload: Workload, seed: int, measured_ops: int) -> Stream:
    """Generate the run's inputs, then freeze them out of the cyclic
    garbage collector: the benchmark's own op list must not lengthen
    the collections the program under test pays for."""
    generator = WorkloadGenerator(workload.profile(), seed=seed)
    prepopulate = generator.prepopulate()
    stream = generator.stream()
    result = Stream(prepopulate, [next(stream) for _ in range(measured_ops)])
    gc.collect()
    gc.freeze()
    return result


class EveryNth:
    """Hook handler: raise ``KernelBug`` on every ``every``-th firing
    while armed.  ``fired`` counts the bugs raised, so the driver can
    tell which ops' base execution hit one."""

    def __init__(self, every: int):
        self.every = every
        self.armed = False
        self.calls = 0
        self.fired = 0

    def __call__(self, point: str, ctx: dict) -> None:
        if not self.armed:
            return
        self.calls += 1
        if self.calls % self.every == 0:
            self.fired += 1
            raise KernelBug(f"injected at {point} firing {self.calls}", bug_id="perfbench")


@dataclass
class Mounted:
    """A formatted, mounted, prepopulated supervisor ready to measure."""

    fs: RAEFilesystem
    device: MemoryBlockDevice
    injector: EveryNth
    # The supervisor sequence number each executed op ran under, setup
    # ops included; the spec replays every op under the same number so
    # logical timestamps compare exactly.
    seqs: list[int]


def format_device(workload: Workload) -> MemoryBlockDevice:
    device = MemoryBlockDevice(
        block_count=workload.block_count, track_durability=workload.track_durability
    )
    mkfs(device)
    return device


def set_up(workload: Workload, stream: Stream, config: RAEConfig | None = None) -> Mounted:
    """Format, mount and prepopulate: what ``setup_s`` times."""
    device = format_device(workload)
    hooks = HookPoints()
    fs = RAEFilesystem(device, config=config, hooks=hooks)
    seqs: list[int] = []
    for index, operation in enumerate(stream.prepopulate):
        seqs.append(fs.seq + 1)
        outcome = operation.apply(fs)
        if outcome.errno is not None:
            raise RuntimeError(
                f"prepopulation op {index} {operation.describe()} failed: {outcome.errno.name}"
            )
    injector = EveryNth(workload.fault_every)
    hooks.register(workload.fault_hook, injector)
    return Mounted(fs, device, injector, seqs)


def obs_off_config() -> RAEConfig:
    """All observability off: the arm ``obs.overhead_frac`` compares with."""
    return RAEConfig(metrics=False, profile=False, flight=False)
