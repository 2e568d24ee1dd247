"""The correctness gate every run ends with.

1. Every measured op's outcome (errno, read bytes, fds, offsets, sorted
   directory listings) equals the ``SpecFilesystem``'s for the same op.
2. ``append_fsync`` only: the device's durable image taken after the
   timed segment (what a power cut then would leave) mounts and passes
   fsck, and every byte a completed ``fsync`` acknowledged before that
   point, on a file still in the stream's model, reads back.
3. The supervisor unmounts and ``Fsck`` finds no error.
4. The remounted image's logical state equals the spec's: namespace,
   type, size, nlink, perms, timestamps, link structure and content.
   The spec replays each op under the supervisor sequence number it ran
   under, so the two logical clocks agree (see README.md).
5. ``fault_recovery`` only: that state also equals the state an
   unfaulted supervisor reaches on the same ops, timestamps included.

``check`` returns the problems found; an empty list means correct.
"""

from __future__ import annotations

from repro.basefs.filesystem import BaseFilesystem
from repro.blockdev.device import MemoryBlockDevice
from repro.core.supervisor import RAEFilesystem
from repro.errors import FsError
from repro.fsck.checker import Fsck
from repro.spec.equivalence import capture_state, states_equivalent
from repro.spec.model import SpecFilesystem

from perfbench.driver import Driver, digest
from perfbench.workloads import Stream, Workload, format_device, obs_off_config

_MAX_LISTED = 5


def durable_image(device: MemoryBlockDevice) -> bytes:
    """The image a power cut would leave now; the live device keeps its
    volatile contents, so the mounted filesystem is undisturbed."""
    volatile = device.snapshot()
    device.crash()
    durable = device.snapshot()
    device.restore(volatile)
    return durable


def _read_all(fs, path: str) -> bytes:
    fd = fs.open(path)
    try:
        return fs.read(fd, fs.stat(path).size)
    finally:
        fs.close(fd)


def _replay_spec(stream: Stream, driver: Driver, crash_at: int | None, problems: list[str]):
    """Replay the executed ops on the spec and compare outcomes.  Returns
    the spec and, when ``crash_at`` is given, the content each completed
    fsync before measured op ``crash_at`` acknowledged, by path, for the
    files that still exist at that point."""
    spec = SpecFilesystem()
    seqs = driver.mounted.seqs
    setup_ops = len(stream.prepopulate)
    executed = stream.prepopulate + stream.measured[: driver.next]
    fd_paths: dict[int, str] = {}
    acked: dict[str, bytes] = {}
    live_acked: dict[str, bytes] = {}
    mismatches = 0
    for index, operation in enumerate(executed):
        measured = index - setup_ops
        if measured == crash_at:
            live_acked = {path: data for path, data in acked.items() if _exists(spec, path)}
        outcome = operation.apply(spec, opseq=seqs[index])
        if measured < 0:
            continue
        if crash_at is not None and measured < crash_at and outcome.errno is None:
            if operation.name == "open":
                fd_paths[outcome.value] = operation.args["path"]
            elif operation.name == "fsync" and operation.args["fd"] in fd_paths:
                path = fd_paths[operation.args["fd"]]
                acked[path] = _read_all(spec, path)
        got = driver.digests[measured]
        if got != digest(outcome):
            mismatches += 1
            if mismatches <= _MAX_LISTED:
                problems.append(
                    f"op {measured} {operation.describe()}: supervisor gave {got!r}, "
                    f"spec gave {digest(outcome)!r}"
                )
    if mismatches > _MAX_LISTED:
        problems.append(f"... {mismatches} op outcomes differ from the spec in all")
    return spec, live_acked


def _exists(fs, path: str) -> bool:
    try:
        fs.lstat(path)
    except FsError:
        return False
    return True


def _check_durability(workload: Workload, image: bytes, acked: dict, problems: list[str]) -> None:
    if not acked:
        problems.append("durability: no fsync completed before the crash point, nothing was checked")
        return
    device = MemoryBlockDevice(block_count=workload.block_count)
    device.restore(image)
    base = BaseFilesystem(device)
    lost = 0
    for path in sorted(acked):
        want = acked[path]
        got = _read_all(base, path) if _exists(base, path) else b""
        if got[: len(want)] != want:
            lost += 1
            if lost <= _MAX_LISTED:
                problems.append(
                    f"durability: {path} had {len(want)} bytes acknowledged by fsync; "
                    f"the crashed image holds {len(got)} bytes that differ"
                )
    base.unmount()
    report = Fsck(device).run()
    if not report.clean:
        problems.append("durability: fsck of the crashed image: " + "; ".join(map(str, report.errors[:_MAX_LISTED])))


def _state_after_unmount(fs: RAEFilesystem, device, problems: list[str], label: str):
    fs.unmount()
    report = Fsck(device).run()
    if not report.clean:
        problems.append(f"{label}: fsck: " + "; ".join(map(str, report.errors[:_MAX_LISTED])))
    return capture_state(BaseFilesystem(device))


def _reference_state(workload: Workload, stream: Stream, driver: Driver, problems: list[str]):
    """The end state of an unfaulted supervisor on the same ops."""
    device = format_device(workload)
    fs = RAEFilesystem(device, config=obs_off_config())
    for operation in stream.prepopulate + stream.measured[: driver.next]:
        operation.apply(fs)
    return _state_after_unmount(fs, device, problems, "unfaulted reference")


def check(workload: Workload, stream: Stream, driver: Driver, crash: tuple[bytes, int] | None = None) -> list[str]:
    """Run the whole gate on a finished run; returns the problems.

    ``crash`` is the durable image taken with :func:`durable_image` and
    the number of measured ops run when it was taken."""
    problems: list[str] = []
    try:
        _check(workload, stream, driver, crash, problems)
    except Exception as exc:  # a run broken past checking is itself the finding
        problems.append(f"the correctness check could not finish: {exc!r}")
    return problems


def _check(workload: Workload, stream: Stream, driver: Driver, crash, problems: list[str]) -> None:
    mounted = driver.mounted
    crash_at = crash[1] if crash is not None else None
    spec, acked = _replay_spec(stream, driver, crash_at, problems)
    want = capture_state(spec)
    got = _state_after_unmount(mounted.fs, mounted.device, problems, "end state")
    report = states_equivalent(got, want)
    if not report.equivalent:
        problems.append(f"end state vs spec: {report}")
    if crash is not None:
        _check_durability(workload, crash[0], acked, problems)
    if workload.faults_in_timed:
        reference = _reference_state(workload, stream, driver, problems)
        report = states_equivalent(got, reference)
        if not report.equivalent:
            problems.append(f"faulted end state vs unfaulted run: {report}")
