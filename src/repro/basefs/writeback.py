"""The write-back daemon.

Models the kernel's flusher threads deterministically: the RAE supervisor
calls :meth:`WritebackDaemon.tick` after every operation, and the daemon
decides when the base should commit — on dirty-page pressure, on dirty
metadata pressure (bounding journal transaction size), or on a dirty
age-out interval.  All thresholds are in operation counts, not wall time,
so every run of an experiment commits at exactly the same points.

The *gap* between the application's view and the on-disk state — the
thing the op log records — is precisely the state accumulated between
ticks that trigger and ticks that do not; the op-log benchmark sweeps
these thresholds to show the trade-off the paper implies (more buffering
= better batching but a longer operation sequence to replay).

A tick that does not commit is O(1): the page, inode and buffer caches
each own their dirty set, so ``dirty_page_count()`` and
``dirty_metadata_count()`` read set sizes instead of rescanning the
caches after every op.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class WritebackPolicy:
    """Commit triggers; any one firing causes a commit at the next tick."""

    dirty_page_high_water: int = 64
    dirty_metadata_high_water: int = 32
    commit_interval_ops: int = 50

    def __post_init__(self):
        if min(self.dirty_page_high_water, self.dirty_metadata_high_water, self.commit_interval_ops) <= 0:
            raise ValueError("writeback thresholds must be positive")


@dataclass
class WritebackStats:
    ticks: int = 0
    commits: int = 0
    pressure_commits: int = 0
    interval_commits: int = 0


class WritebackDaemon:
    """Tick-driven flusher.  ``fs`` is any object exposing
    ``dirty_page_count()``, ``dirty_metadata_count()`` and ``commit()``."""

    def __init__(self, fs, policy: WritebackPolicy | None = None):
        self.fs = fs
        self.policy = policy or WritebackPolicy()
        self.stats = WritebackStats()
        self._ops_since_commit = 0

    def note_commit(self) -> None:
        """External commit happened (fsync) — restart the interval clock."""
        self._ops_since_commit = 0

    def tick(self) -> bool:
        """One post-operation tick; returns True if a commit was issued."""
        self.stats.ticks += 1
        self._ops_since_commit += 1

        pressure = (
            self.fs.dirty_page_count() >= self.policy.dirty_page_high_water
            or self.fs.dirty_metadata_count() >= self.policy.dirty_metadata_high_water
        )
        interval = self._ops_since_commit >= self.policy.commit_interval_ops
        if not pressure and not interval:
            return False

        self.fs.commit()
        self.stats.commits += 1
        if pressure:
            self.stats.pressure_commits += 1
        else:
            self.stats.interval_commits += 1
        self._ops_since_commit = 0
        return True
