"""Reader/writer lock for the shared engine.

The paper's array library runs inside SQL Server, whose lock manager
lets any number of readers scan a table while writers are serialized
(the Table 1 queries even opt *out* of shared locks with ``WITH
(NOLOCK)``).  This module supplies the primitive the engine's latch
hierarchy (:mod:`repro.engine.latches`) is built from: a
writer-preferring reader/writer lock taken at statement granularity —
one guards the catalog, one guards each table.

Readers share; writers are exclusive.  Writer preference keeps a
steady stream of analytical scans from starving writers and catalog
changes.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

from . import lockcheck

__all__ = ["RWLock"]


class RWLock:
    """A writer-preferring reader/writer lock.

    Any number of threads may hold the read side at once; the write
    side is exclusive against both readers and other writers.  Once a
    writer is waiting, new readers queue behind it.

    Not reentrant on the write side, and a read holder must not try to
    take the write side (classic upgrade deadlock) — callers lock at
    statement granularity, entering once per statement.

    Args:
        lock_class: Sentinel identity (``REPRO_LOCK_CHECK=1``, see
            :mod:`repro.engine.lockcheck`): the latch hierarchy passes
            ``"catalog"`` or ``"table"``.  An unclassed lock is
            invisible to the sentinel.
        lock_name: Instance name within the class (the table name).
    """

    def __init__(self, lock_class: str | None = None,
                 lock_name: str | None = None) -> None:
        self._cond = threading.Condition(threading.Lock())
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0
        self.lock_class = lock_class
        self.lock_name = lock_name

    # -- read side -----------------------------------------------------------

    def acquire_read(self, timeout: float | None = None) -> bool:
        """Take the shared side; returns False on timeout."""
        lockcheck.note_acquire(self.lock_class, self.lock_name)
        with self._cond:
            ok = self._cond.wait_for(
                lambda: not self._writer and not self._writers_waiting,
                timeout)
            if not ok:
                lockcheck.note_release(self.lock_class, self.lock_name)
                return False
            self._readers += 1
            return True

    def release_read(self) -> None:
        with self._cond:
            if self._readers <= 0:
                raise RuntimeError("release_read without a read holder")
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()
        lockcheck.note_release(self.lock_class, self.lock_name)

    @contextmanager
    def read_lock(self) -> Iterator["RWLock"]:
        """``with lock.read_lock(): ...`` — shared access."""
        self.acquire_read()
        try:
            yield self
        finally:
            self.release_read()

    # -- write side -----------------------------------------------------------

    def acquire_write(self, timeout: float | None = None) -> bool:
        """Take the exclusive side; returns False on timeout."""
        lockcheck.note_acquire(self.lock_class, self.lock_name)
        with self._cond:
            self._writers_waiting += 1
            try:
                ok = self._cond.wait_for(
                    lambda: not self._writer and self._readers == 0,
                    timeout)
                if not ok:
                    lockcheck.note_release(self.lock_class,
                                           self.lock_name)
                    return False
                self._writer = True
                return True
            finally:
                self._writers_waiting -= 1

    def release_write(self) -> None:
        with self._cond:
            if not self._writer:
                raise RuntimeError("release_write without the write holder")
            self._writer = False
            self._cond.notify_all()
        lockcheck.note_release(self.lock_class, self.lock_name)

    @contextmanager
    def write_lock(self) -> Iterator["RWLock"]:
        """``with lock.write_lock(): ...`` — exclusive access."""
        self.acquire_write()
        try:
            yield self
        finally:
            self.release_write()
