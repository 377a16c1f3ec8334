"""A writer-preferring read-write lock for the engine's session state.

Sessions are read-mostly: many threads execute queries (reads of the memoized
artifacts) while ``configure()`` / ``invalidate()`` writes are rare.  A plain
mutex would serialise the readers' snapshot step; :class:`ReadWriteLock` lets
any number of readers proceed together while giving waiting writers
preference, so a steady query stream cannot starve a reconfiguration.

The lock is intentionally non-reentrant — the engine's locking discipline is
to acquire it once at the public boundary (``snapshot``, ``configure``, the
artifact properties) and do all nested work through unlocked internal
helpers.  Lock *upgrades* are expressed as release-then-reacquire with a
double-check, never by holding both modes at once.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

__all__ = ["ReadWriteLock"]


class ReadWriteLock:
    """Multiple-reader / single-writer lock with writer preference."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._active_readers = 0
        self._writer_active = False
        self._waiting_writers = 0

    def acquire_read(self, blocking: bool = True) -> bool:
        """Join the readers once no writer is active or waiting; returns ``True``.

        With ``blocking=False`` (as in :meth:`threading.Lock.acquire`) it
        never waits on a writer: it returns ``False`` at once while one is
        active or waiting, and the caller holds nothing.
        """
        with self._cond:
            while self._writer_active or self._waiting_writers:
                if not blocking:
                    return False
                self._cond.wait()
            self._active_readers += 1
            return True

    def release_read(self) -> None:
        """Leave the reader group, waking writers when the group drains."""
        with self._cond:
            self._active_readers -= 1
            if self._active_readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        """Block until the lock is exclusively ours."""
        with self._cond:
            self._waiting_writers += 1
            try:
                while self._writer_active or self._active_readers:
                    self._cond.wait()
            finally:
                self._waiting_writers -= 1
            self._writer_active = True

    def release_write(self) -> None:
        """Release exclusive ownership and wake everyone waiting."""
        with self._cond:
            self._writer_active = False
            self._cond.notify_all()

    @contextmanager
    def read_locked(self):
        """``with lock.read_locked():`` — shared (reader) critical section."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self):
        """``with lock.write_locked():`` — exclusive (writer) critical section."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()
