"""A shared-memory heartbeat board: who is running what, since when.

The watchdog problem is inverted visibility: the parent knows which
*futures* are outstanding but not which *worker* is executing which cell
or for how long -- a hung cell and a deeply queued cell look identical
from the executor API.  The board closes that gap with one fixed-width
slot per pool worker in a :mod:`multiprocessing.shared_memory` segment:

* at pool init each worker claims a slot (an externally allocated index)
  and stamps its pid;
* at cell start it writes ``(pid, cell_index + 1, start_ns)``; at cell
  end it zeroes the cell field;
* the parent polls slots and compares ``start_ns`` against its own
  clock.

Timestamps are ``time.monotonic_ns()``.  On Linux that is
``CLOCK_MONOTONIC``, whose epoch is the boot time *of the machine*, not
of the process -- so a worker's stamp is directly comparable to the
parent's reading, with no cross-process clock handshake.  (The sweep's
worker pools are same-host by construction; the future distributed
fabric will need heartbeats *messages*, not shared clocks.)

Slots are written lock-free: each slot has exactly one writer (its
worker), and the parent only reads.  A torn read across the three
8-byte fields is theoretically possible and practically harmless -- the
watchdog double-reads an overdue slot across a confirmation delay and
only reaps when both reads agree on (pid, cell, start), so a slot caught
mid-update simply waits one more poll.
"""

from __future__ import annotations

import struct
import time
from multiprocessing import shared_memory
from typing import List, Optional, Tuple

#: Header: slot count.
_HEADER = struct.Struct("<Q")
#: Slot: worker pid, active cell index + 1 (0 = idle), start monotonic ns.
#: The start is signed: on a freshly booted host a stamp backdated past
#: the monotonic epoch (boot) is negative and must still pack.
_SLOT = struct.Struct("<QQq")
_DATA_OFFSET = 16


class HeartbeatBoard:
    """One slot per worker; see the module docstring for the protocol."""

    def __init__(
        self, shm: shared_memory.SharedMemory, slots: int, owner: bool
    ) -> None:
        self.shm = shm
        self.slots = slots
        self._owner = owner

    # -- construction --------------------------------------------------
    @classmethod
    def create(cls, slots: int) -> "HeartbeatBoard":
        if slots < 1:
            raise ValueError("heartbeat board needs at least one slot")
        size = _DATA_OFFSET + slots * _SLOT.size
        shm = shared_memory.SharedMemory(create=True, size=size)
        shm.buf[:size] = b"\x00" * size
        _HEADER.pack_into(shm.buf, 0, slots)
        return cls(shm, slots, owner=True)

    @classmethod
    def attach(cls, name: str) -> "HeartbeatBoard":
        shm = shared_memory.SharedMemory(name=name)
        (slots,) = _HEADER.unpack_from(shm.buf, 0)
        return cls(shm, slots, owner=False)

    @property
    def name(self) -> str:
        return self.shm.name

    # -- worker side ---------------------------------------------------
    def _write(self, slot: int, pid: int, cell_plus1: int, start_ns: int) -> None:
        _SLOT.pack_into(
            self.shm.buf, _DATA_OFFSET + slot * _SLOT.size, pid, cell_plus1, start_ns
        )

    def claim(self, slot: int, pid: int) -> None:
        """Register this worker in its slot (idle, no active cell)."""
        if not 0 <= slot < self.slots:
            raise ValueError(f"slot {slot} outside board of {self.slots}")
        self._write(slot, pid, 0, 0)

    def begin(self, slot: int, pid: int, cell_index: int) -> None:
        """Stamp the start of one cell execution."""
        self._write(slot, pid, cell_index + 1, time.monotonic_ns())

    def clear(self, slot: int, pid: int) -> None:
        """Mark the slot idle again (cell finished, however it finished)."""
        self._write(slot, pid, 0, 0)

    # -- parent side ---------------------------------------------------
    def read(self, slot: int) -> Tuple[int, int, int]:
        """Raw slot contents: (pid, cell_index + 1, start_ns)."""
        return _SLOT.unpack_from(self.shm.buf, _DATA_OFFSET + slot * _SLOT.size)

    def active(self) -> List[Tuple[int, int, int, int]]:
        """Every busy slot as (slot, pid, cell_index, start_ns)."""
        out = []
        for slot in range(self.slots):
            pid, cell_plus1, start_ns = self.read(slot)
            if pid and cell_plus1:
                out.append((slot, pid, cell_plus1 - 1, start_ns))
        return out

    def overdue(
        self, timeout_s: float, now_ns: Optional[int] = None
    ) -> List[Tuple[int, int, int, int]]:
        """Busy slots whose cell has exceeded the deadline, as
        (slot, pid, cell_index, start_ns)."""
        if now_ns is None:
            now_ns = time.monotonic_ns()
        limit_ns = int(timeout_s * 1_000_000_000)
        return [
            entry for entry in self.active() if now_ns - entry[3] > limit_ns
        ]

    # -- lifecycle ------------------------------------------------------
    def destroy(self) -> None:
        """Close, and unlink if this end owns the segment."""
        try:
            self.shm.close()
        finally:
            if self._owner:
                try:
                    self.shm.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
