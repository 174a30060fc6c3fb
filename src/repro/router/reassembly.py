"""SRU reassembly buffers.

The egress SRU collects a packet's fabric cells and reassembles them
(Section 2).  Modeling the buffer explicitly -- rather than counting
cells in a closure -- buys three behaviours the dependability story
cares about:

* an SRU that fails mid-reassembly destroys its partial packets (the
  in-flight loss the Markov models charge to the PI-unit failure);
* incomplete reassemblies (cells lost to a fabric outage) are garbage
  collected by a timeout instead of leaking state;
* per-LC reassembly occupancy is observable for tests and stats.

Timeouts cost no heap entry per packet.  Every reassembly gets the same
deadline, ``now + timeout``, when its first cell arrives, and ``now``
never decreases, so the buffer keeps its open reassemblies in one FIFO
that is already in deadline order.  At most one engine event per buffer
(labelled ``sru:reassembly-timeout``) is pending, for the earliest
deadline not yet known to be dead.  Completion only forgets the entry
(:meth:`flush` forgets all of them and empties the FIFO), and the next
reassembly to open drops the dead entries at the head of the FIFO.  The wake-up walks the FIFO in arm
order, skips entries that are no longer live (completed, flushed, or
reopened by a straggler cell), aborts every live one whose deadline has
come, and re-arms for the next live deadline.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

from repro.router.packets import Cell
from repro.sim import Engine

__all__ = ["ReassemblyBuffer", "PendingReassembly"]


@dataclass
class PendingReassembly:
    """One packet's in-progress reassembly state."""

    pkt_id: int
    total_cells: int
    deadline: float
    received: int = 0
    on_complete: Callable[[], None] | None = None
    on_abort: Callable[[str], None] | None = None


class ReassemblyBuffer:
    """Per-SRU cell reassembly with timeout-based garbage collection."""

    def __init__(self, engine: Engine, *, timeout_s: float = 5e-3) -> None:
        if timeout_s <= 0.0:
            raise ValueError(f"timeout must be positive, got {timeout_s}")
        self._engine = engine
        self._timeout = timeout_s
        self._pending: dict[int, PendingReassembly] = {}
        #: open reassemblies in arm (= deadline) order; entries that
        #: completed or were flushed leave lazily, from the head
        self._deadlines: deque[PendingReassembly] = deque()
        #: True while a wake-up event is scheduled
        self._armed = False
        self.completed = 0
        self.timed_out = 0
        self.flushed = 0

    @property
    def occupancy(self) -> int:
        """Packets currently being reassembled."""
        return len(self._pending)

    def is_pending(self, pkt_id: int) -> bool:
        """True while ``pkt_id`` has an open reassembly."""
        return pkt_id in self._pending

    def add_cell(
        self,
        cell: Cell,
        on_complete: Callable[[], None],
        on_abort: Callable[[str], None] | None = None,
    ) -> None:
        """Account one arriving cell; fires ``on_complete`` on the last.

        The first cell of a packet opens the reassembly and arms its
        timeout; cells of an already-dropped packet are ignored (their
        reassembly no longer exists).  ``on_abort`` fires with a reason
        string when the reassembly dies by timeout or flush.
        """
        pending = self._pending
        entry = pending.get(cell.pkt_id)
        if entry is None:
            entry = PendingReassembly(
                pkt_id=cell.pkt_id,
                total_cells=cell.total,
                deadline=self._engine.now + self._timeout,
                on_complete=on_complete,
                on_abort=on_abort,
            )
            pending[cell.pkt_id] = entry
            # Release finished packets now rather than at the next
            # wake-up, so none is kept alive for the whole timeout.
            self._live_head()
            self._deadlines.append(entry)
            if not self._armed:
                self._arm(entry.deadline)
        entry.received += 1
        if entry.received >= entry.total_cells:
            del pending[cell.pkt_id]
            self.completed += 1
            complete = entry.on_complete
            if complete is not None:
                complete()

    def flush(self) -> int:
        """Destroy every in-progress reassembly (SRU failure); returns the
        number of partial packets lost."""
        entries = list(self._pending.values())
        self._pending.clear()
        self._deadlines.clear()
        for entry in entries:
            if entry.on_abort is not None:
                entry.on_abort("flush")
        self.flushed += len(entries)
        return len(entries)

    def _arm(self, deadline: float) -> None:
        self._armed = True
        self._engine.schedule(deadline, self._wake, label="sru:reassembly-timeout")

    def _live_head(self) -> PendingReassembly | None:
        """Drop the dead entries (completed, flushed or reopened) at the
        head of the FIFO; return the first live one, if any."""
        pending = self._pending
        deadlines = self._deadlines
        while deadlines:
            entry = deadlines[0]
            if pending.get(entry.pkt_id) is entry:
                return entry
            deadlines.popleft()
        return None

    def _wake(self) -> None:
        """Abort every live reassembly whose deadline has come, in arm
        order, then re-arm for the next live deadline."""
        self._armed = False
        now = self._engine.now
        while (entry := self._live_head()) is not None and entry.deadline <= now:
            self._deadlines.popleft()
            del self._pending[entry.pkt_id]
            self.timed_out += 1
            if entry.on_abort is not None:
                entry.on_abort("timeout")
        if entry is not None and not self._armed:
            self._arm(entry.deadline)
