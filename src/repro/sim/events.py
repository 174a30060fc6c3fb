"""Event records for the simulation engine."""

from __future__ import annotations

from collections.abc import Callable

__all__ = ["Event", "EventHandle"]


class Event:
    """A scheduled callback, ordered in the heap by ``(time, priority, seq)``.

    Earlier time fires first, then the lower priority number, then the
    earlier insertion (``seq``).  ``action``, ``label`` and ``cancelled``
    take no part in the order.  The class is slotted and its ``__lt__``
    is written out with an early exit, because ``heapq`` calls it about
    log2(heap size) times per push and pop: most comparisons are decided
    by ``time`` alone.
    """

    __slots__ = ("time", "priority", "seq", "action", "label", "cancelled")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        action: Callable[[], None],
        label: str = "",
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.action = action
        self.label = label
        self.cancelled = cancelled

    def __lt__(self, other: Event) -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, priority={self.priority!r}, seq={self.seq!r}, "
            f"label={self.label!r}, cancelled={self.cancelled!r})"
        )


class EventHandle:
    """Opaque handle returned by :meth:`Engine.schedule`; supports cancellation.

    Cancellation is lazy: the event stays in the heap but is skipped when
    popped, which keeps ``cancel`` O(1).
    """

    __slots__ = ("_event",)

    def __init__(self, event: Event) -> None:
        self._event = event

    @property
    def time(self) -> float:
        """Scheduled firing time."""
        return self._event.time

    @property
    def label(self) -> str:
        """Diagnostic label given at scheduling time."""
        return self._event.label

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent)."""
        self._event.cancelled = True
