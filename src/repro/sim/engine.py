"""The event loop: a monotonic clock over a binary heap of events."""

from __future__ import annotations

import heapq
from collections.abc import Callable

from repro.obs import trace as _trace
from repro.sim.events import Event, EventHandle

__all__ = ["Engine", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on scheduling into the past or on runaway event storms."""


class Engine:
    """Discrete-event simulation engine.

    Examples
    --------
    >>> eng = Engine()
    >>> fired = []
    >>> _ = eng.schedule(2.0, lambda: fired.append(eng.now))
    >>> _ = eng.schedule(1.0, lambda: fired.append(eng.now))
    >>> eng.run()
    >>> fired
    [1.0, 2.0]
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[Event] = []
        self._seq = 0
        self._events_processed = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total events fired since construction."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Events still queued (including lazily cancelled ones)."""
        return len(self._queue)

    def schedule(
        self,
        time: float,
        action: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``action`` to fire at absolute ``time``.

        ``priority`` breaks ties at equal times (lower fires first);
        insertion order breaks remaining ties.  Scheduling strictly in the
        past raises :class:`SimulationError`; scheduling at the current
        instant is allowed (the event fires before time advances).
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        ev = Event(time=time, priority=priority, seq=self._seq, action=action, label=label)
        self._seq += 1
        heapq.heappush(self._queue, ev)
        return EventHandle(ev)

    def schedule_in(
        self,
        delay: float,
        action: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``action`` after a nonnegative relative ``delay``."""
        if delay < 0.0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule(self._now + delay, action, priority=priority, label=label)

    def schedule_run(
        self,
        first_time: float,
        step: Callable[[], float | None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> EventHandle:
        """Schedule a run of sub-events that share one :class:`Event`.

        ``step()`` fires at ``first_time`` and returns the absolute time
        of its next firing, or ``None`` to end the run.  After each
        firing the event is re-keyed with a fresh sequence number and
        pushed back, so every sub-event orders exactly as an event
        scheduled at its predecessor's firing would.  Cancelling the
        returned handle ends the run at the next firing boundary.
        """
        if first_time < self._now:
            raise SimulationError(
                f"cannot schedule at t={first_time} before current time t={self._now}"
            )
        ev = Event(
            time=first_time, priority=priority, seq=self._seq,
            action=lambda: None, label=label,
        )
        self._seq += 1

        def fire() -> None:
            next_time = step()
            if next_time is None or ev.cancelled:
                return
            if next_time < self._now:
                raise SimulationError(
                    f"run {label!r} stepped backwards to t={next_time} "
                    f"at current time t={self._now}"
                )
            ev.time = next_time
            ev.seq = self._seq
            self._seq += 1
            heapq.heappush(self._queue, ev)

        ev.action = fire
        heapq.heappush(self._queue, ev)
        return EventHandle(ev)

    def run(
        self, until: float | None = None, *, max_events: int | None = None
    ) -> None:
        """Process events until the queue drains, ``until`` passes, or
        ``max_events`` have fired.

        When ``until`` is given, the clock is advanced to exactly ``until``
        on return (events scheduled at ``until`` do fire).  ``max_events``
        guards against runaway feedback loops in protocol state machines.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run call)")
        self._running = True
        fired = 0
        # Hot loop: bind the heap and heappop locally; at throughput-suite
        # event rates the repeated attribute lookups are measurable.
        queue = self._queue
        heappop = heapq.heappop
        try:
            while queue:
                ev = queue[0]
                if until is not None and ev.time > until:
                    break
                heappop(queue)
                if ev.cancelled:
                    if _trace.TRACER is not None:
                        _trace.TRACER.emit(
                            "sim.cancel", t=self._now, label=ev.label, event_seq=ev.seq
                        )
                    continue
                self._now = ev.time
                if _trace.TRACER is not None:
                    _trace.TRACER.emit(
                        "sim.fire", t=ev.time, label=ev.label, event_seq=ev.seq
                    )
                ev.action()
                self._events_processed += 1
                fired += 1
                if max_events is not None and fired >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events} at t={self._now} "
                        f"(last event {ev.label!r}); likely an event storm"
                    )
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False

    def step(self) -> bool:
        """Fire the single next non-cancelled event; False if queue empty."""
        while self._queue:
            ev = heapq.heappop(self._queue)
            if ev.cancelled:
                if _trace.TRACER is not None:
                    _trace.TRACER.emit(
                        "sim.cancel", t=self._now, label=ev.label, event_seq=ev.seq
                    )
                continue
            self._now = ev.time
            if _trace.TRACER is not None:
                _trace.TRACER.emit(
                    "sim.fire", t=ev.time, label=ev.label, event_seq=ev.seq
                )
            ev.action()
            self._events_processed += 1
            return True
        return False

    def peek_time(self) -> float | None:
        """Time of the next pending event, skipping cancelled ones."""
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0].time if self._queue else None
