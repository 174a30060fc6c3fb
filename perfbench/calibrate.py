"""Host-speed calibration for the end-to-end times.

The machines this benchmark runs on are shared: their speed for
single-threaded Python drifts by 10-20% over tens of seconds, which
swamps the differences a benchmark exists to detect.  A fixed loop
shaped like the simulator's hot path -- events with a Python ``__lt__``
in a ``heapq``, closures, a dict -- is timed between operations, and the
reported times are scaled by ``REFERENCE_S / median(loop time)``: they
read as seconds on a host where the loop takes ``REFERENCE_S``.

The loop never touches ``repro``, so a change to the simulator moves
the operation times and leaves the calibration alone.
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter

#: the loop's time on the 2-vCPU VM the benchmark was tuned on, unloaded
REFERENCE_S = 0.1

#: calibration time spent per unit of measured time
SHARE = 0.25


class _Event:
    __slots__ = ("time", "seq", "action")

    def __init__(self, time: float, seq: int, action) -> None:
        self.time = time
        self.seq = seq
        self.action = action

    def __lt__(self, other: "_Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


def calibration_loop(n: int = 20000, depth: int = 4096) -> int:
    """Fixed work: ``n`` mini-events through a heap ``depth`` deep -- the
    order of the simulator's own pending-event heap, so the loop's cache
    footprint, and its sensitivity to a busy neighbour, is alike."""
    heap: list[_Event] = []
    seen: dict[int, int] = {}
    acc = 0
    for i in range(n):
        heapq.heappush(heap, _Event((i * 0.37) % 50.0 + i * 1e-3, i, lambda x=i: x))
        if len(heap) > depth:
            ev = heapq.heappop(heap)
            acc += ev.action()
            seen[ev.seq & 4095] = acc
    return acc


class HostSpeed:
    """Calibration time accumulated through one run.

    Before each operation the loop runs for about ``SHARE`` of the
    previous operation's time, so the calibration samples the host as
    evenly as the operations do and its high-frequency jitter averages
    out the same way.
    """

    def __init__(self) -> None:
        self.loops = 0
        self.seconds = 0.0

    def sample(self, seconds: float) -> None:
        """Run the loop until at least ``seconds`` of host time pass."""
        gc.collect()
        start = now = perf_counter()
        while now - start < seconds or now == start:
            calibration_loop()
            self.loops += 1
            now = perf_counter()
        self.seconds += now - start

    @property
    def loop_s(self) -> float:
        """Mean host seconds of one calibration loop in this run."""
        return self.seconds / self.loops

    def normalize(self, seconds: float) -> float:
        """``seconds`` on this host, expressed at the reference speed."""
        return seconds * REFERENCE_S / self.loop_s
