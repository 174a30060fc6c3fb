"""SRU reassembly-buffer tests."""

import weakref

import pytest

from repro.router.packets import Cell
from repro.router.reassembly import ReassemblyBuffer
from repro.sim import Engine


def cells_for(pkt_id, total, dst=1):
    return [
        Cell(pkt_id=pkt_id, seq=k, total=total, payload_bytes=48, dst_lc=dst)
        for k in range(total)
    ]


class TestCompletion:
    def test_completes_on_last_cell(self):
        eng = Engine()
        buf = ReassemblyBuffer(eng)
        done = []
        for cell in cells_for(1, 3):
            buf.add_cell(cell, lambda: done.append(1))
        assert done == [1]
        assert buf.completed == 1
        assert buf.occupancy == 0

    def test_single_cell_packet(self):
        eng = Engine()
        buf = ReassemblyBuffer(eng)
        done = []
        buf.add_cell(cells_for(7, 1)[0], lambda: done.append(7))
        assert done == [7]

    def test_interleaved_packets(self):
        eng = Engine()
        buf = ReassemblyBuffer(eng)
        done = []
        a = cells_for(1, 2)
        b = cells_for(2, 2)
        buf.add_cell(a[0], lambda: done.append("a"))
        buf.add_cell(b[0], lambda: done.append("b"))
        assert buf.occupancy == 2
        buf.add_cell(b[1], lambda: done.append("b"))
        buf.add_cell(a[1], lambda: done.append("a"))
        assert done == ["b", "a"]

    def test_pending_query(self):
        eng = Engine()
        buf = ReassemblyBuffer(eng)
        buf.add_cell(cells_for(5, 2)[0], lambda: None)
        assert buf.is_pending(5)
        assert not buf.is_pending(6)


class TestTimeout:
    def test_incomplete_reassembly_times_out(self):
        eng = Engine()
        buf = ReassemblyBuffer(eng, timeout_s=1e-3)
        aborted = []
        buf.add_cell(cells_for(1, 3)[0], lambda: None, aborted.append)
        eng.run(until=2e-3)
        assert aborted == ["timeout"]
        assert buf.timed_out == 1
        assert buf.occupancy == 0

    def test_completion_cancels_timeout(self):
        eng = Engine()
        buf = ReassemblyBuffer(eng, timeout_s=1e-3)
        aborted = []
        for cell in cells_for(1, 2):
            buf.add_cell(cell, lambda: None, aborted.append)
        eng.run(until=5e-3)
        assert aborted == []
        assert buf.timed_out == 0

    def test_late_cell_after_timeout_reopens(self):
        """A straggler cell after timeout starts a fresh (doomed) entry;
        it must not resurrect the completed count."""
        eng = Engine()
        buf = ReassemblyBuffer(eng, timeout_s=1e-3)
        cells = cells_for(1, 3)
        buf.add_cell(cells[0], lambda: None)
        eng.run(until=2e-3)  # timed out
        buf.add_cell(cells[1], lambda: None)
        assert buf.occupancy == 1
        assert buf.completed == 0

    def test_invalid_timeout(self):
        with pytest.raises(ValueError):
            ReassemblyBuffer(Engine(), timeout_s=0.0)


class TestFlush:
    def test_flush_aborts_everything(self):
        eng = Engine()
        buf = ReassemblyBuffer(eng)
        aborted = []
        buf.add_cell(cells_for(1, 2)[0], lambda: None, aborted.append)
        buf.add_cell(cells_for(2, 2)[0], lambda: None, aborted.append)
        assert buf.flush() == 2
        assert aborted == ["flush", "flush"]
        assert buf.occupancy == 0
        assert buf.flushed == 2

    def test_flush_cancels_timeouts(self):
        eng = Engine()
        buf = ReassemblyBuffer(eng, timeout_s=1e-3)
        buf.add_cell(cells_for(1, 2)[0], lambda: None)
        buf.flush()
        eng.run(until=5e-3)
        assert buf.timed_out == 0  # timeout was cancelled by the flush

    def test_flush_empty_is_zero(self):
        assert ReassemblyBuffer(Engine()).flush() == 0


class TestDeadlineQueue:
    """One FIFO of deadlines per buffer, with at most one engine event."""

    def test_completed_reassemblies_leave_no_heap_entries(self):
        eng = Engine()
        buf = ReassemblyBuffer(eng)
        for pkt_id in range(1000):
            buf.add_cell(cells_for(pkt_id, 1)[0], lambda: None)
        assert buf.completed == 1000
        assert eng.pending <= 1

    def test_finished_packet_is_released_before_its_timeout(self):
        eng = Engine()
        buf = ReassemblyBuffer(eng)

        class OnAbort:
            def __call__(self, reason):
                pass

        on_abort = OnAbort()
        released = weakref.ref(on_abort)
        buf.add_cell(cells_for(1, 1)[0], lambda: None, on_abort)
        del on_abort
        # The next packet to open drops the finished one from the queue.
        buf.add_cell(cells_for(2, 2)[0], lambda: None)
        assert released() is None

    def test_timeouts_abort_in_arm_order(self):
        eng = Engine()
        buf = ReassemblyBuffer(eng, timeout_s=1e-3)
        aborted = []

        def open_at(pkt_id):
            buf.add_cell(
                cells_for(pkt_id, 2)[0], lambda: None,
                lambda reason: aborted.append((pkt_id, reason, eng.now)),
            )

        open_at(1)
        open_at(2)  # same instant, so the same deadline as packet 1
        eng.schedule(0.5e-3, lambda: open_at(3))
        eng.run(until=5e-3)
        assert aborted == [
            (1, "timeout", 1e-3),
            (2, "timeout", 1e-3),
            (3, "timeout", 0.5e-3 + 1e-3),
        ]
        assert buf.timed_out == 3
        assert buf.occupancy == 0

    def test_completed_head_does_not_hide_a_live_entry(self):
        eng = Engine()
        buf = ReassemblyBuffer(eng, timeout_s=1e-3)
        aborted = []
        head = cells_for(1, 2)
        buf.add_cell(head[0], lambda: None, aborted.append)
        eng.schedule(
            0.4e-3,
            lambda: buf.add_cell(
                cells_for(2, 2)[0], lambda: None,
                lambda reason: aborted.append((reason, eng.now)),
            ),
        )
        eng.schedule(0.6e-3, lambda: buf.add_cell(head[1], lambda: None, aborted.append))
        eng.run(until=5e-3)
        # The wake armed for packet 1's deadline finds it complete and
        # re-arms for packet 2's.
        assert aborted == [("timeout", 0.4e-3 + 1e-3)]
        assert buf.completed == 1
        assert buf.timed_out == 1

    def test_straggler_after_flush_times_out_once(self):
        eng = Engine()
        buf = ReassemblyBuffer(eng, timeout_s=1e-3)
        aborted = []
        cells = cells_for(1, 3)

        def add(cell):
            buf.add_cell(cell, lambda: None, lambda reason: aborted.append((reason, eng.now)))

        add(cells[0])
        eng.schedule(0.2e-3, buf.flush)
        eng.schedule(0.7e-3, lambda: add(cells[1]))
        eng.run(until=5e-3)
        assert aborted == [("flush", 0.2e-3), ("timeout", 0.7e-3 + 1e-3)]
        assert buf.flushed == 1
        assert buf.timed_out == 1
        assert buf.occupancy == 0
        assert eng.pending == 0

    def test_run_until_split_across_the_deadline(self):
        eng = Engine()
        buf = ReassemblyBuffer(eng, timeout_s=1e-3)
        aborted = []
        buf.add_cell(cells_for(1, 2)[0], lambda: None, aborted.append)
        eng.run(until=0.999e-3)
        assert aborted == []
        assert buf.is_pending(1)
        eng.run(until=1e-3)  # events at ``until`` fire
        assert aborted == ["timeout"]
        eng.run(until=3e-3)
        assert aborted == ["timeout"]
        assert buf.timed_out == 1
