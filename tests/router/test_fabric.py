"""Switching-fabric tests: transfer, queueing, card sparing, drops."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.router.fabric import SwitchFabric
from repro.router.packets import Cell
from repro.sim import Engine


def cell(dst=1, pkt=1, seq=0, total=1):
    return Cell(pkt_id=pkt, seq=seq, total=total, payload_bytes=48, dst_lc=dst)


def _per_cell(fabric, cells, port, on_delivered):
    """Hand ``cells`` over with one :meth:`SwitchFabric.transfer` each."""
    accepted = [fabric.transfer(c, port, on_delivered) for c in cells]
    return all(accepted)


@pytest.fixture(params=["batched", "scalar"])
def hand_over(request):
    """How a test hands its cells to the fabric's one cell clock.

    ``batched``: each group of cells in one ``transfer_run`` call, the
    batched hand-over the router uses; ``scalar``: one ``transfer`` call
    per cell.  Both feed the same per-port queue and clock, so every
    behaviour checked with this fixture must hold under either.
    """
    if request.param == "batched":
        return SwitchFabric.transfer_run
    return _per_cell


class TestTransfer:
    def test_cell_delivered_after_serialization(self, hand_over):
        eng = Engine()
        fabric = SwitchFabric(eng, 4, port_rate_cells_per_s=1e6)
        got = []
        assert hand_over(fabric, [cell()], 1, lambda c: got.append((eng.now, c)))
        eng.run()
        assert len(got) == 1
        assert got[0][0] == pytest.approx(1e-6)

    def test_fifo_order_per_port(self, hand_over):
        eng = Engine()
        fabric = SwitchFabric(eng, 4)
        got = []
        cells = [cell(seq=seq, total=3) for seq in range(3)]
        hand_over(fabric, cells, 1, lambda c: got.append(c.seq))
        eng.run()
        assert got == [0, 1, 2]

    def test_ports_drain_independently(self, hand_over):
        eng = Engine()
        fabric = SwitchFabric(eng, 4, port_rate_cells_per_s=1e6)
        times = {}
        hand_over(fabric, [cell(dst=1)], 1, lambda c: times.setdefault(1, eng.now))
        hand_over(fabric, [cell(dst=2)], 2, lambda c: times.setdefault(2, eng.now))
        eng.run()
        # No cross-port queueing: both arrive after one serialization time.
        assert times[1] == pytest.approx(times[2])

    def test_queue_depth(self, hand_over):
        eng = Engine()
        fabric = SwitchFabric(eng, 4)
        hand_over(fabric, [cell() for _ in range(5)], 1, lambda c: None)
        assert fabric.queue_depth(1) >= 3  # one in service, rest queued

    def test_invalid_port_rejected(self, hand_over):
        eng = Engine()
        fabric = SwitchFabric(eng, 4)
        with pytest.raises(ValueError, match="port"):
            hand_over(fabric, [cell()], 9, lambda c: None)

    def test_delivered_counter(self, hand_over):
        eng = Engine()
        fabric = SwitchFabric(eng, 4)
        hand_over(fabric, [cell()], 2, lambda c: None)
        eng.run()
        assert fabric.delivered_cells(2) == 1


class TestTransferRun:
    def test_run_delivers_every_cell_in_order(self, hand_over):
        eng = Engine()
        fabric = SwitchFabric(eng, 4, port_rate_cells_per_s=1e6)
        got = []
        cells = [cell(seq=s, total=4) for s in range(4)]
        assert hand_over(fabric, cells, 1, lambda c: got.append((c.seq, eng.now)))
        eng.run()
        assert [s for s, _ in got] == [0, 1, 2, 3]
        assert [t for _, t in got] == pytest.approx(
            [1e-6, 2e-6, 3e-6, 4e-6]
        )

    def test_run_matches_per_cell_transfers(self, hand_over):
        # Once onto an idle port, then onto the same port while busy with
        # a cell that came in through the entry point under test.
        def deliveries(use_run: bool, busy: bool):
            eng = Engine()
            fabric = SwitchFabric(eng, 4, port_rate_cells_per_s=1e6)
            got = []

            def record(c):
                got.append((c.pkt_id, c.seq, eng.now))

            if busy:
                hand_over(fabric, [cell(pkt=2)], 1, record)
            cells = [cell(seq=s, total=3) for s in range(3)]
            if use_run:
                fabric.transfer_run(cells, 1, record)
            else:
                for c in cells:
                    fabric.transfer(c, 1, record)
            eng.run()
            return got

        for busy in (False, True):
            assert deliveries(True, busy) == deliveries(False, busy)

    def test_empty_run_is_a_noop(self, hand_over):
        eng = Engine()
        fabric = SwitchFabric(eng, 4)
        assert fabric.transfer_run([], 1, lambda c: None)
        assert fabric.queue_depth(1) == 0
        # Nor does an empty run start a second clock on a busy port.
        hand_over(fabric, [cell(dst=2)], 2, lambda c: None)
        assert fabric.transfer_run([], 2, lambda c: None)
        assert fabric.queue_depth(2) == 1
        eng.run()
        assert fabric.delivered_cells(1) == 0
        assert fabric.delivered_cells(2) == 1
        assert eng.events_processed == 1

    def test_dead_fabric_refuses_run(self, hand_over):
        fabric = SwitchFabric(Engine(), 4)
        for i in range(5):
            fabric.fail_card(i)
        assert not hand_over(fabric, [cell()], 1, lambda c: None)
        assert fabric.queue_depth(1) == 0

    def test_out_of_range_port_rejected(self, hand_over):
        fabric = SwitchFabric(Engine(), 4)
        for bad in (-1, 4):
            with pytest.raises(ValueError, match="port"):
                hand_over(fabric, [cell()], bad, lambda c: None)


class TestCardSparing:
    def test_initial_complement(self):
        fabric = SwitchFabric(Engine(), 4)
        active = [c for c in fabric.cards if c.active]
        assert len(active) == 4
        assert len(fabric.cards) == 5
        assert fabric.active_fraction == 1.0

    def test_spare_swaps_in_on_failure(self):
        fabric = SwitchFabric(Engine(), 4)
        fabric.fail_card(0)
        assert fabric.active_fraction == 1.0  # 1:4 redundancy absorbed it
        assert fabric.swaps == 1

    def test_second_failure_degrades(self):
        fabric = SwitchFabric(Engine(), 4)
        fabric.fail_card(0)
        fabric.fail_card(1)
        assert fabric.active_fraction == pytest.approx(0.75)
        assert fabric.operational

    def test_total_loss(self):
        eng = Engine()
        fabric = SwitchFabric(eng, 4)
        for i in range(5):
            fabric.fail_card(i)
        assert not fabric.operational
        assert not fabric.transfer(cell(), 1, lambda c: None)

    def test_repair_returns_as_standby(self):
        fabric = SwitchFabric(Engine(), 4)
        fabric.fail_card(0)  # spare replaces it
        fabric.repair_card(0)
        # Complement already full: the repaired card waits as standby.
        active = [c.card_id for c in fabric.cards if c.active]
        assert len(active) == 4
        assert 0 not in active

    def test_repair_promotes_when_capacity_short(self):
        fabric = SwitchFabric(Engine(), 4)
        fabric.fail_card(0)
        fabric.fail_card(1)  # degraded to 3/4
        fabric.repair_card(0)
        assert fabric.active_fraction == 1.0

    def test_degraded_rate_slows_delivery(self, hand_over):
        eng = Engine()
        fabric = SwitchFabric(eng, 4, port_rate_cells_per_s=1e6)
        fabric.fail_card(0)
        fabric.fail_card(1)  # active fraction 0.75
        got = []
        hand_over(fabric, [cell()], 1, lambda c: got.append(eng.now))
        eng.run()
        assert got[0] == pytest.approx(1e-6 / 0.75)

    def test_invalid_complement_rejected(self):
        with pytest.raises(ValueError):
            SwitchFabric(Engine(), 4, n_active_cards=0)
        with pytest.raises(ValueError):
            SwitchFabric(Engine(), 0)


class TestSparingEdgeCases:
    def test_spare_promotion_is_lowest_id_first(self):
        # Two spares standing by (ids 2, 3): failing an active card must
        # promote the lowest-id healthy standby, not an arbitrary one.
        fabric = SwitchFabric(Engine(), 4, n_active_cards=2, n_spare_cards=2)
        assert [c.card_id for c in fabric.cards if c.active] == [0, 1]
        fabric.fail_card(0)
        assert [c.card_id for c in fabric.cards if c.active] == [1, 2]
        fabric.fail_card(1)
        assert [c.card_id for c in fabric.cards if c.active] == [2, 3]
        assert fabric.swaps == 2
        assert fabric.active_fraction == 1.0

    def test_repaired_card_stands_by_until_next_failure(self):
        fabric = SwitchFabric(Engine(), 4)
        fabric.fail_card(0)
        fabric.repair_card(0)  # complement full: card 0 waits as standby
        fabric.fail_card(1)
        # The standby (card 0) is the one promoted for the new failure.
        active = [c.card_id for c in fabric.cards if c.active]
        assert 0 in active and 1 not in active
        assert fabric.active_fraction == 1.0

    def test_active_fraction_clamped_at_one(self):
        # Force more healthy-active cards than the requirement (a state
        # no public transition produces): the fraction must clamp at 1.0
        # so the port rate never exceeds its nominal value.
        fabric = SwitchFabric(Engine(), 4)
        for card in fabric.cards:
            card.active = True  # all 5 of 4-required active
        assert fabric.active_fraction == 1.0

    def test_transfer_to_negative_port_rejected(self):
        fabric = SwitchFabric(Engine(), 4)
        with pytest.raises(ValueError, match="port"):
            fabric.transfer(cell(), -1, lambda c: None)


class TestDropAccounting:
    def _kill_all(self, fabric):
        for i in range(len(fabric.cards)):
            fabric.fail_card(i)

    def test_conservation_when_fabric_dies_mid_flight(self, hand_over):
        # 20 cells at 1 us each; the fabric dies at t=5.5 us.  The cell
        # in service still lands (t=6 us), the other 14 are dropped --
        # and every one of the 20 is accounted: delivered + dropped.
        eng = Engine()
        fabric = SwitchFabric(eng, 4, port_rate_cells_per_s=1e6)
        got = []
        cells = [cell(seq=s, total=20) for s in range(20)]
        hand_over(fabric, cells, 1, lambda c: got.append(eng.now))
        eng.schedule(5.5e-6, lambda: self._kill_all(fabric))
        eng.run()
        assert len(got) == 6
        assert got[-1] == pytest.approx(6e-6)
        assert fabric.delivered_cells(1) == 6
        assert fabric.dropped_cells(1) == 14
        assert fabric.delivered_cells(1) + fabric.dropped_cells(1) == 20
        assert fabric.queue_depth(1) == 0

    def test_drop_emits_metric_and_trace_event(self, hand_over):
        eng = Engine()
        fabric = SwitchFabric(eng, 4, port_rate_cells_per_s=1e6)
        cells = [cell(dst=2, seq=s, total=10) for s in range(10)]
        hand_over(fabric, cells, 2, lambda c: None)
        eng.schedule(2.5e-6, lambda: self._kill_all(fabric))
        tracer = _trace.Tracer(path=None)
        with _metrics.collecting() as registry, _trace.tracing(tracer):
            eng.run()
        assert registry.counter("fabric.cells_dropped").value == 7
        drops = [ev for ev in tracer.events if ev.kind == "fabric.drop"]
        assert len(drops) == 1
        assert drops[0].data == {"port": 2, "cells": 7}
        assert drops[0].t == pytest.approx(3e-6)

    def test_new_transfers_refused_after_death(self, hand_over):
        eng = Engine()
        fabric = SwitchFabric(eng, 4)
        hand_over(fabric, [cell()], 1, lambda c: None)
        self._kill_all(fabric)
        assert not hand_over(fabric, [cell()], 1, lambda c: None)
        eng.run()
        assert fabric.delivered_cells(1) + fabric.dropped_cells(1) == 1


# One fabric "script": cell runs landing at random instants on random
# ports, interleaved with card fail/repair operations.
_ops = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=30e-6, allow_nan=False),
        st.sampled_from(["run", "fail", "repair"]),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=1, max_value=24),
    ),
    min_size=1,
    max_size=16,
)


class TestCellClock:
    @settings(max_examples=40, deadline=None)
    @given(ops=_ops)
    def test_random_churn_conserves_cells_in_order(self, ops):
        # Per port: every accepted cell is either delivered or dropped
        # by fabric death, and delivery times strictly increase -- under
        # any interleaving of runs and mid-run card fail/repair.
        eng = Engine()
        fabric = SwitchFabric(eng, 2, port_rate_cells_per_s=1e6)
        injected = [0, 0]
        times: list[list[float]] = [[], []]

        def inject(port, n_cells):
            cells = [cell(dst=port, seq=s, total=n_cells) for s in range(n_cells)]
            if fabric.transfer_run(cells, port, lambda c: times[port].append(eng.now)):
                injected[port] += n_cells

        for i, (t, kind, card, n_cells) in enumerate(ops):
            if kind == "run":
                eng.schedule(t, lambda p=i % 2, n=n_cells: inject(p, n))
            elif kind == "fail":
                eng.schedule(t, lambda c=card: fabric.fail_card(c))
            else:
                eng.schedule(t, lambda c=card: fabric.repair_card(c))
        eng.run()
        for port in range(2):
            assert len(times[port]) == fabric.delivered_cells(port)
            assert (
                fabric.delivered_cells(port) + fabric.dropped_cells(port)
                == injected[port]
            )
            assert all(a < b for a, b in zip(times[port], times[port][1:]))
            assert fabric.queue_depth(port) == 0

    def test_mid_burst_degradation_splits_at_exact_boundary(self):
        # 4 cells at 1 us, degraded to 0.75 of the rate after the second
        # delivery: the cell already in service lands at the old rate,
        # and the gaps widen to exactly 1/0.75 us from that boundary on.
        eng = Engine()
        fabric = SwitchFabric(eng, 2, port_rate_cells_per_s=1e6)
        times = []
        cells = [cell(dst=0, seq=s, total=4) for s in range(4)]
        fabric.transfer_run(cells, 0, lambda c: times.append(eng.now))
        eng.schedule(2.5e-6, lambda: (fabric.fail_card(0), fabric.fail_card(1)))
        eng.run()
        assert times[:2] == [1e-6, 2e-6]
        t2 = 2e-6 + 1e-6  # third boundary, full-rate float arithmetic
        slow = 1.0 / (1e6 * 0.75)
        assert times[2] == t2  # already in service at the old rate
        assert times[3] == t2 + slow
