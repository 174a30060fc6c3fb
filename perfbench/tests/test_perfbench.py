"""Tests of the benchmark itself: its output checks and its traced run.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys

import pytest

import run
import workloads as wl
from calibrate import HostSpeed
from probe import Probe


@pytest.fixture(scope="module")
def goldens():
    return wl.load_goldens()


def _tiny_forward(probe=None):
    def go():
        return wl.run_forward(wl.DEFAULT_SEED, 0, duration_s=0.00002)

    router = probe.call("op", go) if probe is not None else go()
    return wl.forward_outcome(router)[0]


def test_golden_operation_passes(goldens):
    result = wl.attempt(wl.Op("forward-64", 0, "cbr"), wl.DEFAULT_SEED, goldens)
    assert result.ok, result.errors
    assert result.wall_s > 0


def test_corrupted_golden_counts_as_failed_operation(goldens):
    corrupted = copy.deepcopy(goldens)
    corrupted["forward-64"][0]["latency"]["max"] *= 1.0 + 1e-12
    result = wl.attempt(wl.Op("forward-64", 0, "cbr"), wl.DEFAULT_SEED, corrupted)
    assert not result.ok
    assert any("latency" in e for e in result.errors)


def test_run_counts_every_mismatching_operation_as_failed(goldens):
    corrupted = copy.deepcopy(goldens)
    for outcome in corrupted["forward-64"]:
        outcome["offered"] += 1
    results = run.run_ops("forward-64", wl.DEFAULT_SEED, 0.5, corrupted, HostSpeed())
    assert results
    assert sum(not r.ok for r in results) == len(results)


def test_golden_applies_only_at_its_seed(goldens):
    op = wl.Op("chaos", 0, "static")
    assert wl.golden_for(goldens, op, wl.DEFAULT_SEED) == goldens["chaos"]["static"][0]
    assert wl.golden_for(goldens, op, wl.DEFAULT_SEED + 1) is None
    far = wl.Op("chaos", 10_000, "static")
    assert wl.golden_for(goldens, far, wl.DEFAULT_SEED) is None


def test_chaos_checks_hold_on_any_seed():
    outcome = {
        "offered": 10, "delivered": 8, "dropped": 1, "drops": {"x": 1},
        "detections": 0, "violations": [], "latency": {},
    }
    assert any("conservation" in e for e in wl.check_chaos(outcome, None))
    outcome["violations"] = [{"check": "c", "detail": "d"}]
    assert any("violations" in e for e in wl.check_chaos(outcome, None))


def test_forward_requires_every_packet_delivered():
    outcome = {"offered": 5, "delivered": 4, "drops": {"x": 1}, "latency": {}}
    assert wl.check_forward(outcome, None)


def test_report_digest_skips_wall_times():
    base = "# R\n\n## Fig\nA\n## Runtime — wall time per stage\n{}\n## Observability\nB\n"
    fast, slow = base.format("0.143 s").encode(), base.format("0.512 s").encode()
    assert wl.stdout_digest("report", fast) == wl.stdout_digest("report", slow)
    assert wl.stdout_digest("fig6", fast) != wl.stdout_digest("fig6", slow)


def test_traced_outcome_equals_untraced():
    untraced = _tiny_forward()
    probe = Probe()
    with probe:
        traced = _tiny_forward(probe)
    assert traced == untraced
    snap = probe.snapshot()
    assert snap["missing"] == []
    assert snap["spans"]["ns:fabric"][0] > 0
    assert snap["heap"]["pops"] > 0 and snap["compares"] > 0
    assert snap["fabric"]["cells"] == 2 * snap["fabric"]["packets"]


def test_probe_restores_every_hook():
    from repro.sim.engine import Engine
    from repro.sim.events import Event

    before = (Engine.schedule, Engine.run, Event.__lt__)
    with Probe():
        assert Engine.schedule is not before[0]
    assert (Engine.schedule, Engine.run, Event.__lt__) == before


def _hide_hooks(monkeypatch):
    """Make three hook targets look gone, as after a refactor, while the
    simulator keeps working: ``Event`` without its own ``__lt__`` (a tuple
    heap), an engine that no longer uses the ``heapq`` module, and a
    fabric without ``transfer_run``."""
    import heapq

    import repro.router.fabric as fabric_mod
    import repro.sim.engine as engine_mod
    import repro.sim.events as events_mod

    stand_in = type(sys)("heapq_stand_in")
    stand_in.heappush, stand_in.heappop = heapq.heappush, heapq.heappop
    monkeypatch.setattr(engine_mod, "heapq", stand_in)
    monkeypatch.setattr(events_mod, "Event", type("Event", (events_mod.Event,), {}))
    monkeypatch.setattr(fabric_mod, "SwitchFabric", type("SwitchFabric", (fabric_mod.SwitchFabric,), {}))


def test_missing_hooks_are_reported_absent(monkeypatch):
    _hide_hooks(monkeypatch)
    untraced = _tiny_forward()
    probe = Probe()
    with probe:
        traced = _tiny_forward(probe)
    assert traced == untraced
    snap = probe.snapshot()
    assert {
        "repro.sim.engine.heapq",
        "repro.sim.events.Event.__lt__",
        "repro.router.fabric.SwitchFabric.transfer_run",
    } <= set(snap["missing"])

    result = wl.Result(wl.Op("forward-64", 0, "cbr"))
    result.outcome = traced
    metrics = run.layer_metrics("forward-64", snap, [result], [result])
    for absent in ("sim.compares", "sim.heap_pops", "sim.events_per_pop", "fabric.cells"):
        assert absent not in metrics
    assert metrics["sim.events"][0] > 0
    assert metrics["dra.events"][0] > 0
    assert metrics["router.offered"][0] == traced["offered"]


def test_engine_without_schedule_run(monkeypatch):
    from repro.sim.engine import Engine

    monkeypatch.delattr(Engine, "schedule_run")
    probe = Probe()
    with probe:
        engine = Engine()
        fired = []
        for i in range(3):
            engine.schedule_in(1.0 + i, lambda: fired.append(engine.now), label="dra:x")
        engine.schedule_in(0.5, lambda: None, label="eib:y").cancel()
        engine.run()
    assert fired == [1.0, 2.0, 3.0]
    snap = probe.snapshot()
    assert "repro.sim.engine.Engine.schedule_run" in snap["missing"]
    assert snap["spans"]["ns:dra"][0] == 3
    assert snap["scheduled"] == {"dra": 3, "eib": 1}
    assert snap["cancelled"] == {"eib": 1}


def test_parse_importtime():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |        100 |       scipy._lib\n"
        "import time:       200 |        300 |     scipy\n"
        "import time:        50 |         50 |       scipy.stats._x\n"
        "import time:        50 |        100 |     scipy.stats\n"
        "import time:       600 |       1000 |   repro.core\n"
        "import time:        10 |       1010 | repro\n"
        "import time:         5 |          5 | json\n"
        "import time:         7 |       1017 | repro.cli\n"
    )
    out = run.parse_importtime(text)
    assert out["import.modules"] == 8
    assert out["import.repro_s"] == pytest.approx((1010 + 1017) / 1e6)
    assert out["import.scipy_s"] == pytest.approx(400 / 1e6)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(wl.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chaos", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
