"""End-to-end benchmark of the DRA simulator, with a separate traced run
that charges host time and work counts to each ``src/repro`` layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload chaos --seed 0 --seconds 20 --trace 0

Workloads (stated inputs in ``workloads.py`` and ``README.md``):
``chaos``, ``forward-64``, ``cli-cold``, ``chaos-traced``.  All load
comes from this one process: in-process operations for the first,
second and last, one ``python -m repro`` child at a time for
``cli-cold``.

``--trace 0`` reports the end-to-end metrics with no spans installed,
times scaled to a reference host speed (``calibrate.py``):

* ``setup_s`` -- median time of fresh interpreters that import
  ``repro`` and build the workload up to its first timed operation;
* ``wall_s`` -- time of one operation at the stated input (median over
  the run; for ``cli-cold`` the per-command medians of the five cold
  commands, summed);
* ``peak_rss_mb`` -- peak resident memory of the process that did the
  work (the largest child for ``cli-cold``).

``--trace 1`` runs the operations untraced, then again with the probe
(``probe.py``) installed, requires both passes to agree, and reports
the per-layer metrics plus ``spans.overhead``.  Kept spans are written
to ``.perfbench-work/spans-<workload>.json``.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import workloads as wl
import calibrate
from calibrate import HostSpeed

#: fresh interpreters timed per run for ``setup_s`` (the median is reported)
SETUP_RUNS = 3


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure_setup(workload: str, host: HostSpeed) -> float:
    """Median wall time of fresh interpreters running the setup snippet."""
    samples = []
    for _ in range(SETUP_RUNS):
        host.sample(calibrate.SHARE * (samples[-1] if samples else 1.0))
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", wl.SETUP_SNIPPETS[workload]],
            cwd=wl.WORK, env=wl.child_env(), capture_output=True, timeout=120,
        )
        samples.append(perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"setup failed: {proc.stderr.decode(errors='replace')}")
    return statistics.median(samples)


def run_ops(workload: str, seed: int, seconds: float, goldens: dict, host: HostSpeed) -> list[wl.Result]:
    """Attempt operations a whole group at a time; start another group
    only while it is expected to end by about ``seconds``."""
    group = wl.GROUP[workload]
    results: list[wl.Result] = []
    start = perf_counter()
    for op in wl.ops(workload, seed):
        if results and len(results) % group == 0:
            elapsed = perf_counter() - start
            per_group = elapsed * group / len(results)
            if elapsed + per_group / 2 >= seconds:
                break
        host.sample(calibrate.SHARE * (results[-1].wall_s if results else 1.0))
        results.append(wl.attempt(op, seed, goldens))
    return results


def wall_s(workload: str, results: list[wl.Result]) -> float:
    ok = [r for r in results if r.ok] or results
    if workload != "cli-cold":
        return statistics.median(r.wall_s for r in ok)
    per_command: dict[str, list[float]] = {}
    for r in ok:
        per_command.setdefault(r.op.variant, []).append(r.wall_s)
    return sum(statistics.median(v) for v in per_command.values())


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- traced run ----------------------------------------------------------------


def import_breakdown() -> dict:
    """Parse ``python -X importtime -c "import repro.cli"`` into seconds and counts."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
        cwd=wl.WORK, env=wl.child_env(), capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import failed: {proc.stderr[-2000:]}")
    return parse_importtime(proc.stderr)


def parse_importtime(text: str) -> dict:
    """``import.repro_s``: cumulative time of the top-level ``repro`` imports;
    ``import.scipy_s``: cumulative time of every outermost ``scipy`` import;
    ``import.modules``: modules imported."""
    entries = []  # (depth, name, cumulative seconds), in the printed post-order
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1e6))
    repro_s = scipy_s = 0.0
    ancestors: list[str] = []  # names on the path from the root, walking pre-order
    for depth, name, cum in reversed(entries):
        del ancestors[depth:]
        top = name.split(".")[0]
        if top == "repro" and not any(a.split(".")[0] == "repro" for a in ancestors):
            repro_s += cum
        if top == "scipy" and not any(a.split(".")[0] == "scipy" for a in ancestors):
            scipy_s += cum
        ancestors.append(name)
    return {"import.repro_s": repro_s, "import.scipy_s": scipy_s, "import.modules": len(entries)}


def layer_metrics(workload: str, snap: dict, results: list[wl.Result], untraced: list[wl.Result]) -> dict:
    from probe import NAMESPACES

    m: dict[str, tuple] = {}
    spans = snap["spans"]

    def span(name: str, field: int):
        return spans.get(name, [0, 0.0, 0.0])[field]

    def layer_sum(key: str):
        return sum(r.layers.get(key, 0) for r in results)

    events = sum(entry[0] for name, entry in spans.items() if name.startswith("ns:"))
    scheduled = sum(snap["scheduled"].values())
    m["sim.events"] = (events, "count")
    m["sim.scheduled"] = (scheduled, "count")
    if snap["cancelled"] is not None:
        cancelled = sum(snap["cancelled"].values())
        m["sim.cancelled"] = (cancelled, "count")
        m["sim.cancelled_share"] = (cancelled / scheduled if scheduled else 0.0, "ratio")
    if snap["heap"] is not None:
        pops = snap["heap"]["pops"]
        m["sim.heap_pops"] = (pops, "count")
        m["sim.events_per_pop"] = (events / pops if pops else 0.0, "ratio")
        m["sim.heap_peak"] = (snap["heap"]["peak"], "count")
    if snap["compares"] is not None:
        m["sim.compares"] = (snap["compares"], "count")
    m["sim.self_s"] = (span("sim", 2), "s")

    for ns in NAMESPACES:
        m[f"{ns}.events"] = (span(f"ns:{ns}", 0), "count")
        m[f"{ns}.scheduled"] = (snap["scheduled"].get(ns, 0), "count")
        if snap["cancelled"] is not None:
            m[f"{ns}.cancelled"] = (snap["cancelled"].get(ns, 0), "count")
        own = span(f"ns:{ns}", 2) + (span("fabric.transfer", 2) if ns == "fabric" else 0.0)
        m[f"{ns}.self_s"] = (own, "s")

    if snap["fabric"] is not None:
        packets, cells = snap["fabric"]["packets"], snap["fabric"]["cells"]
        m["fabric.packets"] = (packets, "count")
        m["fabric.cells"] = (cells, "count")
        m["fabric.cells_per_packet"] = (cells / packets if packets else 0.0, "ratio")
    m["fabric.dropped_cells"] = (layer_sum("fabric_dropped_cells"), "count")

    des = [r.outcome for r in results if r.outcome and "offered" in r.outcome]
    offered = sum(o["offered"] for o in des)
    m["router.offered"] = (offered, "count")
    m["router.delivered"] = (sum(o["delivered"] for o in des), "count")
    m["router.dropped"] = (sum(sum(o["drops"].values()) for o in des), "count")
    m["router.events_per_packet"] = (events / offered if offered else 0.0, "ratio")
    m["traffic.packets"] = (snap["injected"], "count")

    m["eib.streams"] = (layer_sum("eib_streams"), "count")
    m["eib.ctl_lost"] = (layer_sum("eib_ctl_lost"), "count")
    m["eib.ctl_abandoned"] = (layer_sum("eib_ctl_abandoned"), "count")
    m["eib.remote_lookups"] = (layer_sum("eib_remote_lookups"), "count")
    m["detect.detections"] = (layer_sum("detections"), "count")
    m["fault.injected"] = (layer_sum("faults_injected"), "count")
    if snap["invariants_hooked"]:
        m["invariants.calls"] = (span("invariants", 0), "count")
        m["invariants.s"] = (span("invariants", 1), "s")

    kinds = snap["trace_kinds"]
    emitted = sum(kinds.values())
    m["trace.lines"] = (layer_sum("trace_lines"), "count")
    m["trace.mb"] = (layer_sum("trace_bytes") / 1e6, "MB")
    m["trace.emit_s"] = (span("trace", 1), "s")
    engine_lines = kinds.get("sim.fire", 0) + kinds.get("sim.cancel", 0)
    m["trace.engine_share"] = (engine_lines / emitted if emitted else 0.0, "ratio")

    m["markov.solves"] = (span("markov", 0), "count")
    m["markov.solve_s"] = (span("markov", 1), "s")
    m["mc.calls"] = (span("mc", 0), "count")
    m["mc.s"] = (span("mc", 1), "s")
    m["validate.pairs"] = (snap["validate_pairs"], "count")
    for command in wl.CLI_COMMANDS:
        walls = [r.wall_s for r in untraced if r.op.variant == command]
        m[f"cli.{command}_s"] = (statistics.median(walls) if walls else 0.0, "s")
    return m


def traced_run(workload: str, seed: int, seconds: float, goldens: dict, host: HostSpeed) -> tuple[dict, list, list]:
    """Untraced pass, then the same operations with spans; both must agree."""
    from probe import Probe, merge

    untraced = run_ops(workload, seed, seconds / 2, goldens, host)
    traced: list[wl.Result] = []
    if workload == "cli-cold":
        snapshots = []
        for i, prev in enumerate(untraced):
            out = wl.WORK / f"probe-{i}.json"
            traced.append(wl.attempt(prev.op, seed, goldens, probe_out=out))
            if out.exists():
                snapshots.append(json.loads(out.read_text(encoding="utf-8")))
                out.unlink()
        snap = merge(snapshots) if snapshots else Probe().snapshot()
    else:
        probe = Probe()
        probe.install()
        try:
            for prev in untraced:
                traced.append(wl.attempt(prev.op, seed, goldens, probe=probe))
        finally:
            probe.uninstall()
        snap = probe.snapshot()
    for prev, now in zip(untraced, traced):
        if now.outcome is not None and now.outcome != prev.outcome:
            now.errors.append("traced outcome differs from the untraced run")

    metrics = layer_metrics(workload, snap, traced, untraced)
    metrics.update({k: (v, "s" if k.endswith("_s") else "count") for k, v in import_breakdown().items()})
    untraced_s = sum(r.wall_s for r in untraced)
    metrics["spans.overhead"] = (sum(r.wall_s for r in traced) / untraced_s, "ratio")
    metrics["host.calibration_s"] = (host.loop_s, "s")

    spans_out = wl.WORK / f"spans-{workload}.json"
    spans_out.write_text(
        json.dumps({"workload": workload, "seed": seed, "missing_hooks": snap["missing"],
                    "aggregate": snap["spans"], "records": snap["records"]}),
        encoding="utf-8",
    )
    return metrics, untraced, traced


# -- entry point -----------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (wl.SRC / "repro" / "__init__.py").is_file():
        print(f"no simulator sources at {wl.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(wl.SRC))
    wl.WORK.mkdir(exist_ok=True)
    goldens = wl.load_goldens()

    host = HostSpeed()
    setup_s = None if args.trace else measure_setup(args.workload, host)
    if args.workload != "cli-cold":
        import repro.chaos  # noqa: F401  -- keep imports out of the timed region
        import repro.obs  # noqa: F401
        import repro.traffic.generators  # noqa: F401

    if args.trace:
        layer, untraced, traced = traced_run(args.workload, args.seed, args.seconds, goldens, host)
        results = untraced + traced
        metrics = {name: _metric(value, unit) for name, (value, unit) in layer.items()}
    else:
        results = run_ops(args.workload, args.seed, args.seconds, goldens, host)
        metrics = {
            "setup_s": _metric(host.normalize(setup_s), "s"),
            "wall_s": _metric(host.normalize(wall_s(args.workload, results)), "s"),
            "peak_rss_mb": _metric(peak_rss_mb(args.workload), "MB"),
        }
    failed = sum(1 for r in results if not r.ok)
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
