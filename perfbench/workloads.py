"""The benchmark's four workloads: their stated inputs, operations and checks.

Every workload drives the simulator only through entry points the
project keeps: ``repro.chaos.run_schedule``, ``Router``/``RouterConfig``
with ``wire_uniform_load``/``CBRSource``, ``repro.obs.tracing`` and the
``python -m repro`` command line.  An *operation* is one chaos schedule,
one forwarding run or one CLI command; each is checked on its own.

Checks never look at event counts, ``sim.fire`` sequence numbers or
trace lines: a packet-granular fabric changes those legitimately while
every per-packet outcome below stays the same.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: scratch space inside the checkout (git-ignored): traces, CLI outputs, spans
WORK = ROOT / ".perfbench-work"
GOLDENS = BENCH_DIR / "goldens.json"

#: the seed the golden values were recorded at
DEFAULT_SEED = 0

#: chaos: the ``chaos`` subcommand's campaign (Poisson arrivals, 500 B-mean
#: packets, the full fault taxonomy, detection) under both coverage policies
CHAOS = {
    "n_linecards": 6,
    "load": 0.25,
    "duration_s": 0.004,
    "drain_s": 0.012,
    "policies": ("static", "adaptive"),
}

#: chaos-traced: the chaos schedules under ``static``, traced to a JSONL file;
#: shorter, so that a run holds as many traced schedules as ``chaos`` does
CHAOS_TRACED_DURATION_S = 0.002

#: forward-64: fault-free forwarding of the smallest packets
FORWARD = {
    "n_linecards": 6,
    "load": 0.25,
    "packet_bytes": 64,
    "duration_s": 0.0001,
    "drain_s": 0.00005,
}

#: cli-cold: the figure-regenerating commands, each a fresh interpreter
CLI_COMMANDS = {
    "fig6": ["fig6", "--jobs", "1"],
    "fig7": ["fig7", "--jobs", "1"],
    "fig8": ["fig8"],
    "report": ["report", "--jobs", "1"],
    "validate": ["validate", "--suite", "smoke", "--seed", "0", "--jobs", "1", "--json-out", ""],
}

#: report's stage-timing section prints wall times, so it is left out of the digest
_RUNTIME_SECTION = "## Runtime"


def child_env() -> dict:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def derived_seed(seed: int, index: int) -> int:
    """Per-operation seed: spawn-keyed like ``CampaignConfig.schedule_seed``."""
    import numpy as np

    return int(np.random.SeedSequence(entropy=seed, spawn_key=(index,)).generate_state(1)[0])


@contextmanager
def captured_routers():
    """Collect every ``Router`` built inside the block (for its end state)."""
    from repro.router.router import Router

    created = []
    original = Router.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        created.append(self)

    Router.__init__ = init
    try:
        yield created
    finally:
        Router.__init__ = original


def _latency(router) -> dict:
    lat = router.stats.latency
    return {"count": lat.count, "mean": lat.mean, "min": lat.minimum, "max": lat.maximum}


def _router_layers(router) -> dict:
    """End-state counters of one router, charged to their layers."""
    stats = router.stats
    fabric = router.fabric
    eib = router.eib
    return {
        "fabric_dropped_cells": sum(fabric.dropped_cells(p) for p in range(fabric.n_ports)),
        "eib_streams": stats.streams_established,
        "eib_remote_lookups": stats.remote_lookups,
        "eib_ctl_lost": eib.control.lost if eib is not None else 0,
        "eib_ctl_abandoned": eib.control.failures if eib is not None else 0,
    }


class Op:
    """One operation: what to run, and its position in the run."""

    def __init__(self, workload: str, index: int, variant: str) -> None:
        self.workload = workload
        self.index = index
        self.variant = variant

    @property
    def key(self) -> str:
        return f"{self.variant}/{self.index}"


class Result:
    """What one attempted operation produced."""

    def __init__(self, op: Op) -> None:
        self.op = op
        self.wall_s = 0.0
        self.outcome: dict | None = None
        self.layers: dict = {}
        self.errors: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.errors


# -- chaos, chaos-traced ------------------------------------------------------


def run_chaos_schedule(seed: int, index: int, policy: str, duration_s: float = CHAOS["duration_s"]):
    """One seeded chaos schedule through ``run_schedule``; returns (summary, router)."""
    from repro.chaos import CampaignConfig, run_schedule

    cfg = CampaignConfig(
        seeds=1,
        base_seed=seed,
        n_linecards=CHAOS["n_linecards"],
        load=CHAOS["load"],
        duration_s=duration_s,
        drain_s=CHAOS["drain_s"],
        coverage_policy=policy,
    )
    with captured_routers() as routers:
        summary = run_schedule(cfg, index)
    return summary, routers[0]


def chaos_outcome(summary: dict, router) -> tuple[dict, dict]:
    outcome = {
        "offered": summary["offered"],
        "delivered": summary["delivered"],
        "dropped": summary["dropped"],
        "drops": summary["drops"],
        "detections": summary["detections"],
        "violations": summary["violations"],
        "latency": _latency(router),
    }
    layers = _router_layers(router)
    layers["detections"] = summary["detections"]
    layers["faults_injected"] = summary["fault_actions"].get("fail", 0)
    return outcome, layers


def check_chaos(outcome: dict, golden: dict | None) -> list[str]:
    errors = []
    if outcome["violations"]:
        errors.append(f"invariant violations: {outcome['violations']}")
    if outcome["delivered"] + sum(outcome["drops"].values()) != outcome["offered"]:
        errors.append(
            f"conservation: offered {outcome['offered']} != delivered "
            f"{outcome['delivered']} + dropped {sum(outcome['drops'].values())}"
        )
    errors.extend(_against_golden(outcome, golden))
    return errors


def _against_golden(outcome: dict, golden: dict | None) -> list[str]:
    if golden is None:
        return []
    return [
        f"{key}: got {outcome.get(key)!r}, golden {want!r}"
        for key, want in golden.items()
        if outcome.get(key) != want
    ]


# -- forward-64 ---------------------------------------------------------------


def run_forward(seed: int, index: int, duration_s: float = FORWARD["duration_s"]):
    """Fault-free DRA forwarding of CBR 64 B packets; returns the router."""
    from repro.router.router import Router, RouterConfig, RouterMode
    from repro.traffic.generators import CBRSource, wire_uniform_load

    router = Router(
        RouterConfig(
            n_linecards=FORWARD["n_linecards"],
            mode=RouterMode.DRA,
            seed=derived_seed(seed, index),
        )
    )
    sources = wire_uniform_load(
        router, FORWARD["load"], mean_packet_bytes=FORWARD["packet_bytes"], source_cls=CBRSource
    )
    router.run(duration_s)
    for source in sources:
        source.stop()
    router.run(duration_s + FORWARD["drain_s"])
    return router


def forward_outcome(router) -> tuple[dict, dict]:
    stats = router.stats
    outcome = {
        "offered": stats.offered,
        "delivered": stats.delivered,
        "drops": dict(sorted(stats.drops.items())),
        "latency": _latency(router),
    }
    layers = _router_layers(router)
    layers["detections"] = 0
    layers["faults_injected"] = 0
    return outcome, layers


def check_forward(outcome: dict, golden: dict | None) -> list[str]:
    errors = []
    if outcome["offered"] <= 0:
        errors.append("no packets offered")
    if outcome["delivered"] != outcome["offered"]:
        errors.append(f"delivered {outcome['delivered']} != offered {outcome['offered']}")
    errors.extend(_against_golden(outcome, golden))
    return errors


# -- cli-cold -----------------------------------------------------------------


def stdout_digest(command: str, stdout: bytes) -> str:
    """sha256 of a command's stdout, minus report's wall-time section."""
    text = stdout.decode("utf-8", errors="replace")
    if command == "report" and _RUNTIME_SECTION in text:
        head, _, tail = text.partition(_RUNTIME_SECTION)
        after = tail.find("\n## ")
        text = head + (tail[after + 1:] if after >= 0 else "")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(command: str, probe_out: Path | None = None) -> subprocess.CompletedProcess:
    """One cold ``python -m repro`` command (or the probed child when
    ``probe_out`` is given), run from the scratch directory."""
    if probe_out is None:
        argv = [sys.executable, "-m", "repro", *CLI_COMMANDS[command]]
    else:
        argv = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(probe_out), *CLI_COMMANDS[command]]
    return subprocess.run(argv, cwd=WORK, env=child_env(), capture_output=True, timeout=170)


def cli_outcome(command: str, proc: subprocess.CompletedProcess) -> dict:
    return {"exit": proc.returncode, "stdout_sha256": stdout_digest(command, proc.stdout)}


def check_cli(outcome: dict, golden: dict | None) -> list[str]:
    errors = []
    if outcome["exit"] != 0:
        errors.append(f"exit code {outcome['exit']}")
    errors.extend(_against_golden(outcome, golden))
    return errors


# -- workload table -------------------------------------------------------------


def ops(workload: str, seed: int):
    """The workload's operations in run order (unbounded for DES workloads)."""
    index = 0
    while True:
        if workload == "chaos":
            for policy in CHAOS["policies"]:
                yield Op(workload, index, policy)
        elif workload == "chaos-traced":
            yield Op(workload, index, "static")
        elif workload == "forward-64":
            yield Op(workload, index, "cbr")
        elif workload == "cli-cold":
            for command in CLI_COMMANDS:
                yield Op(workload, index, command)
        else:
            raise ValueError(f"unknown workload {workload!r}")
        index += 1


#: operations that belong together and are run as one group
GROUP = {"chaos": len(CHAOS["policies"]), "cli-cold": len(CLI_COMMANDS), "chaos-traced": 1, "forward-64": 1}

WORKLOADS = tuple(GROUP)


def load_goldens(path: Path = GOLDENS) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def golden_for(goldens: dict, op: Op, seed: int) -> dict | None:
    """The recorded outcome for ``op``, or None where none was recorded."""
    if op.workload == "cli-cold":
        return goldens["cli-cold"].get(op.variant)
    if seed != goldens["seed"]:
        return None
    table = goldens["chaos"][op.variant] if op.workload == "chaos" else goldens[op.workload]
    return table[op.index] if op.index < len(table) else None


def attempt(op: Op, seed: int, goldens: dict, *, probe=None, probe_out: Path | None = None) -> Result:
    """Run one operation, time it, and check what it produced.

    The timed region is the operation alone; reading its end state and
    the checks happen after the clock stops.  ``probe`` (in-process) or
    ``probe_out`` (CLI child) turn on the traced run's spans.
    """
    import gc

    result = Result(op)
    gc.collect()
    trace_path = WORK / f"trace-{os.getpid()}.jsonl"
    try:
        start = perf_counter()
        if op.workload == "cli-cold":
            raw = run_cli(op.variant, probe_out)
        elif probe is not None:
            raw = probe.call("op", _run_des, op, seed, trace_path)
        else:
            raw = _run_des(op, seed, trace_path)
        result.wall_s = perf_counter() - start

        if op.workload == "cli-cold":
            result.outcome = cli_outcome(op.variant, raw)
            check = check_cli
        elif op.workload == "forward-64":
            result.outcome, result.layers = forward_outcome(raw)
            check = check_forward
        else:
            result.outcome, result.layers = chaos_outcome(*raw)
            check = check_chaos
        if op.workload == "chaos-traced":
            result.layers.update(_trace_file_stats(trace_path))
        result.errors = check(result.outcome, golden_for(goldens, op, seed))
    except Exception as exc:  # one failed operation must not end the run
        import traceback

        traceback.print_exc(file=sys.stderr)
        result.errors.append(f"{type(exc).__name__}: {exc}")
    finally:
        if trace_path.exists():
            trace_path.unlink()
    if result.errors:
        print(f"operation {op.workload} {op.key} FAILED: {result.errors}", file=sys.stderr)
    return result


def _run_des(op: Op, seed: int, trace_path: Path):
    if op.workload == "forward-64":
        return run_forward(seed, op.index)
    if op.workload == "chaos":
        return run_chaos_schedule(seed, op.index, op.variant)
    from repro.obs import tracing

    with tracing(str(trace_path)):
        return run_chaos_schedule(seed, op.index, op.variant, CHAOS_TRACED_DURATION_S)


def _trace_file_stats(path: Path) -> dict:
    lines = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            lines += block.count(b"\n")
    return {"trace_lines": lines, "trace_bytes": path.stat().st_size}


#: what ``setup_s`` times in a fresh interpreter: importing ``repro`` and
#: building the workload up to its first timed operation
_CHAOS_SETUP = (
    "from repro.chaos import CampaignConfig, run_schedule\n"
    "CampaignConfig(seeds=1, n_linecards={n_linecards}, load={load}, duration_s={duration_s}, drain_s={drain_s})\n"
)
SETUP_SNIPPETS = {
    "chaos": _CHAOS_SETUP.format(**CHAOS),
    "chaos-traced": "from repro.obs import tracing\n"
    + _CHAOS_SETUP.format(**{**CHAOS, "duration_s": CHAOS_TRACED_DURATION_S}),
    "forward-64": (
        "from repro.router.router import Router, RouterConfig, RouterMode\n"
        "from repro.traffic.generators import CBRSource, wire_uniform_load\n"
        "r = Router(RouterConfig(n_linecards={n_linecards}, mode=RouterMode.DRA, seed=0))\n"
        "wire_uniform_load(r, {load}, mean_packet_bytes={packet_bytes}, source_cls=CBRSource)\n"
    ).format(**FORWARD),
    "cli-cold": "import repro.cli\n",
}
