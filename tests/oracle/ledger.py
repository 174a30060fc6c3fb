"""Per-packet outcome ledger: what every DES case does to every packet.

The recorder wraps ``Router._deliver`` and ``Router._drop`` from
outside; nothing in ``src/`` knows about it.  Each packet contributes
one row, at its *first* terminal transition (``_drop`` is also called on
packets that already terminated, and those calls add nothing).  A row
is the packet's content, never its id -- ids come from a process-global
counter::

    src dst size created_at.hex() terminal_t.hex() outcome covered

``outcome`` is ``delivered`` or the drop reason; ``covered`` is 1 when
an ``eib:``/``req_l`` hop carried the packet.  Rows are sorted by
terminal time (then by content), so each 1,000-row chunk of the ledger
is a time window and a chunk digest that moves names that window.

``CASES`` is the matrix the DES refactors prove against.  The recorded
digests live in ``ledger.json`` next to this file, and the full rows of
the shortest case in ``rows-forward-64.txt``; ``record.py`` rewrites
both.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
LEDGER = HERE / "ledger.json"
#: the case whose full rows are committed
FULL_ROWS_CASE = "forward-64"
FULL_ROWS = HERE / f"rows-{FULL_ROWS_CASE}.txt"
CHUNK = 1000


@contextmanager
def recording():
    """Collect one ledger row per packet terminated inside the block."""
    from repro.router.router import Router

    rows: list[tuple[float, str]] = []
    deliver, drop = Router._deliver, Router._drop

    def record(router, packet, outcome: str) -> None:
        now = router.engine.now
        covered = any(h.startswith("eib:") or h.startswith("req_l") for h in packet.path)
        rows.append((
            now,
            f"{packet.src_lc} {packet.dst_lc} {packet.size_bytes} "
            f"{packet.created_at.hex()} {now.hex()} {outcome} {int(covered)}",
        ))

    def wrapped_deliver(self, packet, dst):
        first = not packet.terminated
        deliver(self, packet, dst)
        if first and packet.terminated:
            record(self, packet, "delivered")

    def wrapped_drop(self, packet, reason):
        first = not packet.terminated
        drop(self, packet, reason)
        if first and packet.terminated:
            record(self, packet, str(reason))

    Router._deliver, Router._drop = wrapped_deliver, wrapped_drop
    try:
        yield rows
    finally:
        Router._deliver, Router._drop = deliver, drop


def ordered(rows: list[tuple[float, str]]) -> list[str]:
    """Ledger order: terminal time, then row content."""
    return [row for _, row in sorted(rows)]


# -- the cases ------------------------------------------------------------------


def _chaos(base_seed: int, policy: str, traced: bool = False) -> list[str]:
    """Schedule 0 of the default chaos campaign (4 + 12 ms)."""
    from repro.chaos import CampaignConfig, run_schedule
    from repro.obs import trace as _trace

    cfg = CampaignConfig(seeds=1, base_seed=base_seed, coverage_policy=policy)
    with recording() as rows:
        if traced:
            with tempfile.TemporaryDirectory() as tmp:
                with _trace.tracing(str(Path(tmp) / "trace.jsonl")):
                    run_schedule(cfg, 0)
        else:
            run_schedule(cfg, 0)
    return ordered(rows)


def _forward_64() -> list[str]:
    """perfbench's forward-64 operation 0 at seed 0: fault-free DRA,
    CBR 64 B at load 0.25, 0.1 ms of traffic plus a 0.05 ms drain."""
    from repro.router.router import Router, RouterConfig, RouterMode
    from repro.traffic.generators import CBRSource, wire_uniform_load

    seed = int(np.random.SeedSequence(entropy=0, spawn_key=(0,)).generate_state(1)[0])
    with recording() as rows:
        router = Router(RouterConfig(n_linecards=6, mode=RouterMode.DRA, seed=seed))
        sources = wire_uniform_load(router, 0.25, mean_packet_bytes=64, source_cls=CBRSource)
        router.run(0.0001)
        for source in sources:
            source.stop()
        router.run(0.00015)
    return ordered(rows)


def _accelerated(mode_name: str, repair_rate: float) -> list[str]:
    """A seed-3 router under accelerated faults: 3 ms of load 0.25 and
    injection, then a 12 ms drain (longer than the reassembly timeout).
    Both baseline cases flush SRU reassemblies and time one out."""
    from repro.router.faults import FaultInjector
    from repro.router.router import Router, RouterConfig, RouterMode
    from repro.traffic import wire_uniform_load

    with recording() as rows:
        router = Router(RouterConfig(n_linecards=6, mode=RouterMode[mode_name], seed=3))
        sources = wire_uniform_load(router, 0.25)
        injector = FaultInjector.accelerated(
            router, router.rng.stream("injector"), accel=1e7, repair_rate=repair_rate
        )
        injector.start()
        router.run(0.003)
        injector.stop()
        for source in sources:
            source.stop()
        router.run(0.015)
    return ordered(rows)


#: case name -> zero-argument function returning the ordered rows
CASES = {
    **{
        f"chaos-{seed}-{policy}": (lambda s=seed, p=policy: _chaos(s, p))
        for seed in (0, 1, 12345)
        for policy in ("static", "adaptive")
    },
    "forward-64": _forward_64,
    # BDR repairs fast; SPARED repairs slowly, so its standby swap matters
    "bdr": lambda: _accelerated("BDR", 20000.0),
    "spared": lambda: _accelerated("SPARED", 500.0),
}
#: the traced chaos case must give exactly the rows of its untraced twin
TRACED_CASE = ("chaos-0-static-traced", "chaos-0-static")
CASES[TRACED_CASE[0]] = lambda: _chaos(0, "static", traced=True)


# -- digests ---------------------------------------------------------------------


def _sha(rows: list[str]) -> str:
    return hashlib.sha256("".join(row + "\n" for row in rows).encode()).hexdigest()


def summarize(rows: list[str]) -> dict:
    """One sha256 for the case plus one per 1,000-row chunk, each chunk
    labelled with the terminal-time window it covers."""
    chunks = []
    for start in range(0, len(rows), CHUNK):
        part = rows[start:start + CHUNK]
        chunks.append({
            "rows": [start, start + len(part)],
            "t": [float.fromhex(part[0].split()[4]), float.fromhex(part[-1].split()[4])],
            "sha256": _sha(part),
        })
    return {"rows": len(rows), "sha256": _sha(rows), "chunks": chunks}


def load() -> dict:
    return json.loads(LEDGER.read_text())
