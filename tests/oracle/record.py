"""Re-record the per-packet outcome ledger.

Run from the repository root::

    PYTHONPATH=src python -m tests.oracle.record

It rewrites ``tests/oracle/ledger.json`` (per-case and per-chunk
digests) and the full rows of the shortest case.  A change that
re-records says why; a performance change never does, since the ledger
is what proves it kept every per-packet outcome.
"""

from __future__ import annotations

import json

from tests.oracle.ledger import CASES, FULL_ROWS, FULL_ROWS_CASE, LEDGER, TRACED_CASE, summarize


def main() -> None:
    ledger = {}
    for name, run in CASES.items():
        rows = run()
        ledger[name] = summarize(rows)
        if name == FULL_ROWS_CASE:
            FULL_ROWS.write_text("".join(row + "\n" for row in rows))
        print(f"{name}: {len(rows)} rows {ledger[name]['sha256'][:16]}")
    traced, untraced = TRACED_CASE
    if ledger[traced] != ledger[untraced]:
        raise SystemExit(f"{traced} differs from {untraced}: tracing changed an outcome")
    LEDGER.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
