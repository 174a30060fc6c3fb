"""Export helpers: CSV records and chain graphs."""

from __future__ import annotations

import csv
import io
from collections.abc import Sequence
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.analysis.sweep import SweepRecord

if TYPE_CHECKING:
    from repro.markov.ctmc import CTMC

__all__ = ["records_to_csv", "chain_to_networkx", "chain_to_dot"]


def records_to_csv(
    records: Sequence[SweepRecord], path: str | Path | None = None
) -> str:
    """Serialize sweep records to CSV (returned; also written when ``path``
    is given).  Extra annotations become additional columns."""
    extra_keys: list[str] = []
    for rec in records:
        for key, _ in rec.extra:
            if key not in extra_keys:
                extra_keys.append(key)
    buf = io.StringIO()
    # Explicit "\n" keeps the in-memory text identical to what
    # Path.read_text() returns after a round trip (universal newlines
    # would otherwise fold the csv module's "\r\n").
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["label", "x", "value", *extra_keys])
    for rec in records:
        row: list[Any] = [rec.label, rec.x, rec.value]
        row.extend(rec.get(k, "") for k in extra_keys)
        writer.writerow(row)
    text = buf.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text


def chain_to_networkx(chain: CTMC) -> Any:
    """The chain's transition graph as a ``networkx.DiGraph`` with state
    labels stringified and rates on the edges (Figure 5 regeneration)."""
    import networkx as nx

    g = nx.DiGraph()
    for s in chain.states:
        g.add_node(str(s))
    coo = chain.generator.tocoo()
    for i, j, q in zip(coo.row, coo.col, coo.data):
        if i != j and q > 0.0:
            g.add_edge(str(chain.states[i]), str(chain.states[j]), rate=float(q))
    return g


def chain_to_dot(chain: CTMC) -> str:
    """A Graphviz DOT rendering of the chain (no graphviz dependency)."""
    lines = ["digraph ctmc {", "  rankdir=LR;"]
    coo = chain.generator.tocoo()
    for s in chain.states:
        lines.append(f'  "{s}";')
    for i, j, q in zip(coo.row, coo.col, coo.data):
        if i != j and q > 0.0:
            lines.append(
                f'  "{chain.states[i]}" -> "{chain.states[j]}" [label="{q:.2e}"];'
            )
    lines.append("}")
    return "\n".join(lines)
