"""Every DES case keeps every per-packet outcome in the committed ledger.

A failure names the first 1,000-row chunk that moved and its
terminal-time window; for the fully committed case it also names the
first differing row.
"""

import pytest

from tests.oracle.ledger import (
    CASES,
    FULL_ROWS,
    FULL_ROWS_CASE,
    TRACED_CASE,
    load,
    summarize,
)

LEDGER = load()


def _first_moved_chunk(got: dict, want: dict) -> str:
    for g, w in zip(got["chunks"], want["chunks"]):
        if g != w:
            return f"first moved chunk: rows {w['rows']}, terminal t in {w['t']}"
    return f"row count {got['rows']} != {want['rows']}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_case_matches_ledger(case):
    rows = CASES[case]()
    if case == FULL_ROWS_CASE:
        want_rows = FULL_ROWS.read_text().splitlines()
        diff = next(
            (i for i, (g, w) in enumerate(zip(rows, want_rows)) if g != w),
            None,
        )
        assert diff is None, f"row {diff}: got {rows[diff]!r}, recorded {want_rows[diff]!r}"
    got = summarize(rows)
    want = LEDGER[TRACED_CASE[1] if case == TRACED_CASE[0] else case]
    assert got == want, f"{case}: {_first_moved_chunk(got, want)}"


def test_ledger_covers_every_case():
    assert sorted(LEDGER) == sorted(CASES)
    assert LEDGER[TRACED_CASE[0]] == LEDGER[TRACED_CASE[1]]
