"""docs/cli.md must cover the full parser surface (the CI freshness gate).

Introspects :func:`repro.cli.build_parser` -- the single source of truth
for the CLI -- and fails when a subcommand or flag exists that
``docs/cli.md`` never mentions.  New CLI surface therefore cannot merge
without documentation; see docs/cli.md's header note.
"""

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs" / "cli.md"

_NUMBER_WORDS = {
    word: n
    for n, word in enumerate(
        "zero one two three four five six seven eight nine ten eleven twelve "
        "thirteen fourteen fifteen sixteen seventeen eighteen nineteen "
        "twenty".split()
    )
}


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    raise AssertionError("parser has no subcommands")


@pytest.fixture(scope="module")
def cli_doc() -> str:
    return DOCS.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def commands() -> dict[str, argparse.ArgumentParser]:
    return _subparsers(build_parser())


def test_every_subcommand_has_a_runnable_example(cli_doc, commands):
    missing = [
        name for name in commands if f"python -m repro {name}" not in cli_doc
    ]
    assert not missing, (
        f"docs/cli.md has no 'python -m repro <cmd>' example for: "
        f"{', '.join(sorted(missing))}"
    )


def test_every_flag_is_mentioned(cli_doc, commands):
    missing = []
    for name, sub in sorted(commands.items()):
        for action in sub._actions:
            for opt in action.option_strings:
                if opt in ("-h", "--help"):
                    continue
                if opt not in cli_doc:
                    missing.append(f"{name} {opt}")
    assert not missing, (
        f"docs/cli.md never mentions: {', '.join(missing)}"
    )


def test_every_positional_is_mentioned(cli_doc, commands):
    missing = []
    for name, sub in sorted(commands.items()):
        for action in sub._actions:
            if action.option_strings or isinstance(
                action, argparse._SubParsersAction
            ):
                continue
            if action.dest.upper() not in cli_doc and action.dest not in cli_doc:
                missing.append(f"{name} {action.dest}")
    assert not missing, f"docs/cli.md never mentions positionals: {missing}"


def test_every_flag_has_help_text(commands):
    # DRA401 enforces this at the AST layer; this is the runtime
    # cross-check over the assembled parser, catching dynamic surface.
    missing = [
        f"{name} {action.option_strings or action.dest}"
        for name, sub in sorted(commands.items())
        for action in sub._actions
        if not action.help
    ]
    assert not missing, f"parser actions without help: {missing}"


def test_runtime_flag_table_matches_parser(cli_doc, commands):
    # The reverse direction: a row of the recurring-flags table must not
    # outlive the flag it documents on any command it lists.
    stale = []
    for line in cli_doc.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 3 or not cells[0].startswith("`--"):
            continue
        flags = re.findall(r"--[a-z][a-z-]*", cells[0])
        for cmd in re.findall(r"`([a-z0-9]+)`", cells[1]):
            if cmd not in commands:
                stale.append(f"{cmd} (no such subcommand)")
                continue
            options = {
                opt for action in commands[cmd]._actions
                for opt in action.option_strings
            }
            stale.extend(f"{cmd} {flag}" for flag in flags if flag not in options)
    assert not stale, f"docs/cli.md flag table lists missing flags: {stale}"


@pytest.mark.parametrize(
    "doc, pattern",
    [
        ("README.md", r"all (\w+) subcommands"),
        ("docs/cli.md", r"There are (\w+) subcommands"),
    ],
    ids=["README", "cli"],
)
def test_subcommand_count_word_matches_parser(doc, pattern, commands):
    # The prose count of subcommands must follow the parser as it grows.
    match = re.search(pattern, (ROOT / doc).read_text(encoding="utf-8"))
    assert match, f"{doc} no longer states the subcommand count"
    assert _NUMBER_WORDS[match.group(1)] == len(commands), (
        f"{doc} says {match.group(1)} subcommands; "
        f"build_parser() registers {len(commands)}"
    )
