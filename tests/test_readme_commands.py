"""Every ``python -m repro ...`` command the README shows parses.

The README is the first place a reader copies a command from, so a retired
subcommand or option must leave it in the same change (the CLI refuses both).
Continuation lines (a trailing backslash) are joined and comments dropped.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
PREFIX = re.compile(r"^PYTHONPATH=src python -m repro (?!\S*\.)")


def readme_commands():
    commands = []
    lines = iter(README.read_text().splitlines())
    for line in lines:
        if not PREFIX.match(line):
            continue
        while line.endswith("\\"):
            line = line[:-1] + next(lines)
        argv = shlex.split(PREFIX.sub("", line), comments=True)
        commands.append(argv)
    return commands


COMMANDS = readme_commands()


def test_the_readme_shows_commands():
    assert ["run", "smoke"] in COMMANDS
    assert all(argv[0] != "demo" for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_parses(argv):
    assert build_parser().parse_args(argv).command == argv[0]
