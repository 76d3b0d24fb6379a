"""Pin the public knobs: every CLI argument and every ``RunConfig`` field.

Adding or removing a knob must update these literal lists in the same
change, so the knob count never drifts unnoticed.
"""

from __future__ import annotations

import argparse
import dataclasses

import pytest

from repro.cli import build_parser
from repro.plans import RunConfig

#: Each subcommand's option strings, then its positional arguments by name.
CLI_ARGUMENTS = {
    "list": [],
    "run": [
        "--scale", "--csv-dir", "--jobs", "--trials", "--requests", "--cache-dir",
        "--resume", "--max-retries", "--executor", "plan",
    ],
    "worker": ["--listen", "--metrics"],
    "serve": [
        "--listen", "--nodes", "--algorithm", "--base-seed", "--log-dir",
        "--queue-limit", "--metrics", "--metrics-snapshot-interval",
    ],
    "replay": ["--jobs", "--csv-dir", "--allow-mid-loss", "log"],
    "cache": ["--cache-dir", "--json", "action"],
    "metrics": ["--json", "--trace", "address"],
    "report": ["--scale", "--output", "--jobs"],
}

RUN_CONFIG_FIELDS = [
    "n_requests", "n_trials", "base_seed", "keep_records", "n_jobs",
    "worker_timeout", "max_retries", "cache_dir", "executor",
]


def cli_arguments():
    parser = build_parser()
    (subparsers,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    arguments = {}
    for name, subparser in subparsers.choices.items():
        actions = [
            action for action in subparser._actions
            if not isinstance(action, argparse._HelpAction)
        ]
        arguments[name] = [
            string for action in actions for string in action.option_strings
        ] + [action.dest for action in actions if not action.option_strings]
    return arguments


def test_cli_arguments_are_pinned():
    arguments = cli_arguments()
    assert sorted(arguments) == sorted(CLI_ARGUMENTS)
    assert sum(map(len, arguments.values())) == 33


@pytest.mark.parametrize("command", sorted(CLI_ARGUMENTS))
def test_subcommand_arguments_are_pinned(command):
    assert cli_arguments()[command] == CLI_ARGUMENTS[command]


@pytest.mark.parametrize(
    "argv",
    [["run", "smoke", "--lease", "5"], ["run", "smoke", "--heartbeat", "2"],
     ["worker", "--heartbeat", "0.5"]],
    ids=["run-lease", "run-heartbeat", "worker-heartbeat"],
)
def test_retired_executor_flags_are_refused(argv, capsys):
    # the address query ?lease=S&heartbeat=S is the one way to set them
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["demo"], ["demo", "--nodes", "1023"]], ids=["bare", "with-options"]
)
def test_retired_demo_subcommand_is_refused(argv, capsys):
    # ``repro run smoke`` (or any plan document) is the quick comparison
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    assert "invalid choice: 'demo'" in capsys.readouterr().err


def test_run_config_fields_are_pinned():
    assert [field.name for field in dataclasses.fields(RunConfig)] == RUN_CONFIG_FIELDS
