"""The gauntlet subcommands' flags and defaults, pinned.

Every gauntlet subcommand of ``repro`` keeps exactly these option
strings with exactly these defaults; a harness refactor must not add,
drop, or re-default any of them.
"""

from __future__ import annotations

import argparse

from repro.cli import build_parser

SURFACE = {
    "blackout-gauntlet": {
        "--seeds": [0, 1, 2],
        "--json": None,
        "--telemetry-out": None,
    },
    "chaos": {
        "--policies": ["mm", "im"],
        "--servers": 5,
        "--tau": 30.0,
        "--horizon": 1800.0,
        "--seeds": 3,
        "--seed": 0,
        "--compare": False,
        "--telemetry-out": None,
    },
    "dynamic-gauntlet": {
        "--seeds": [0, 1, 2],
        "--horizon": 1800.0,
        "--json": None,
        "--telemetry-out": None,
    },
    "figure3-liars": {
        "--json": None,
    },
    "flash-crowd": {
        "--json": None,
        "--seeds": [11, 12, 13],
    },
    "live-gauntlet": {
        "--seeds": [0],
        "--duration": 12.0,
        "--json": None,
        "--telemetry-out": None,
    },
    "mitm-gauntlet": {
        "--seeds": [0, 1, 2],
        "--json": None,
        "--telemetry-out": None,
    },
    "scale-gauntlet": {
        "--sizes": [1000, 10000],
        "--seeds": [0],
        "--shards": 4,
        "--processes": 0,
        "--tau": 60.0,
        "--cycles": 8,
        "--json": None,
    },
}


def _subcommands():
    parser = build_parser()
    (action,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def test_gauntlet_subcommand_flags_and_defaults():
    subcommands = _subcommands()
    for command, expected in SURFACE.items():
        options = {
            action.option_strings[0]: action.default
            for action in subcommands[command]._actions
            if action.option_strings and action.option_strings[0] != "-h"
        }
        assert options == expected, command
