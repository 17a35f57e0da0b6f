"""Pin the option surface of ``python -m repro``.

Every subcommand's options are recorded (option strings, dest, default,
type, choices, nargs, required, action class) in
``tests/golden/cli_surface.json``; help text is deliberately not pinned.
A refactor of the CLI must leave this surface unchanged.  After a
deliberate change of options, regenerate the golden with::

    PYTHONPATH=src python tests/test_cli_surface.py
"""

import argparse
import json
from pathlib import Path

from repro.cli import build_parser

GOLDEN = Path(__file__).parent / "golden" / "cli_surface.json"


def _option(action: argparse.Action) -> dict:
    kind = action.type
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "type": None if kind is None else getattr(kind, "__name__",
                                                  repr(kind)),
        "choices": (None if action.choices is None
                    else sorted(action.choices)),
        "nargs": action.nargs,
        "required": action.required,
        "action": type(action).__name__,
    }


def _order(action: argparse.Action) -> tuple:
    # Positionals first, in declaration order (the sort is stable); the
    # order flags are registered in only affects --help, so it is free.
    if not action.option_strings:
        return (0, "")
    return (1, action.option_strings[-1])


def cli_surface(parser: argparse.ArgumentParser) -> dict:
    """{subcommand: [option records]} for the top-level ``repro`` parser."""
    (subparsers,) = [a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
    return {name: [_option(a) for a in sorted(sub._actions, key=_order)]
            for name, sub in sorted(subparsers.choices.items())}


def test_cli_surface_matches_golden():
    expected = json.loads(GOLDEN.read_text())
    # JSON round-trip so tuples/lists compare like the stored file.
    current = json.loads(json.dumps(cli_surface(build_parser())))
    assert current.keys() == expected.keys()
    for name in expected:
        assert current[name] == expected[name], name


if __name__ == "__main__":  # pragma: no cover
    GOLDEN.write_text(json.dumps(cli_surface(build_parser()), indent=2,
                                 sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
