"""scripts/cli_chain.py's command lines against the CLI's parser."""

import importlib.util
from pathlib import Path

import pytest

from thermofault.cli import build_parser

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "cli_chain.py"
_spec = importlib.util.spec_from_file_location("cli_chain", SCRIPT)
cli_chain = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_chain)


@pytest.mark.parametrize(
    "command", cli_chain.COMMANDS, ids=lambda c: f"{c[0]}-{c[c.index('--out') + 1]}"
)
def test_every_chain_command_parses(command):
    """Each command line of the chain parses with the CLI's own parser, so
    the script cannot drift from the CLI's flags; the chain itself is not
    run here."""
    args = build_parser().parse_args(command)
    assert args.command == command[0]

