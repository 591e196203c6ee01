"""Every ``repro-noise`` command shown in the docs parses.

Each line of a fenced code block in ``README.md`` and ``docs/*.md``
that runs ``repro-noise`` (after joining ``\\`` continuations) must be
accepted by :func:`repro.cli.build_parser`, so a renamed subcommand or a
deleted flag cannot linger in a copy-paste example.  Lines holding a
``...`` placeholder are not whole commands and are skipped.
"""

import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
#: shell tokens that end the command (background, pipe, redirect, chain)
_SHELL_STOPS = {"&", "&&", "|", ";", ">", ">>"}


def documented_commands():
    """``(where, argv)`` for each ``repro-noise`` line in a fenced block."""
    out = []
    for path in DOCS:
        fenced, pending, start = False, "", 0
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if line.lstrip().startswith("```"):
                fenced, pending = not fenced, ""
                continue
            if not fenced:
                continue
            if not pending:
                start = number
            pending += line
            if line.endswith("\\"):
                pending = pending[:-1] + " "
                continue
            command, pending = pending, ""
            if "repro-noise " not in command or "..." in command:
                continue
            tokens = shlex.split(command, comments=True)
            if "repro-noise" not in tokens:
                continue
            argv = tokens[tokens.index("repro-noise") + 1 :]
            for i, token in enumerate(argv):
                if token in _SHELL_STOPS:
                    argv = argv[:i]
                    break
            out.append((f"{path.relative_to(ROOT)}:{start}", argv))
    return out


COMMANDS = documented_commands()


def test_the_docs_show_commands():
    assert len(COMMANDS) >= 40


@pytest.mark.parametrize("argv", [a for _, a in COMMANDS], ids=[w for w, _ in COMMANDS])
def test_documented_command_parses(argv, capsys):
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"repro-noise {shlex.join(argv)}: {capsys.readouterr().err.strip()}")
