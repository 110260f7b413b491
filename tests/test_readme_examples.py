"""The README's command-line examples, run through the CLI byte for byte.

Each ``$ hassett ...`` line in README.md is followed by its stdout line.
Examples whose output is abbreviated with an ellipsis are skipped; a
trailing ``# exit N`` comment states a non-zero exit status.
"""

from __future__ import annotations

import io
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import hassett.cli as cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples() -> list[tuple[list[str], int, str]]:
    lines = README.read_text(encoding="utf-8").splitlines()
    out = []
    for command, output in zip(lines, lines[1:]):
        if not command.startswith("$ hassett ") or "\u2026" in output:
            continue
        exit_code = re.search(r"#\s*exit (\d+)", command)
        argv = shlex.split(command[len("$ hassett "):], comments=True)
        out.append((argv, int(exit_code.group(1)) if exit_code else 0, output + "\n"))
    return out


EXAMPLES = _examples()


def test_examples_are_found():
    assert len(EXAMPLES) == 8


@pytest.mark.parametrize(
    "argv,exit_code,expected", EXAMPLES, ids=[" ".join(e[0][:1] + e[0][-1:]) for e in EXAMPLES]
)
def test_readme_example(argv, exit_code, expected):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(argv)
    assert rc == exit_code
    assert out.getvalue() == expected
