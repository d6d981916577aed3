"""The README's examples run: the library sketch executes and every
command of the "Command line" section exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from orbifold_voa.cli import EXIT_OK, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(section: str, lang: str) -> str:
    """The first fenced `lang` block under the `## section` heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for line in _block("Command line", "sh").splitlines()
    if line.startswith("orbifold-voa ")
]


def test_library_sketch_runs():
    exec(compile(_block("Library sketch", "python"), "README.md", "exec"), {})


def test_readme_lists_commands():
    assert len(COMMANDS) >= 10


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_exits_0(capsys, argv):
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out
