"""The README's examples run as written: the Python quick start, and every
`natorus` line of the command-line section, each exiting 0."""

import shlex
from pathlib import Path

import pytest

from natorus import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def _block(section: str, language: str) -> str:
    """The first ```language block after the heading `section`."""
    after = README.split(f"\n## {section}\n", 1)[1]
    return after.split(f"```{language}\n", 1)[1].split("```", 1)[0]


COMMANDS = [
    line for line in _block("Command line", "sh").splitlines() if line.startswith("natorus ")
]


def test_the_quick_start_runs(capsys):
    exec(compile(_block("Quick start", "python"), "README quick start", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1].startswith("True ")


def test_the_command_line_section_lists_commands():
    assert len(COMMANDS) >= 10 and "natorus verify-all" in COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_each_readme_command_exits_zero(command, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert cli.main(shlex.split(command)[1:]) == 0, capsys.readouterr().err
