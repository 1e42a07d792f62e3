"""Every ``rsw`` line of README's command-line block runs and exits 0."""

import shlex
from pathlib import Path

import pytest

from rswlab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands() -> list[list[str]]:
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv and argv[0] == "rsw":
            commands.append(argv[1:])
    return commands


COMMANDS = _readme_commands()


def test_block_covers_every_subcommand():
    assert {argv[0] for argv in COMMANDS} == {
        "field", "trajectory", "residual", "commutators", "map"
    }


@pytest.mark.parametrize(
    "argv", COMMANDS, ids=[f"{i + 1}-{argv[0]}" for i, argv in enumerate(COMMANDS)]
)
def test_readme_command_exits_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0, capsys.readouterr().err
