"""Every ``rsw`` line of README's command-line block runs and exits 0."""

import importlib.util
import json
from pathlib import Path

import pytest

from rswlab.cli import main

# the block is parsed once, by the output digest, which lists these commands too
_DIGEST = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"
_spec = importlib.util.spec_from_file_location("output_digest", _DIGEST)
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)

COMMANDS = [argv for _, argv in output_digest.readme_commands()]


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


@pytest.mark.parametrize("argv", [argv for argv in COMMANDS if argv[0] == "map"])
def test_readme_map_residual_is_at_rounding_level(argv, tmp_path, monkeypatch, capsys):
    # mapped fields have analytic jets, composed through the map
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--format", "json", "--out", "map.json"]) == 0
    residual = json.loads((tmp_path / "map.json").read_text())["residual"]
    assert residual["derivative_mode"] == "analytic"
    assert residual["max_residual"] < 1e-12
