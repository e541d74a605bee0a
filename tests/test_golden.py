"""Default CLI output is byte-identical to the committed golden table.

``tests/golden/cli_sha256.json`` maps each command to its exit code and the
sha256 of its stdout; ``scripts/check_golden.py`` runs the whole table as
fresh processes, this test the commands that take under about 2 s, in
process.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from anyongates.cli import main

TABLE = json.loads((Path(__file__).parent / "golden" / "cli_sha256.json").read_text())
SLOW = {
    "classify --model dg_abelian:2,2 --surface torus --format json",
    "classify --model ising --surface sphere:sigma:14 --format json",
    "classify --model zn_toric:3 --surface torus --words s,st,stst --format json",
    "classify --model zn_toric:5 --surface torus --format json",
}


@pytest.mark.parametrize("command", sorted(set(TABLE) - SLOW))
def test_cli_output_matches_the_golden_table(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(command.split())
    got = {"exit": rc, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}
    assert got == TABLE[command]


def test_slow_commands_are_in_the_table():
    assert SLOW <= set(TABLE)


def test_a_command_past_the_timeout_is_a_failed_row(monkeypatch, capsys):
    """``scripts/check_golden.py`` kills a command that outlives its timeout
    and counts it as a failed TIMEOUT row instead of waiting for it."""
    path = Path(__file__).parents[1] / "scripts" / "check_golden.py"
    spec = importlib.util.spec_from_file_location("check_golden", path)
    check_golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_golden)
    command = "validate --model ising --format json"
    monkeypatch.setattr(check_golden, "GRID", [command])
    monkeypatch.setattr(check_golden, "TIMEOUT_S", 0.001)
    assert check_golden.main([]) == 1
    assert "TIMEOUT" in capsys.readouterr().out.splitlines()[0]
