import contextlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from anyongates import cli
from anyongates.cli import _parse_surface, main
from anyongates.models import load_builtin, serialize_model
from anyongates.solver import delta_set, intersect_delta

from oracles import reference_delta_intersection, reference_report_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# validate


def test_validate_builtin_text(capsys):
    code, out, err = run(capsys, "validate", "--model", "ising")
    assert code == 0
    assert "result: pass" in out
    assert err == ""


def test_validate_json_payload(capsys):
    code, out, _ = run(capsys, "validate", "--model", "fibonacci", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert "smatrix_unitary" in payload["checks"]
    assert payload["checks"]["verlinde_matches_fusion"]["passed"] is True


def test_validate_model_file(tmp_path, capsys):
    path = tmp_path / "ising.json"
    path.write_text(serialize_model(load_builtin("ising")))
    code, out, _ = run(capsys, "validate", "--model", str(path))
    assert code == 0
    assert "result: pass" in out


def test_validate_corrupted_model_fails(tmp_path, capsys):
    payload = json.loads(serialize_model(load_builtin("ising")))
    payload["smatrix"][0] = [0.9, 0.0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "validate", "--model", str(path))
    assert code == 1
    assert "FAIL" in out


def test_validate_unparseable_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "validate", "--model", str(path))
    assert code == 2
    assert "error:" in err


def test_validate_unknown_builtin(capsys):
    code, _, err = run(capsys, "validate", "--model", "heisenberg")
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# classify


def test_classify_torus_text(capsys):
    code, out, _ = run(capsys, "classify", "--model", "fibonacci",
                       "--surface", "torus")
    assert code == 0
    assert "verdict:  trivial" in out


def test_classify_sphere_json(capsys):
    code, out, _ = run(capsys, "classify", "--model", "ising",
                       "--surface", "sphere:sigma:4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pauli_group"
    assert payload["n_classes"] == 4
    assert payload["surface"] == "sphere:sigma:4"


def test_classify_json_deterministic(capsys):
    argv = ("classify", "--model", "zn_toric:2", "--surface", "torus",
            "--format", "json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_classify_custom_words(capsys):
    code, out, _ = run(capsys, "classify", "--model", "fibonacci",
                       "--surface", "torus", "--words", "s")
    assert code == 0
    assert "classes:  2" in out


@pytest.mark.parametrize("command", ["classify", "delta"])
@pytest.mark.parametrize("punctures", [3, 5])
def test_infeasible_surface_exits_1(capsys, command, punctures):
    """An empty code space is a domain failure for classify and delta alike."""
    surface = f"sphere:sigma:{punctures}"
    code, out, err = run(capsys, command, "--model", "ising", "--surface", surface,
                         "--words", "s1,s2")
    assert (code, out) == (1, "")
    assert err == f"error: {surface} has an empty code space for model ising\n"


def test_classify_out_of_reach_sphere_fails_fast(capsys):
    """sphere:sigma:24 would fill 4^11 classes of 2048 entries at 64 bytes
    each; the classifier names that estimate and exits 1 before allocating
    them."""
    argv = ("classify", "--model", "ising", "--surface", "sphere:sigma:24")
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (1, "")
    assert "error: classes: 4,194,304 x 131,072 bytes, " in err
    assert "above the budget of 1,073,741,824 bytes" in err
    tracemalloc.start()
    try:
        assert run(capsys, *argv)[0] == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_classify_bad_surface_spec(capsys):
    for spec in ("klein", "sphere:sigma", "sphere:sigma:x"):
        code, _, err = run(capsys, "classify", "--model", "ising",
                           "--surface", spec)
        assert code == 2, spec
        assert "error:" in err


def test_classify_unknown_label(capsys):
    code, _, err = run(capsys, "classify", "--model", "ising",
                       "--surface", "sphere:phi:4")
    assert code == 2
    assert "error:" in err


def test_classify_empty_word_list(capsys):
    code, _, err = run(capsys, "classify", "--model", "fibonacci",
                       "--surface", "torus", "--words", ",")
    assert code == 2
    assert "empty word list" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--model", "ising", "--surface", "torus", "--words", "x"),
        ("delta", "--model", "ising", "--surface", "sphere:sigma:6", "--words", "s9"),
        ("classify", "--model", "ising", "--surface", "sphere:sigma:-2"),
    ],
    ids=["unparseable-word", "generator-out-of-range", "negative-punctures"],
)
def test_malformed_input_exits_2(argv, capsys):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# delta


def test_delta_torus_json(capsys):
    code, out, _ = run(capsys, "delta", "--model", "fibonacci",
                       "--surface", "torus", "--words", "s,st",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["per_word"] == {"s": 2, "st": 2}
    assert len(payload["intersection"]) == 1
    assert payload["intersection"][0]["perm"] == [0, 1]


def test_delta_needs_words(capsys):
    code, _, err = run(capsys, "delta", "--model", "fibonacci",
                       "--surface", "torus")
    assert code == 2
    assert "error:" in err


def test_delta_over_budget_exits_1(capsys):
    """The flat 9 x 9 S matrix of zn_toric:3 makes 9! matchings for every
    gate permutation; the search names its stage, count and budget, and
    exits 1."""
    code, out, err = run(capsys, "delta", "--model", "zn_toric:3",
                         "--surface", "torus", "--words", "s")
    assert (code, out) == (1, "")
    assert "error: pair arrays: 521,821,440 x 160 bytes, " in err
    assert "above the budget of 1,073,741,824 bytes" in err


def test_delta_text_lists_families(capsys):
    code, out, _ = run(capsys, "delta", "--model", "ising",
                       "--surface", "torus", "--words", "s,st")
    assert code == 0
    assert "intersection: 4 families" in out


@pytest.mark.parametrize("model, surface, words", [
    ("ising", "sphere:sigma:8", "s2"),
    ("fibonacci", "sphere:tau:7", "s2,s3"),
    ("zn_toric:2", "torus", "s,st,stst"),
    ("ising", "torus", "s,st"),
])
def test_delta_json_equals_the_per_family_records(model, surface, words, capsys):
    """The intersection, written from its arrays, is the standard encoder's
    text of one dict per family."""
    code, out, _ = run(capsys, "delta", "--model", model, "--surface", surface,
                       "--words", words, "--format", "json")
    anyons = load_builtin(model)
    spec = _parse_surface(surface, anyons)
    sets = {w: delta_set(anyons, spec, w) for w in words.split(",")}
    payload = {
        "model": anyons.name,
        "surface": spec.describe(anyons),
        "per_word": {w: len(s) for w, s in sets.items()},
        "intersection": reference_delta_intersection(intersect_delta(list(sets.values()))),
    }
    assert code == 0
    assert out == reference_report_json(payload) + "\n"


# ---------------------------------------------------------------------------
# lattice


def test_lattice_pass(capsys):
    code, out, _ = run(capsys, "lattice", "--qudit", "2", "--size", "2")
    assert code == 0
    assert "result: pass" in out


def test_lattice_json(capsys):
    code, out, _ = run(capsys, "lattice", "--qudit", "3", "--size", "3",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["modulus"] == 3
    assert payload["pairs_checked"] == 81


def test_lattice_rejects_small_qudit(capsys):
    code, _, err = run(capsys, "lattice", "--qudit", "1", "--size", "2")
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# parser behavior


def test_missing_subcommand_exits_with_usage():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_bad_format_choice_exits_with_usage():
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--model", "ising", "--format", "yaml"])
    assert exc.value.code == 2


REQUIRED = {
    "validate": ("--model", "ising"),
    "classify": ("--model", "ising", "--surface", "torus"),
    "delta": ("--model", "ising", "--surface", "torus", "--words", "s"),
    "lattice": ("--qudit", "2", "--size", "2"),
}
PARSER_GRID = [
    (), ("-h",), ("--help",), ("bogus",), ("bogus", "--model", "ising"),
    ("--tol", "1e-9", "validate", "--model", "ising"),
    ("--format", "json", "lattice", "--qudit", "2", "--size", "2"),
] + [
    argv
    for command, required in REQUIRED.items()
    for argv in [
        (command,), (command, "-h"), (command, "--help"), (command, *required),
        (command, *required, "--tol", "nan"), (command, *required, "--format", "xml"),
        (command, *required, "--bogus"), (command, *required, "--bogus", "x"),
        (command, *required, "stray"),
    ]
]


def _outcome(call):
    """Exit code, stdout and stderr of one call, an argparse exit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSER_GRID, ids=" ".join)
def test_the_named_command_parser_answers_as_the_full_one(argv):
    """Help, usage errors and runs come out byte for byte as the parser of
    all four commands gives them; argparse reports an option it does not
    know after a command with the top-level usage line."""
    named = _outcome(lambda: main(list(argv)))
    full = _outcome(lambda: cli._run(cli.build_parser(cli.COMMANDS), list(argv)))
    assert named == full


def test_main_builds_the_named_command_alone(monkeypatch):
    """A command line that names a command gets a parser of that command
    alone; help and an unknown command get all four."""
    built = []
    build = cli.build_parser

    def spy(commands):
        built.append(commands)
        return build(commands)

    monkeypatch.setattr(cli, "build_parser", spy)
    for argv in (["lattice", "--qudit", "2", "--size", "2"], ["--help"], ["bogus"]):
        _outcome(lambda: main(argv))
    assert built == [("lattice",), cli.COMMANDS, cli.COMMANDS]
    code, _, err = _outcome(lambda: build(("lattice",)).parse_args(["validate"]))
    assert code == 2
    assert "invalid choice: 'validate' (choose from 'lattice')" in err


def test_importing_the_cli_builds_no_parser():
    code = "import anyongates.cli as c; print(c.build_parser.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0"


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf", "-1e-300"])
@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "--model", "ising"),
        ("classify", "--model", "ising", "--surface", "sphere:sigma:6"),
        ("classify", "--model", "ising", "--surface", "torus"),
        ("delta", "--model", "fibonacci", "--surface", "torus", "--words", "s"),
        ("lattice", "--qudit", "2", "--size", "2"),
    ],
    ids=["validate", "classify", "classify-torus", "delta", "lattice"],
)
def test_tol_must_be_finite_and_non_negative(argv, tol, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"--tol={tol}"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "anyongates.cli", "validate", "--model", "fibonacci"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0
    assert "result: pass" in proc.stdout
