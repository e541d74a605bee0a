"""The fixed case lists of the three workloads and the check of every output.

A case is one ``anyongates`` command line.  Its check reads the command's
exit code and JSON output and returns None when the output is right, or a
one-line reason when it is not.  The expected values are the paper's
verdicts and group orders and, for ``delta``, the family counts of the
current solver; every ``delta`` family is also re-verified numerically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# |entry| below this counts as zero, above it must be 1 within MONOMIAL_TOL.
ZERO_TOL = 1e-6
MONOMIAL_TOL = 1e-6


@dataclass
class Case:
    argv: tuple[str, ...]
    check: Callable[["Case", int | None, str], str | None]
    expect: dict = field(default_factory=dict)
    # Word matrices for delta cases, filled by prepare() before timing.
    word_matrices: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return " ".join(a for a in self.argv if a not in ("--format", "json"))


def _payload(rc, text):
    if rc != 0:
        return None, f"exit code {rc}"
    try:
        return json.loads(text), None
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON: {exc}"


def _check_classify(case, rc, text):
    data, err = _payload(rc, text)
    if err:
        return err
    want = case.expect
    if data["verdict"] != want["verdict"]:
        return f"verdict {data['verdict']!r}, expected {want['verdict']!r}"
    if data["n_classes"] != len(data["classes"]):
        return f"n_classes {data['n_classes']} but {len(data['classes'])} classes listed"
    if data["n_classes"] != want["classes"]:
        return f"{data['n_classes']} classes, expected {want['classes']}"
    if "order" in want and data["group_order"] != want["order"]:
        return f"group order {data['group_order']}, expected {want['order']}"
    return None


def _check_validate(case, rc, text):
    data, err = _payload(rc, text)
    if err:
        return err
    failed = [name for name, res in data["checks"].items() if not res["passed"]]
    if not data["passed"] or failed:
        return f"validation failed: {failed}"
    return None


def _check_lattice(case, rc, text):
    data, err = _payload(rc, text)
    if err:
        return err
    if not data["passed"]:
        return f"lattice check failed, max mismatch {data['max_mismatch']}"
    return None


def _is_monomial_batch(mats: np.ndarray) -> np.ndarray:
    """Per matrix of a (k, n, n) stack: one unit-modulus entry per row and column."""
    absm = np.abs(mats)
    big = absm > ZERO_TOL
    one_per_line = (big.sum(axis=1) == 1).all(axis=1) & (big.sum(axis=2) == 1).all(axis=1)
    unit = (np.where(big, np.abs(absm - 1.0), 0.0) < MONOMIAL_TOL).all(axis=(1, 2))
    return one_per_line & unit


def _check_delta(case, rc, text):
    data, err = _payload(rc, text)
    if err:
        return err
    want = case.expect
    if data["per_word"] != want["per_word"]:
        return f"per-word family counts {data['per_word']}, expected {want['per_word']}"
    fams = data["intersection"]
    if len(fams) != want["intersection"]:
        return f"{len(fams)} intersection families, expected {want['intersection']}"
    # Rebuild every family's gate G (column l -> row perm[l], phase e^{i phi_l})
    # and require V G V^dagger to stay monomial for every word.
    n = len(fams[0]["perm"])
    perms = np.array([f["perm"] for f in fams], dtype=np.int64)
    phases = np.exp(1j * np.array([f["phases"] for f in fams], dtype=np.float64))
    gates = np.zeros((len(fams), n, n), dtype=np.complex128)
    k_idx, l_idx = np.meshgrid(np.arange(len(fams)), np.arange(n), indexing="ij")
    gates[k_idx, perms, l_idx] = phases
    for word, v in case.word_matrices.items():
        ok = _is_monomial_batch(v @ gates @ v.conj().T)
        if not ok.all():
            return f"family {int(np.argmin(ok))} is not kept monomial by word {word!r}"
    return None


def prepare(case: Case) -> None:
    """Compute the reference word matrices a delta check needs."""
    if case.argv[0] != "delta":
        return
    from anyongates.mcg import evaluate_word
    from anyongates.models import load_builtin
    from anyongates.surfaces import sphere_surface, torus_surface

    args = dict(zip(case.argv[1::2], case.argv[2::2]))
    model = load_builtin(args["--model"])
    if args["--surface"] == "torus":
        surface = torus_surface()
    else:
        _, label, punctures = args["--surface"].split(":")
        surface = sphere_surface(model, label, int(punctures))
    for word in args["--words"].split(","):
        case.word_matrices[word] = evaluate_word(model, surface, word).matrix


def _classify(model, surface, **expect):
    argv = ("classify", "--model", model, "--surface", surface, "--format", "json")
    return Case(argv, _check_classify, expect)


def _delta(model, surface, words, per_word, intersection):
    argv = ("delta", "--model", model, "--surface", surface, "--words", words,
            "--format", "json")
    return Case(argv, _check_delta, {"per_word": per_word, "intersection": intersection})


def sphere_classify() -> list[Case]:
    cases = [
        _classify("ising", f"sphere:sigma:{m}", verdict="pauli_group",
                  classes=4 ** (m // 2 - 1), order=4 ** (m // 2 - 1))
        for m in (6, 8, 10, 12)
    ]
    cases += [
        _classify("fibonacci", f"sphere:tau:{m}", verdict="trivial", classes=1, order=1)
        for m in (7, 9, 11)
    ]
    return cases


TORUS_EXPECT = {
    "fibonacci": {"verdict": "trivial", "classes": 1, "order": 1},
    "ising": {"verdict": "upper_bound_only", "classes": 4},
    "zn_toric:2": {"verdict": "clifford_star_subgroup", "classes": 96, "order": 96},
    "zn_toric:3": {"verdict": "clifford_star_subgroup", "classes": 324, "order": 324},
    "zn_toric:4": {"verdict": "clifford_star_subgroup", "classes": 4096, "order": 4096},
}


def torus_abelian() -> list[Case]:
    cases = []
    for model, expect in TORUS_EXPECT.items():
        cases.append(Case(("validate", "--model", model, "--format", "json"), _check_validate))
        cases.append(_classify(model, "torus", **expect))
    cases.append(Case(("lattice", "--qudit", "4", "--size", "6", "--format", "json"),
                      _check_lattice))
    return cases


def delta_wildcard() -> list[Case]:
    return [
        _delta("ising", "sphere:sigma:8", "s2", {"s2": 6144}, 6144),
        _delta("fibonacci", "sphere:tau:7", "s2,s3", {"s2": 96, "s3": 192}, 4),
        _delta("zn_toric:2", "torus", "s,st", {"s": 96, "st": 96}, 96),
        _delta("ising", "torus", "s,st", {"s": 4, "st": 4}, 4),
        _delta("fibonacci", "torus", "s,st", {"s": 2, "st": 2}, 1),
    ]


WORKLOADS = {
    "sphere_classify": sphere_classify,
    "torus_abelian": torus_abelian,
    "delta_wildcard": delta_wildcard,
}
