import dataclasses
import hashlib
import importlib
import json
import time

import numpy as np
import pytest

from anyongates import (
    AnyonModel,
    ClassificationError,
    InfeasibleSurfaceError,
    SearchBudgetError,
    allowed_curve_permutations,
    classify,
    classify_punctured_sphere,
    classify_torus,
    enumerate_labelings,
    iso_phase_set,
    load_builtin,
    parse_model,
    serialize_model,
    sphere_surface,
    torus_surface,
    validate,
)
from anyongates import budget
from anyongates.abelian import (
    affine_permutations,
    string_operator_matrices,
    string_operators,
    torus_word_families,
)
from anyongates.classify import VERDICTS, _contains_logical_paulis
from anyongates.cli import main
from anyongates.jsonwriter import Rows
from anyongates.models import _fill_fsymbols, _fill_rsymbols
from anyongates.solver import DeltaSet, MonomialMatrix, delta_set, intersect_delta, row_keys
from anyongates.surfaces import BasisIndex
from anyongates.tolerances import DEFAULT_TOL, MEMBERSHIP_TOL

from oracles import (
    _round_floats,
    contains_logical_paulis_by_scan,
    contains_logical_paulis_loop,
    count_preserving_bijections,
    cut_dimension_permutations,
    deligne_product,
    dense_sphere_word_filter,
    families,
    ising_qubit_isomorphism,
    monomial_from_matrix,
    reference_contains_logical_paulis,
    reference_factorized_classes,
    reference_iso_phase_functions,
    reference_family_classes,
    reference_json_sort,
    reference_report_json,
)

FIB = load_builtin("fibonacci")
ISING = load_builtin("ising")
Z2 = load_builtin("zn_toric:2")

classify_module = importlib.import_module("anyongates.classify")

IDENT2 = ((0, 0), (1, 1))
SWAP2 = ((0, 1), (1, 0))


# ---------------------------------------------------------------------------
# Curve bookkeeping


def test_allowed_curve_permutations_ising():
    surf = sphere_surface(ISING, "sigma", 6)
    allowed = allowed_curve_permutations(ISING, surf)
    assert set(allowed) == {"C1", "C2", "C3"}
    # qubit curves may keep or swap 1 <-> psi; the middle curve is frozen
    for curve in ("C1", "C3"):
        assert set(allowed[curve]) == {IDENT2, SWAP2}
    assert allowed["C2"] == [((2, 2),)]


def test_allowed_curve_permutations_respect_multiplicity():
    surf = sphere_surface(FIB, "tau", 6)
    allowed = allowed_curve_permutations(FIB, surf)
    # vacuum and tau occur with different multiplicity on every curve, so
    # no swap can preserve the cut dimensions
    for perms in allowed.values():
        assert len(perms) == 1
        assert all(a == b for a, b in perms[0])


def _count_enumerations(monkeypatch) -> list:
    """The surfaces enumerate_labelings is called on, from now on."""
    surfaces = importlib.import_module("anyongates.surfaces")
    real = surfaces.enumerate_labelings
    calls = []

    def counting(model, surface, *args, **kwargs):
        calls.append(surface)
        return real(model, surface, *args, **kwargs)

    for name in ("surfaces", "mcg", "classify", "solver"):
        module = importlib.import_module(f"anyongates.{name}")
        monkeypatch.setattr(module, "enumerate_labelings", counting)
    return calls


@pytest.mark.parametrize("m", [6, 8, 24])
def test_one_basis_enumeration_per_sphere_classify(monkeypatch, m):
    """The classifier enumerates the labelings once and reads the curve
    permutations off that basis; sphere:sigma:24 is refused after it."""
    calls = _count_enumerations(monkeypatch)
    surf = sphere_surface(ISING, "sigma", m)
    if m == 24:
        with pytest.raises(SearchBudgetError, match=r"^classes: .* out of reach"):
            classify_punctured_sphere(ISING, surf)
    else:
        assert classify_punctured_sphere(ISING, surf).verdict == "pauli_group"
    assert calls == [surf]


@pytest.mark.parametrize("m", [7, 11])
def test_one_basis_enumeration_per_word_matrix(monkeypatch, m):
    """On the delta-set path each of the M - 1 braid words is evaluated on
    the classifier's own enumeration of the labelings, its generator built
    on that basis: one enumeration in all."""
    calls = _count_enumerations(monkeypatch)
    surf = sphere_surface(FIB, "tau", m)
    assert classify_punctured_sphere(FIB, surf).details["path"] == "diagonal"
    assert calls == [surf]


def test_curve_permutations_from_a_given_basis_match_cut_dimensions():
    for model, label, m in ((ISING, "sigma", 9), (FIB, "tau", 8), (ISING, "psi", 6)):
        surf = sphere_surface(model, label, m)
        basis = enumerate_labelings(model, surf)
        assert allowed_curve_permutations(model, surf, basis=basis) == (
            cut_dimension_permutations(model, surf)
        )


def test_curve_permutations_are_generated_in_lexicographic_order():
    """Classes of equal counts interleave: labels 0, 2, 4 occur twice and 1,
    3 once.  Generating one permutation per class gives the bijections that
    the filter over all permutations keeps, in the same order; so do the
    tori, where every label occurs once."""
    z3 = load_builtin("zn_toric:3")
    surface = torus_surface()
    labelings = ((0,), (0,), (1,), (2,), (2,), (3,), (4,), (4,))
    basis = BasisIndex(surface, labelings, {})
    counts = {a: sum(lab == (a,) for lab in labelings) for a in range(z3.n_labels)}
    assert allowed_curve_permutations(z3, surface, basis) == {
        "C1": count_preserving_bijections(counts)
    }
    assert len(count_preserving_bijections(counts)) == 12
    for model in (Z2, ISING, FIB):
        counts = dict.fromkeys(range(model.n_labels), 1)
        assert allowed_curve_permutations(model, surface) == {
            "C1": count_preserving_bijections(counts)
        }


def test_curve_permutations_past_the_budget_are_refused_before_listing():
    """The zn_toric:4 torus has 16! bijections of its 16 labels: they are
    charged, and refused, before the first is listed."""
    model = load_builtin("zn_toric:4")
    start = time.perf_counter()
    with pytest.raises(
        SearchBudgetError, match=r"^curve permutations: 20,922,789,888,000 x 1,536 bytes, "
    ):
        allowed_curve_permutations(model, torus_surface())
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# Local basis-change phase sets


@pytest.mark.parametrize("perm", [IDENT2, SWAP2])
def test_iso_phase_set_ising_block(perm):
    """Both channel bijections admit exactly the two sign patterns."""
    iso = iso_phase_set(ISING, (2, 2, 2, 2), perm=perm)
    assert iso.curve_labels == (0, 1)
    got = {tuple(round(v, 9) for v in f) for f in iso.phase_functions}
    assert got == {(0.0, 0.0), (0.0, round(np.pi, 9))}


def test_iso_phase_set_fibonacci_block():
    iso_id = iso_phase_set(FIB, (1, 1, 1, 1), perm=IDENT2)
    assert iso_id.phase_functions == ((0.0, 0.0),)
    iso_sw = iso_phase_set(FIB, (1, 1, 1, 1), perm=SWAP2)
    assert len(iso_sw.phase_functions) == 1
    assert abs(iso_sw.phase_functions[0][1] - np.pi) < 1e-9


def _iso_calls(monkeypatch, model, surface):
    """The (boundary, perm) arguments of every iso_phase_set call a classify
    run makes."""
    calls = []
    real = classify_module.iso_phase_set

    def record(model, boundary, perm=None, tol=DEFAULT_TOL):
        calls.append((tuple(boundary), perm))
        return real(model, boundary, perm, tol)

    monkeypatch.setattr(classify_module, "iso_phase_set", record)
    classify(model, surface)
    monkeypatch.undo()
    return calls


def _assert_iso_matches_reference(model, boundary, perm):
    got = iso_phase_set(model, boundary, perm).phase_functions
    want = reference_iso_phase_functions(model, boundary, perm)
    assert got
    assert np.array(got).tobytes() == np.array(want).tobytes(), (boundary, perm)
    assert [len(f) for f in got] == [len(f) for f in want]


@pytest.mark.parametrize("model, boundary, perm", [
    pytest.param(ISING, (2, 2, 2, 2), IDENT2, id="ising-ident"),
    pytest.param(ISING, (2, 2, 2, 2), SWAP2, id="ising-swap"),
    pytest.param(FIB, (1, 1, 1, 1), IDENT2, id="fibonacci-ident"),
    pytest.param(FIB, (1, 1, 1, 1), SWAP2, id="fibonacci-swap"),
])
def test_iso_phase_set_matches_the_per_solution_reference(model, boundary, perm):
    """One batched instantiate and angle over the solver's rows gives the
    phase functions of one IntertwinerSolution each, bit for bit."""
    _assert_iso_matches_reference(model, boundary, perm)


def test_iso_phase_set_matches_the_reference_on_classify_boundaries(monkeypatch):
    """The same bytes for every (boundary, perm) that a sphere classify
    passes to iso_phase_set."""
    visited = _iso_calls(monkeypatch, ISING, sphere_surface(ISING, "sigma", 12))
    assert len(visited) >= 2
    for boundary, perm in dict.fromkeys(visited):
        _assert_iso_matches_reference(ISING, boundary, perm)


@pytest.mark.parametrize("m", [8, 12])
def test_factorized_classify_solves_each_phase_set_once(monkeypatch, m):
    """Free curves with the same boundary share their phase sets: one
    iso_phase_set call per distinct (boundary, perm), the identity and the
    swap on (sigma, sigma, sigma, sigma), where one per free curve and
    permutation made 10 on sphere:sigma:12."""
    calls = _iso_calls(monkeypatch, ISING, sphere_surface(ISING, "sigma", m))
    assert calls == [((2, 2, 2, 2), IDENT2), ((2, 2, 2, 2), SWAP2)]


def test_iso_phase_set_rejects_bad_perm():
    with pytest.raises(ClassificationError):
        iso_phase_set(ISING, (2, 2, 2, 2), perm=((0, 0), (1, 2)))


# ---------------------------------------------------------------------------
# Punctured-sphere classification


@pytest.mark.parametrize("m,want", [(4, 4), (6, 16), (8, 64)])
def test_ising_sphere_class_counts(m, want):
    rep = classify_punctured_sphere(ISING, sphere_surface(ISING, "sigma", m))
    assert rep.verdict == "pauli_group"
    assert rep.n_classes == want
    assert rep.group_order == want
    assert rep.details["path"] == "factorized"


def test_ising_four_puncture_flag():
    rep = classify_punctured_sphere(ISING, sphere_surface(ISING, "sigma", 4))
    assert any("four-puncture" in f for f in rep.flags)
    rep6 = classify_punctured_sphere(ISING, sphere_surface(ISING, "sigma", 6))
    assert not any("four-puncture" in f for f in rep6.flags)


def _class_gate(cls):
    n = len(cls["basis_perm"])
    g = np.zeros((n, n), dtype=np.complex128)
    for i, (target, ang) in enumerate(zip(cls["basis_perm"], cls["phases"])):
        g[target, i] = np.exp(1j * ang)
    return g


def _qubit_factor(curve_info):
    g = np.zeros((2, 2), dtype=np.complex128)
    for col, name in enumerate(("1", "psi")):
        row = 0 if curve_info["perm"][name] == "1" else 1
        g[row, col] = np.exp(1j * curve_info["phases"][name])
    return g


@pytest.mark.parametrize("m", [6, 8])
def test_ising_classes_factorize_exactly(m):
    """Every class gate is the tensor product of its per-qubit factors."""
    surf = sphere_surface(ISING, "sigma", m)
    rep = classify_punctured_sphere(ISING, surf)
    basis = enumerate_labelings(ISING, surf)
    # map basis index to qubit-register index via the bit strings
    reg = [
        int(ising_qubit_isomorphism(ISING, surf, basis.labelings[i]), 2)
        for i in range(basis.dim)
    ]
    qubit_curves = [f"C{j}" for j in range(1, m - 2, 2)]
    assert rep.details["free_curves"] == qubit_curves
    for cls in rep.classes:
        got = _class_gate(cls)
        kron = np.array([[1.0 + 0j]])
        for curve in qubit_curves:
            kron = np.kron(kron, _qubit_factor(cls["curves"][curve]))
        lifted = np.zeros_like(got)
        for i in range(basis.dim):
            for j in range(basis.dim):
                lifted[j, i] = kron[reg[j], reg[i]]
        assert np.abs(got - lifted).max() < 1e-9


def test_ising_classes_are_distinct_paulis():
    rep = classify_punctured_sphere(ISING, sphere_surface(ISING, "sigma", 6))
    seen = set()
    for cls in rep.classes:
        for ang in cls["phases"]:
            # every entry is a sign
            assert min(abs(ang), abs(abs(ang) - np.pi)) < 1e-9
        key = (
            tuple(cls["basis_perm"]),
            tuple(int(round(a / np.pi)) % 2 for a in cls["phases"]),
        )
        assert key not in seen
        seen.add(key)


def _ising_reordered():
    """Ising with its labels in the order 1, sigma, psi, through the JSON schema."""
    swap = [0, 2, 1]  # old index -> new index, its own inverse
    doc = json.loads(serialize_model(ISING))
    doc["name"] = "ising-reordered"
    for key in ("labels", "twists"):
        doc[key] = [doc[key][old] for old in swap]
    doc["dual"] = [swap[doc["dual"][old]] for old in swap]
    doc["fusion"] = [[swap[x] for x in triple] for triple in doc["fusion"]]
    doc["smatrix"] = [
        doc["smatrix"][3 * swap[a] + swap[b]] for a in range(3) for b in range(3)
    ]
    for sym in doc["fsymbols"] + doc["rsymbols"]:
        for key in "abcdef":
            if key in sym:
                sym[key] = swap[sym[key]]
    return parse_model(doc)


@pytest.mark.parametrize(
    "model, label",
    [
        (dataclasses.replace(ISING, name="ising-renamed", labels=("vac", "f", "s")), "s"),
        (_ising_reordered(), "sigma"),
    ],
    ids=["renamed", "reordered"],
)
def test_pauli_verdict_reads_structure_not_label_names(model, label):
    """An Ising model under other label names or another label order is still
    recognised: the verdict comes from the per-curve qubit actions."""
    assert validate(model).passed
    rep = classify_punctured_sphere(model, sphere_surface(model, label, 8))
    assert (rep.verdict, rep.group_order, rep.n_classes) == ("pauli_group", 64, 64)


def _ising_with_r_sigma_sigma(name, one, psi):
    """Ising with R^{sigma sigma}_1 and R^{sigma sigma}_psi multiplied by the
    given factors: an invalid model, used only to exercise the word filter.
    """
    rsym = dict(ISING.rsymbols)
    rsym[(2, 2, 0)] *= one
    rsym[(2, 2, 1)] *= psi
    return dataclasses.replace(ISING, name=name, rsymbols=rsym)


# The elementary braid stops being a Clifford gate on each qubit, so the
# interior generators veto the Z and XZ options of every curve.
TWISTED = _ising_with_r_sigma_sigma("ising-twisted", 1.0, np.exp(0.3j))
# The end generators' R-phases lose unit modulus, |R_1 R_psi| = 1 apart:
# s_1 and s_{M-1} keep only the X and XZ options of their curve.
SCALED = _ising_with_r_sigma_sigma("ising-scaled", 1 / 1.1, 1.1)


@pytest.mark.parametrize(
    "model, label, m, words",
    [(ISING, "sigma", m, None) for m in (4, 6, 8, 10, 12)]
    + [
        (FIB, "tau", 4, None),
        (TWISTED, "sigma", 4, None),
        (TWISTED, "sigma", 8, None),
        (ISING, "sigma", 8, ["s2", "s2s3"]),
        (TWISTED, "sigma", 8, ["s2", "s2s3"]),
        (TWISTED, "sigma", 8, ["s3'", "s1,s1", "s4s5'"]),
        (SCALED, "sigma", 8, ["s1", "s7'"]),
        # an interior generator on a single-label slot scales each context by
        # 1/1.1 or 1.1, so only gates that swap the two kinds survive (1 of 64)
        (SCALED, "sigma", 8, None),
        # windows of two or more free curves, and one over the whole chain
        (TWISTED, "sigma", 8, ["s2s3"]),
        (TWISTED, "sigma", 8, ["s2s3s4"]),
        (TWISTED, "sigma", 8, ["s1s2s3s4s5s6s7"]),
        (ISING, "sigma", 10, ["s2s3", "s4s5'"]),
    ],
    ids=lambda v: v.name if hasattr(v, "name") else str(v),
)
def test_local_word_filter_matches_dense_oracle(model, label, m, words, monkeypatch):
    """Window word checks keep exactly the products the dense check keeps."""
    mcg_mod = importlib.import_module("anyongates.mcg")
    solver_mod = importlib.import_module("anyongates.solver")
    surf = sphere_surface(model, label, m)
    built = []
    with monkeypatch.context() as patch:
        for mod, fname in (
            (mcg_mod, "evaluate_word"),
            (mcg_mod, "evaluate_on_basis"),
            (solver_mod, "evaluate_on_basis"),
        ):
            original = getattr(mod, fname)

            def counted(*args, _original=original, _name=fname, **kwargs):
                built.append(_name)
                return _original(*args, **kwargs)

            patch.setattr(mod, fname, counted)
        rep = classify_punctured_sphere(model, surf, words)
    # no word on the enumerated basis: the filter evaluates each word on its
    # window's labelings, through the name bound in classify, not patched here
    assert built == []
    if words is None:
        words = [f"s{k}" for k in range(1, m)]
    assert rep.details["path"] == "factorized"
    want, n_candidates = dense_sphere_word_filter(model, surf, words)
    got = [(tuple(c["basis_perm"]), tuple(c["phases"])) for c in rep.classes]
    assert sorted(got) == sorted(want)  # same gates, phase floats bit for bit
    assert n_candidates == np.prod(list(rep.details["candidates_per_curve"].values()))
    if model is FIB:
        assert (len(want), n_candidates) == (1, 2)  # the label swap is vetoed
    if model in (TWISTED, SCALED):
        assert 0 < len(want) < n_candidates


FIB_ISING = deligne_product(FIB, ISING)
ISING_ISING = deligne_product(ISING, ISING)
FIB_FIB = deligne_product(FIB, FIB)


# Ising whose vacuum and fermion names sort the other way round ("e" before
# "eps") and whose sigma name holds a comma.
ISING_E_EPS = dataclasses.replace(ISING, name="ising-e-eps", labels=("eps", "e", "(0,1)"))
# Ising x Ising renamed: the curve of the 4-punctured sphere of s carries
# eps, e, d, c, four labels in the reverse of their name order.
ISING_ISING_RENAMED = dataclasses.replace(
    ISING_ISING, name="ising-ising-renamed",
    labels=("eps", "e", "(0,1)", "d", "c", "b", "a", "(0,10)", "s"),
)


@pytest.mark.parametrize(
    "model, label, m, words",
    [(ISING, "sigma", m, None) for m in (4, 6, 8, 10, 12, 14)]
    + [
        (ISING, "sigma", 8, ["s1s2"]),
        (ISING, "sigma", 10, ["s2s3", "s4s5'"]),
        (FIB, "tau", 4, None),
        (ISING_E_EPS, "(0,1)", 8, None),
        (TWISTED, "sigma", 8, ["s2s3"]),
        (ISING_ISING_RENAMED, "s", 4, None),
    ],
    ids=lambda v: v.name if hasattr(v, "name") else str(v),
)
def test_factorized_classes_in_the_order_of_their_json_text(model, label, m, words):
    """The classes come in the stable order of their compact JSON."""
    rep = classify_punctured_sphere(model, sphere_surface(model, label, m), words)
    assert rep.details["path"] == "factorized"
    classes = list(rep.classes)
    assert classes == reference_json_sort(classes)


def test_fallback_path_on_a_deligne_product():
    """Curves of fibonacci x ising allow label swaps that no product basis
    isolates, so the delta sets are intersected over 16 candidate
    permutations and the class list is an upper bound."""
    assert validate(FIB_ISING).passed
    rep = classify_punctured_sphere(FIB_ISING, sphere_surface(FIB_ISING, "tau.sigma", 6))
    assert (rep.verdict, rep.n_classes) == ("upper_bound_only", 32)
    assert rep.details == {"path": "fallback", "candidate_perms": 16}
    assert rep.flags == ["generic fallback path; result is an upper bound"]
    # recorded when the diagonal and fallback paths were still two functions
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == (
        "8590eaf850a38652c07fae0626efa7fbdd7e21131cfff04e02407b10cbad5678"
    )


def _spy_delta_path(monkeypatch):
    """The candidate lists the delta-set path solves, one per solved word,
    and the word matrices it finds vetoless."""
    solved, skipped = [], []
    solve, vetoless = classify_module.solve_intertwiner, classify_module._vetoless

    def solving(v, perm_in, **kwargs):
        solved.append(perm_in)
        return solve(v, perm_in, **kwargs)

    def recording(v):
        if vetoless(v):
            skipped.append(v)
            return True
        return False

    monkeypatch.setattr(classify_module, "solve_intertwiner", solving)
    monkeypatch.setattr(classify_module, "_vetoless", recording)
    return solved, skipped


@pytest.mark.parametrize("m, words, n_solved, n_skipped", [
    (7, None, 4, 2), (9, None, 6, 2), (7, ["s1", "s6"], 1, 2), (9, ["s6", "s3", "s1"], 2, 1),
    (9, ["s8", "s3", "s1"], 1, 2), (8, ["s1s7", "s7'", "s2"], 1, 2), (8, ["s1s2"], 1, 0),
])
def test_vetoless_words_are_not_solved_on_the_delta_path(
    monkeypatch, m, words, n_solved, n_skipped
):
    """s1, s_{M-1} and their products are diagonal: they are evaluated but
    not solved, unless every word is vetoless, when the first is solved."""
    solved, skipped = _spy_delta_path(monkeypatch)
    surf = sphere_surface(FIB, "tau", m)
    rep = classify_punctured_sphere(FIB, surf, words)
    assert rep.details["path"] == "diagonal"
    assert (len(solved), len(skipped)) == (n_solved, n_skipped)


@pytest.mark.parametrize("model, label, m, tol", [
    (FIB, "tau", m, tol) for m in (5, 7, 10) for tol in (0.0, DEFAULT_TOL, 1e-3)
] + [(FIB_ISING, "tau.sigma", 6, DEFAULT_TOL), (FIB_ISING, "tau.sigma", 6, 0.0)])
def test_every_skipped_word_solved_anyway_keeps_every_candidate_free(
    monkeypatch, model, label, m, tol
):
    """The solve a vetoless word is spared gives every candidate of the
    path, in order, with every phase free and relative phase 1."""
    solved, skipped = _spy_delta_path(monkeypatch)
    classify_punctured_sphere(model, sphere_surface(model, label, m), tol=tol)
    assert skipped
    cands = solved[0]
    for v in skipped:
        ds = classify_module.solve_intertwiner(v, cands, tol=tol)
        assert ds.perms.tolist() == [list(c) for c in cands]
        assert ds.components == tuple(range(len(v)))
        assert (ds.rel == 1).all()


def test_a_solved_word_is_charged_as_delta_set_charges_it(monkeypatch):
    """On the delta-set path each word charges a budget of its own, stage
    for stage as ``delta_set`` charges the same word and candidates."""
    charges = []
    charge = budget.Budget.charge

    def recording(self, stage, count, nbytes):
        charges.append((id(self), stage, count, nbytes))
        charge(self, stage, count, nbytes)

    monkeypatch.setattr(budget.Budget, "charge", recording)
    surf = sphere_surface(FIB, "tau", 8)
    classify_punctured_sphere(FIB, surf, ["s1", "s3s4"])
    per_budget = {}
    for owner, *rest in charges:
        per_budget.setdefault(owner, []).append(tuple(rest))
    words = [c for c in per_budget.values() if c[0][0] == "word matrix"]
    charges.clear()
    dim = enumerate_labelings(FIB, surf).dim
    delta_set(FIB, surf, "s1", restrict_perms=[tuple(range(dim))])
    first = [tuple(c[1:]) for c in charges]
    charges.clear()
    delta_set(FIB, surf, "s3s4", restrict_perms=[tuple(range(dim))])
    second = [tuple(c[1:]) for c in charges]
    assert words[0] == first[:2]  # s1 is evaluated, not solved
    assert words[1] == second
    assert [stage for stage, *_ in second[:3]] == ["word matrix", "search row", "unitarity check"]


# ---------------------------------------------------------------------------
# Class records


RECORD_CASES = (
    [(load_builtin(f"zn_toric:{k}"), torus_surface(), None) for k in (2, 3, 4)]
    + [(ISING, torus_surface(), None)]
    + [(FIB, sphere_surface(FIB, "tau", m), None) for m in (7, 11)]
    + [(ISING, sphere_surface(ISING, "sigma", m), None) for m in (4, 6, 8, 10, 12)]
    + [
        (ISING, sphere_surface(ISING, "sigma", 8), ["s1s2"]),
        (FIB_ISING, sphere_surface(FIB_ISING, "tau.sigma", 6), None),
    ]
)


@pytest.mark.parametrize(
    "model, surface, words", RECORD_CASES,
    ids=[f"{m.name}-{s.describe(m)}-{w}" for m, s, w in RECORD_CASES],
)
def test_class_records_equal_the_per_record_builders(model, surface, words, monkeypatch):
    """``list(report.classes)`` equals one dict per class built the old way,
    factorized curve entries shared by identity, and the report's JSON is
    the standard encoder's text of that list."""
    mod = importlib.import_module("anyongates.classify")
    family_sets = []
    family_classes = mod._family_classes

    def spy(inter):
        family_sets.append(inter)
        return family_classes(inter)

    monkeypatch.setattr(mod, "_family_classes", spy)
    rep = classify(model, surface, words)
    classes = list(rep.classes)
    columns = rep.classes.columns
    if family_sets:
        assert classes == reference_family_classes(family_sets[0])
    else:
        options = {name: (col.codes, col.values)
                   for name, col in columns["curves"].columns.items()}
        perms, phases = (columns[key].rows[columns[key].codes] for key in ("basis_perm", "phases"))
        want = reference_factorized_classes(perms, options, phases)
        assert classes == want
        assert classes == reference_json_sort(classes)
        for got, ref in zip(classes, want):
            assert all(got["curves"][c] is ref["curves"][c] for c in options)
        for name, (codes, _) in options.items():
            assert len({id(cls["curves"][name]) for cls in classes}) == len(set(codes.tolist()))
    assert rep.classes[:] == [rep.classes[i] for i in range(-len(classes), 0)] == classes
    payload = {
        "model": rep.model, "surface": rep.surface, "verdict": rep.verdict,
        "group_order": rep.group_order, "n_classes": rep.n_classes,
        "classes": classes, "flags": sorted(rep.flags), "details": rep.details,
    }
    assert rep.to_json() == reference_report_json(payload)


def test_writing_a_report_reads_no_class_record(monkeypatch, capsys):
    """The writer renders the classes from their columns: no record dict is
    built, for a classify report or the delta command."""
    reports = [
        classify_torus(Z2),
        classify_punctured_sphere(ISING, sphere_surface(ISING, "sigma", 8)),
        classify_punctured_sphere(FIB, sphere_surface(FIB, "tau", 7)),
    ]
    reads = []
    monkeypatch.setattr(Rows, "__getitem__", lambda self, i: reads.append(i))
    monkeypatch.setattr(Rows, "__iter__", lambda self: reads.append("iter"))
    for rep in reports:
        assert rep.to_json().count('"basis_perm"') == rep.n_classes
    delta = "delta --model ising --surface sphere:sigma:8 --words s2 --format json"
    assert main(delta.split()) == 0
    assert '"perm"' in capsys.readouterr().out
    assert reads == []


@pytest.mark.parametrize("surface, verdict", [
    (sphere_surface(FIB, "tau", 7), "finite_group"),
    (torus_surface(), "upper_bound_only"),
])
def test_one_diagonal_class_with_unequal_phases_is_not_trivial(surface, verdict, monkeypatch):
    """Both paths check the phases of a single identity class: only a global
    phase is the trivial gate."""
    mod = importlib.import_module("anyongates.classify")

    def one_diagonal_class(sets, *args, **kwargs):
        dim = sets[0].dim
        perms = np.arange(dim, dtype=sets[0].perms.dtype)[None]
        return DeltaSet(perms, np.exp(0.5j * np.arange(dim))[None], (0,) * dim)

    monkeypatch.setattr(mod, "intersect_delta", one_diagonal_class)
    rep = classify(FIB, surface)
    assert rep.n_classes == 1
    assert rep.classes[0]["basis_perm"] == list(range(len(rep.classes[0]["basis_perm"])))
    assert (rep.verdict, rep.group_order) == (verdict, 1)


def test_enumeration_budget_refuses_before_building(monkeypatch):
    """Each enumeration of sphere candidates names its estimate when it is
    above the byte budget: a window's conjugates, the class arrays, and the
    delta-set candidate permutations.  The F-blocks are built first, under
    the whole budget; a 2 x 2 phase-set solve takes under 1 kB."""
    whole_chain = "".join(f"s{k}" for k in range(1, 18))
    with pytest.raises(SearchBudgetError, match=(
        f"^word '{whole_chain}': option tuples: 65,536 x 1,048,576 bytes, "
    )):
        classify_punctured_sphere(ISING, sphere_surface(ISING, "sigma", 18), [whole_chain])
    for model in (ISING, FIB_ISING):
        assert len(model.fblocks.boundaries)
    monkeypatch.setattr(budget, "BUDGET_BYTES", 5000)
    with pytest.raises(SearchBudgetError, match=r"^classes: 256 x 1,024 bytes, 262,400 bytes in all"):
        classify_punctured_sphere(ISING, sphere_surface(ISING, "sigma", 10), ["s2"])
    with pytest.raises(SearchBudgetError, match=r"^curve permutation products: 16 x 480 bytes, "):
        classify_punctured_sphere(FIB_ISING, sphere_surface(FIB_ISING, "tau.sigma", 6))


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8, 11])
def test_fibonacci_spheres_trivial(m):
    rep = classify_punctured_sphere(FIB, sphere_surface(FIB, "tau", m))
    assert rep.verdict == "trivial"
    assert rep.n_classes == 1
    cls = rep.classes[0]
    assert cls["basis_perm"] == list(range(len(cls["basis_perm"])))
    assert np.abs(np.array(cls["phases"])).max() < 1e-9


def test_infeasible_surface_raises():
    with pytest.raises(InfeasibleSurfaceError):
        classify_punctured_sphere(ISING, sphere_surface(ISING, "sigma", 5))


def test_dimension_one_sphere_is_trivial():
    rep = classify_punctured_sphere(Z2, sphere_surface(Z2, 1, 4))
    assert rep.verdict == "trivial"
    assert rep.n_classes == 1


# ---------------------------------------------------------------------------
# Torus classification


def test_fibonacci_torus_trivial():
    rep = classify_torus(FIB)
    assert rep.verdict == "trivial"
    assert rep.n_classes == 1
    assert rep.details["words"] == ["s", "st"]


def test_ising_torus_upper_bound():
    rep = classify_torus(ISING)
    assert rep.verdict == "upper_bound_only"
    assert rep.n_classes == 4
    assert any("structure theorem" in f for f in rep.flags)


@pytest.mark.parametrize(
    "model, n_classes, n_perms", [(ISING_ISING, 64, 16), (FIB_ISING, 4, 2), (FIB_FIB, 2, 2)],
    ids=lambda v: v.name if hasattr(v, "name") else str(v),
)
def test_deligne_products_on_the_torus_by_the_wildcard(monkeypatch, model, n_classes, n_perms):
    """Non-abelian models search every word by the wildcard, under the
    search budget alone; ising x ising has 9 labels."""
    mod = importlib.import_module("anyongates.classify")
    restricted = []

    def spy(*args, restrict_perms=None, **kwargs):
        restricted.append(restrict_perms)
        return delta_set(*args, restrict_perms=restrict_perms, **kwargs)

    monkeypatch.setattr(mod, "delta_set", spy)
    rep = classify_torus(model)
    assert restricted == [None, None]
    assert rep.n_classes == n_classes
    assert len({tuple(c["basis_perm"]) for c in rep.classes}) == n_perms
    assert (rep.verdict, rep.flags) == (
        "upper_bound_only", ["finite family list; no matching structure theorem applied"]
    )


@pytest.mark.parametrize("name,count", [("zn_toric:2", 96), ("zn_toric:3", 324)])
def test_zn_torus_clifford(name, count):
    model = load_builtin(name)
    rep = classify_torus(model)
    assert rep.verdict == "clifford_star_subgroup"
    assert rep.n_classes == count
    assert rep.group_order == count
    assert rep.details["contains_logical_paulis"] is True
    assert rep.details["clifford_star_checked"] == count


@pytest.mark.parametrize("name", ["zn_toric:2", "zn_toric:3"])
def test_logical_pauli_lookup_matches_a_linear_scan(name):
    model = load_builtin(name)
    inter = torus_word_families(model, ["s", "st"])
    assert _contains_logical_paulis(model, inter)
    assert contains_logical_paulis_by_scan(model, inter)
    assert reference_contains_logical_paulis(model, inter)
    for strings in string_operator_matrices(model):
        gate = monomial_from_matrix(strings[1])
        kept = [i for i, f in enumerate(families(inter)) if not f.contains(gate)]
        assert len(kept) == len(inter) - 1
        cut = DeltaSet(inter.perms[kept], inter.rel[kept], inter.components)
        assert not _contains_logical_paulis(model, cut)
        assert not contains_logical_paulis_by_scan(model, cut)
        assert not reference_contains_logical_paulis(model, cut)


@pytest.mark.parametrize("name", ["zn_toric:2", "zn_toric:3", "zn_toric:4", "dg_abelian:2,2"])
def test_batched_logical_pauli_test_matches_the_per_string_loop(name):
    """One join of all 2n strings' row keys and one gap pass answer as one
    lookup per string does, on the closed-form set of s and st and on
    negative controls: the set without the families of one string's
    permutation, and the family holding one string with one phase moved by
    1e-3 (outside ``MEMBERSHIP_TOL``) or by 1e-7 (inside it)."""
    model = load_builtin(name)
    inter = torus_word_families(model, ["s", "st"])
    assert _contains_logical_paulis(model, inter) is True
    assert contains_logical_paulis_loop(model, inter) is True
    perms, phases = string_operators(model)
    n = model.n_labels
    for r in (1, n + 1):  # a C1 string (the identity permutation) and a C2 string
        same = row_keys(inter.perms) == row_keys(perms[r : r + 1].astype(inter.perms.dtype))
        cut = DeltaSet(inter.perms[~same], inter.rel[~same], inter.components)
        assert len(cut) < len(inter)
        assert _contains_logical_paulis(model, cut) is False
        assert contains_logical_paulis_loop(model, cut) is False

        ratios = phases[r] / inter.rel[same]
        holder = np.flatnonzero(same)[np.abs(ratios - ratios[:, :1]).max(axis=1) <= MEMBERSHIP_TOL]
        assert len(holder) == 1
        for shift, held in ((1e-3, False), (1e-7, True)):
            rel = inter.rel.copy()
            rel[holder, -1] *= np.exp(1j * shift)
            moved = DeltaSet(inter.perms, rel, inter.components)
            assert _contains_logical_paulis(model, moved) is held
            assert contains_logical_paulis_loop(model, moved) is held


def test_contains_is_the_one_gate_case_of_contains_each():
    """``DeltaSet.contains`` answers as ``contains_each`` on a one-gate
    stack, for every string of zn_toric:3 and for strings of another
    permutation dtype, and a gate of another dimension is held by none."""
    model = load_builtin("zn_toric:3")
    inter = torus_word_families(model, ["s", "st"])
    perms, phases = string_operators(model)
    each = inter.contains_each(perms, phases)
    assert each.all() and each.tolist() == inter.contains_each(perms.astype(np.int16), phases).tolist()
    moved = phases * np.exp(1j * 1e-3 * np.arange(model.n_labels))
    assert not inter.contains_each(perms, moved).any()
    for perm, d, m in zip(perms.tolist(), phases.tolist(), moved.tolist()):
        assert inter.contains(MonomialMatrix(tuple(perm), tuple(d))) is True
        assert inter.contains(MonomialMatrix(tuple(perm), tuple(m))) is False
    assert inter.contains(MonomialMatrix((0, 1), (1.0, 1.0))) is False


def test_torus_word_list_affects_result():
    rep_s = classify_torus(FIB, mcg_words=["s"])
    assert rep_s.n_classes == 2  # identity family plus the label swap
    rep_both = classify_torus(FIB, mcg_words=["s", "st"])
    assert rep_both.n_classes == 1


def test_finiteness_stable_under_word_doubling():
    base = classify_torus(Z2, mcg_words=["s", "st"])
    doubled = classify_torus(Z2, mcg_words=["s", "st", "ss", "stst"])
    assert doubled.verdict == base.verdict
    assert doubled.n_classes == base.n_classes == 96
    # the affine maps of Z_2 x Z_2 are all 4! permutations: nothing is flagged
    assert doubled.flags == base.flags


def _z5_anyons():
    """Z_5 anyons: trivial F, R^{ab} = w^{ab} and theta_a = w^{a^2} with
    w = exp(2 pi i / 5).  Its affine maps are 20 of the 5! permutations."""
    n = 5
    a = np.arange(n)
    fusion = np.zeros((n, n, n), dtype=np.uint8)
    fusion[a[:, None], a[None, :], (a[:, None] + a[None, :]) % n] = 1
    w = np.exp(2j * np.pi / n)
    return AnyonModel(
        name="z5", labels=tuple(map(str, a)), dual=tuple((-a % n).tolist()), fusion=fusion,
        smatrix=w ** (-2 * np.outer(a, a)) / np.sqrt(n),
        fsymbols=_fill_fsymbols(fusion, lambda *key: 1.0),
        rsymbols=_fill_rsymbols(fusion, lambda x, y, _: w ** (x * y)),
        twists=w ** (a * a),
    )


def test_abelian_words_search_every_permutation_within_budget(monkeypatch):
    """A word outside the closed form is searched by the wildcard while the
    budget allows (1,571,950 bytes for stst on Z_5), and over the affine
    maps only (49,700 bytes), flagged as an upper bound, once it does not."""
    model = _z5_anyons()
    assert validate(model).passed
    mod = importlib.import_module("anyongates.classify")
    restricted = []

    def spy(*args, restrict_perms=None, **kwargs):
        restricted.append(restrict_perms)
        return delta_set(*args, restrict_perms=restrict_perms, **kwargs)

    monkeypatch.setattr(mod, "delta_set", spy)
    exact = classify_torus(model, ["s", "stst"])
    assert restricted == [None]
    assert (exact.verdict, exact.n_classes, exact.flags) == ("clifford_star_subgroup", 100, [])
    monkeypatch.setattr(budget, "BUDGET_BYTES", 10**5)
    bounded = classify_torus(model, ["s", "stst"])
    assert restricted[1:] == [None, affine_permutations(model)]
    assert len(restricted[2]) == 20
    assert bounded.flags == [
        "word 'stst': permutations restricted to affine maps; result is an upper bound"
    ]
    assert list(bounded.classes) == list(exact.classes)


@pytest.mark.parametrize("words", [["stst", "s", "st"], ["s", "stst", "st"]])
def test_closed_form_keeps_its_place_among_the_words(words):
    # which coset a class keeps depends on the intersection order, down to
    # the sign of a phase angle at pi; classify must match the word order
    sets = [
        delta_set(Z2, torus_surface(), w)
        if w == "stst"
        else torus_word_families(Z2, w)
        for w in words
    ]

    def key(perm, angles):
        return json.dumps(_round_floats([list(perm), list(angles)]))

    want = sorted(
        key(f.perm, [float(np.angle(x)) for x in f.coset.instantiate()])
        for f in families(intersect_delta(sets))
    )
    rep = classify_torus(Z2, mcg_words=words)
    assert sorted(key(c["basis_perm"], c["phases"]) for c in rep.classes) == want


# ---------------------------------------------------------------------------
# Dispatch and report format


def test_classify_dispatches():
    rep = classify(FIB, torus_surface())
    assert rep.surface == "torus"
    rep2 = classify(ISING, sphere_surface(ISING, "sigma", 4))
    assert rep2.surface == "sphere:sigma:4"


def test_report_json_deterministic():
    a = classify_torus(Z2).to_json()
    b = classify_torus(Z2).to_json()
    assert a == b
    parsed = json.loads(a)
    assert parsed["verdict"] == "clifford_star_subgroup"
    assert parsed["n_classes"] == 96
    assert len(parsed["classes"]) == 96


def test_report_text_format():
    rep = classify_torus(FIB)
    text = rep.to_text()
    assert "model:    fibonacci" in text
    assert "verdict:  trivial" in text
    assert "class 0:" in text


def test_verdict_vocabulary():
    assert set(VERDICTS) == {
        "trivial",
        "pauli_group",
        "clifford_star_subgroup",
        "finite_group",
        "upper_bound_only",
    }
    for rep in (classify_torus(FIB), classify_torus(ISING)):
        assert rep.verdict in VERDICTS


def test_unknown_words_raise():
    with pytest.raises(ValueError):
        classify_torus(FIB, mcg_words=["sq"])
    with pytest.raises(ClassificationError):
        classify_torus(Z2, mcg_words=["t", "tt"])


@pytest.mark.parametrize(
    "model, surface",
    [
        (ISING, sphere_surface(ISING, "sigma", 6)),
        (FIB, sphere_surface(FIB, "tau", 7)),
        (FIB, torus_surface()),
        (ISING, torus_surface()),
        (Z2, torus_surface()),
    ],
    ids=[
        "sphere-factorized",
        "sphere-diagonal",
        "torus-fibonacci",
        "torus-ising",
        "torus-abelian-closed-form",
    ],
)
def test_empty_class_list_is_an_error(model, surface, monkeypatch):
    # the identity gate always survives, so an empty class list means the
    # search itself failed; no group may be named for it.  A NaN tolerance
    # is refused up front (test_tolerances.py), so the search is stubbed to
    # match nothing: every word vetoes every curve option and every
    # intersection comes out empty.
    mod = importlib.import_module("anyongates.classify")
    monkeypatch.setattr(
        mod, "monomial_mask",
        lambda stack, *args, **kwargs: np.zeros(len(stack), dtype=bool),
    )
    monkeypatch.setattr(
        mod, "intersect_delta",
        lambda sets, *args, **kwargs: DeltaSet(
            sets[0].perms[:0], sets[0].rel[:0], sets[0].components
        ),
    )
    with pytest.raises(ClassificationError, match="no gate class"):
        classify(model, surface)
