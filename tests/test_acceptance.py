"""End-to-end checks, one test per advertised guarantee.

Each test states its tolerance inline and runs the complete code path it
certifies; run with ``pytest -v`` to get one pass/fail line per item.
"""

import itertools
import json
import time

import numpy as np

from anyongates import (
    allowed_curve_permutations,
    classify_punctured_sphere,
    classify_torus,
    delta_set,
    enumerate_labelings,
    evaluate_word,
    intersect_delta,
    iso_phase_set,
    load_builtin,
    solve_intertwiner,
    sphere_surface,
    torus_surface,
)
from anyongates.abelian import lattice_commutation_check
from anyongates.models import verlinde_fusion
from anyongates.solver import MonomialMatrix

from oracles import (
    all_subset_idempotents,
    check_lambda_monomial,
    cut_dimensions,
    eq_consistency_residual,
    fibonacci_number,
    families,
    grid_intertwiner_solutions,
    idempotents,
    idempotents_by_eigendecomposition,
    induced_cycle_permutations,
    ising_qubit_isomorphism,
    match_projector_sets,
    projective_distance,
    regular_representation,
)

FIB = load_builtin("fibonacci")
ISING = load_builtin("ising")
Z2 = load_builtin("zn_toric:2")
Z3 = load_builtin("zn_toric:3")
Z4 = load_builtin("zn_toric:4")

FIVE_MODELS = [FIB, ISING, Z2, Z3, Z4]


def test_01_verlinde_reconstruction():
    """S-matrix reconstruction reproduces every fusion multiplicity, 1e-9."""
    for model in FIVE_MODELS:
        res = np.abs(verlinde_fusion(model) - model.fusion).max()
        assert res < 1e-9, model.name


def test_02_idempotents_orthogonal_complete_unique():
    """Flux projectors: algebra residuals below 1e-9 for every built-in;
    uniqueness confirmed by brute force up to four labels."""
    for model in FIVE_MODELS + [load_builtin("dg_abelian:2,2")]:
        p = idempotents(model)
        n = model.n_labels
        for a in range(n):
            for b in range(n):
                want = p[a] if a == b else 0.0
                assert np.abs(p[a] @ p[b] - want).max() < 1e-9, model.name
        assert np.abs(p.sum(axis=0) - np.eye(n)).max() < 1e-9, model.name
    for model in (FIB, ISING, Z2):
        # independent eigendecomposition route finds the same projectors,
        # and every idempotent of the algebra is a subset sum of them
        p = idempotents(model)
        q = idempotents_by_eigendecomposition(model)
        assert match_projector_sets(p, q) is not None, model.name
        masks = all_subset_idempotents(regular_representation(model), p)
        assert len(masks) == 2**model.n_labels, model.name


def _aligned(got, pinned, tol=1e-9):
    idx = np.unravel_index(np.abs(pinned).argmax(), pinned.shape)
    if abs(got[idx]) < 0.5:
        return False
    lam = pinned[idx] / got[idx]
    return abs(abs(lam) - 1.0) < tol and np.abs(lam * got - pinned).max() < tol


def test_03_fibonacci_torus_delta_sets():
    """The two-family compatibility sets for the torus words s and st match
    the known closed forms entrywise (1e-9 after phase alignment) and
    intersect in the scalar gates only."""
    pinned = {
        "s": [np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]])],
        "st": [np.eye(2), np.array([[0.0, np.exp(3j * np.pi / 5)], [1.0, 0.0]])],
    }
    sets = {}
    for word, targets in pinned.items():
        ds = delta_set(FIB, torus_surface(), word)
        sets[word] = ds
        assert len(ds) == 2, word
        for target in targets:
            hits = [
                f for f in families(ds) if _aligned(f.gate().matrix(), target)
            ]
            assert len(hits) == 1, (word, target)
    inter = intersect_delta([sets["s"], sets["st"]])
    assert len(inter) == 1
    fam = families(inter)[0]
    assert fam.perm == (0, 1)
    assert fam.n_free == 1
    d = fam.coset.instantiate()
    assert abs(d[0] - d[1]) < 1e-9
    assert classify_torus(FIB).verdict == "trivial"


def test_04_ising_four_punctures():
    """Four sigma punctures: both channel bijections admit exactly the phase
    functions (0,0) and (0,pi); classification gives the four single-qubit
    Pauli classes."""
    want = {(0.0, 0.0), (0.0, round(np.pi, 9))}
    for perm in (((0, 0), (1, 1)), ((0, 1), (1, 0))):
        iso = iso_phase_set(ISING, (2, 2, 2, 2), perm=perm)
        got = {tuple(round(v, 9) for v in f) for f in iso.phase_functions}
        assert got == want, perm
    rep = classify_punctured_sphere(ISING, sphere_surface(ISING, "sigma", 4))
    assert rep.verdict == "pauli_group"
    assert rep.n_classes == 4
    seen = set()
    for cls in rep.classes:
        data = cls["curves"]["C1"]
        swapped = data["perm"]["1"] == "psi"
        sign = int(round(data["phases"]["psi"] / np.pi)) % 2
        seen.add((swapped, sign))
    assert seen == {(False, 0), (False, 1), (True, 0), (True, 1)}


def _pauli_factor(curve_info):
    g = np.zeros((2, 2), dtype=np.complex128)
    for col, name in enumerate(("1", "psi")):
        row = 0 if curve_info["perm"][name] == "1" else 1
        g[row, col] = np.exp(1j * curve_info["phases"][name])
    return g


def test_05_ising_larger_spheres_factorize():
    """M in {6, 8}: 4^(M/2-1) classes, each equal to the tensor product of
    its per-curve qubit factors under the bit-string isomorphism."""
    for m in (6, 8):
        surf = sphere_surface(ISING, "sigma", m)
        rep = classify_punctured_sphere(ISING, surf)
        assert rep.n_classes == 4 ** (m // 2 - 1), m
        basis = enumerate_labelings(ISING, surf)
        reg = [
            int(ising_qubit_isomorphism(ISING, surf, basis.labelings[i]), 2)
            for i in range(basis.dim)
        ]
        curves = [f"C{j}" for j in range(1, m - 2, 2)]
        for cls in rep.classes:
            got = np.zeros((basis.dim, basis.dim), dtype=np.complex128)
            for i, (tgt, ang) in enumerate(zip(cls["basis_perm"], cls["phases"])):
                got[tgt, i] = np.exp(1j * ang)
            kron = np.array([[1.0 + 0j]])
            for curve in curves:
                kron = np.kron(kron, _pauli_factor(cls["curves"][curve]))
            lifted = np.zeros_like(got)
            for i in range(basis.dim):
                for j in range(basis.dim):
                    lifted[j, i] = kron[reg[j], reg[i]]
            assert np.abs(got - lifted).max() < 1e-12, m


def test_06_fibonacci_spheres_trivial():
    """M in {5..8}: cut dimensions are distinct Fibonacci-number products,
    so only identity curve permutations survive; one trivial class; the
    M = 8 classification stays under 60 seconds."""
    for m in (5, 6, 7, 8):
        surf = sphere_surface(FIB, "tau", m)
        allowed = allowed_curve_permutations(FIB, surf)
        for cname in allowed:
            j = int(cname[1:])
            counts = cut_dimensions(FIB, surf, cname)
            c_vac = fibonacci_number(j) * fibonacci_number(m - 2 - j)
            c_tau = fibonacci_number(j + 1) * fibonacci_number(m - 1 - j)
            assert counts[0] == c_vac, (m, cname)
            assert counts[1] == c_tau, (m, cname)
            assert c_vac != c_tau, (m, cname)
            assert allowed[cname] == [((0, 0), (1, 1))], (m, cname)
        start = time.monotonic()
        rep = classify_punctured_sphere(FIB, surf)
        elapsed = time.monotonic() - start
        assert rep.verdict == "trivial"
        assert rep.n_classes == 1
        if m == 8:
            assert elapsed < 60.0


def test_07_dimension_formulas():
    """Code space dimensions up to 12 punctures match the closed forms."""
    for m in range(4, 13):
        dim_f = enumerate_labelings(FIB, sphere_surface(FIB, "tau", m)).dim
        assert dim_f == fibonacci_number(m - 1), m
        dim_i = enumerate_labelings(ISING, sphere_surface(ISING, "sigma", m)).dim
        assert dim_i == (2 ** (m // 2 - 1) if m % 2 == 0 else 0), m


def test_08_braid_relations():
    """Adjacent-exchange and far-commutation identities hold projectively
    (1e-8 and 1e-9) for both non-abelian models up to 8 punctures."""
    cases = [(FIB, "tau", m) for m in (4, 5, 6, 7, 8)]
    cases += [(ISING, "sigma", m) for m in (4, 6, 8)]
    for model, label, m in cases:
        surf = sphere_surface(model, label, m)
        gens = [
            evaluate_word(model, surf, f"s{k}").matrix for k in range(1, m)
        ]
        for k in range(len(gens) - 1):
            a, b = gens[k], gens[k + 1]
            assert projective_distance(a @ b @ a, b @ a @ b) < 1e-8, (m, k)
        for i, j in itertools.combinations(range(len(gens)), 2):
            if j - i >= 2:
                a, b = gens[i], gens[j]
                assert projective_distance(a @ b, b @ a) < 1e-9, (m, i, j)


def test_09_abelian_torus_structure():
    """Z2/Z3/Z4 torus classes induce monomial cycle actions with exact
    N-th-root phases, pairwise consistency residual below 1e-9, and the
    qudit lattice check passes all N^4 loop pairs for N up to 5."""
    for model, nexp in ((Z2, 2), (Z3, 3), (Z4, 4)):
        rep = classify_torus(model)
        assert rep.verdict == "clifford_star_subgroup"
        for cls in rep.classes:
            gate = MonomialMatrix(
                perm=tuple(cls["basis_perm"]),
                phases=tuple(np.exp(1j * np.array(cls["phases"]))),
            )
            lam1, lam2 = induced_cycle_permutations(model, gate)
            for lam in (lam1, lam2):
                flag, _, phases = check_lambda_monomial(lam)
                assert flag
                assert np.abs(phases**nexp - 1).max() < 1e-9
            assert eq_consistency_residual(model.smatrix, lam1, lam2) < 1e-9
    for nmod in (2, 3, 4, 5):
        report = lattice_commutation_check(nmod, 3)
        assert report["passed"], nmod
        assert report["pairs_checked"] == nmod**4


def test_10_solver_matches_grid_oracle():
    """Every torus and small-sphere word with code dimension at most 4:
    the propagation solver and the brute-force grid oracle agree on
    permutations and on phases within 1e-6."""
    cases = [
        (FIB, torus_surface(), "s"),
        (FIB, torus_surface(), "st"),
        (ISING, torus_surface(), "s"),
        (ISING, torus_surface(), "st"),
        (Z2, torus_surface(), "s"),
        (FIB, sphere_surface(FIB, "tau", 4), "s2"),
        (FIB, sphere_surface(FIB, "tau", 5), "s2"),
        (ISING, sphere_surface(ISING, "sigma", 4), "s2"),
        (ISING, sphere_surface(ISING, "sigma", 6), "s2"),
    ]
    for model, surf, word in cases:
        v = evaluate_word(model, surf, word).matrix
        assert v.shape[0] <= 4
        impl = families(solve_intertwiner(v))
        oracle = grid_intertwiner_solutions(v)
        tag = (model.name, surf.kind, word)
        assert {pi for pi, _ in oracle} == {f.perm for f in impl}, tag
        for pi, d in oracle:
            assert any(f.perm == pi and f.coset.contains(d) for f in impl), (tag, pi)
        for f in impl:
            assert any(pi == f.perm and f.coset.contains(d) for pi, d in oracle), (tag, f.perm)


def test_11_finiteness_stable_under_word_doubling():
    """Re-running every reproduced classification with a doubled word list
    returns the identical finite class list."""
    torus_cases = [
        (FIB, ["s", "st"], ["s", "st", "ss", "stst"]),
        (ISING, ["s", "st"], ["s", "st", "ss", "stst"]),
        (Z2, ["s", "st"], ["s", "st", "ss", "stst"]),
        (Z3, ["s", "st"], ["s", "st", "ts", "tst"]),
    ]
    for model, base, doubled in torus_cases:
        rep_a = classify_torus(model, mcg_words=base)
        rep_b = classify_torus(model, mcg_words=doubled)
        assert rep_a.n_classes == rep_b.n_classes, model.name
        assert json.dumps(list(rep_a.classes), sort_keys=True) == json.dumps(
            list(rep_b.classes), sort_keys=True
        ), model.name
    sphere_cases = [
        (FIB, sphere_surface(FIB, "tau", 5), 4),
        (ISING, sphere_surface(ISING, "sigma", 6), 5),
    ]
    for model, surf, n_gens in sphere_cases:
        base = [f"s{k}" for k in range(1, n_gens + 1)]
        doubled = base + [f"{w},{w}" for w in base]
        rep_a = classify_punctured_sphere(model, surf, mcg_words=base)
        rep_b = classify_punctured_sphere(model, surf, mcg_words=doubled)
        assert rep_a.n_classes == rep_b.n_classes, model.name
        assert json.dumps(list(rep_a.classes), sort_keys=True) == json.dumps(
            list(rep_b.classes), sort_keys=True
        ), model.name
