import contextlib
import io
import itertools
import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from anyongates import (
    MonomialMatrix,
    delta_set,
    enumerate_labelings,
    evaluate_word,
    intersect_delta,
    is_monomial,
    load_builtin,
    solve_intertwiner,
    sphere_surface,
    torus_surface,
)
from anyongates import budget, solver
from anyongates.budget import Budget
from anyongates.cli import main as cli_main
from anyongates.mcg import evaluate_on_basis
from anyongates.solver import DeltaSet
from anyongates.tolerances import (
    CYCLE_TOL,
    DEFAULT_TOL,
    ZERO_THRESHOLD,
    modulus_match_tol,
    unit_modulus_tol,
)

from oracles import (
    IntertwinerSolution,
    PhaseCoset,
    bool_perm_in_frontier,
    bool_row_matchings,
    forest_checking_every_edge_end,
    coset_is_subset_of,
    coset_same_as,
    families,
    grid_intertwiner_solutions,
    intertwiner_residual,
    intertwiner_solutions,
    monomial_from_matrix,
    per_pair_propagate_chunk,
    propagate_phases_scalar,
    reference_candidate_pairs,
    reference_gate_coset,
    reference_intersect_delta,
    reference_perm_in_compat,
    same_perm_pairs,
    unpack_rows,
)

FIB = load_builtin("fibonacci")
ISING = load_builtin("ising")
GOLDEN = Path(__file__).parent / "golden" / "cli_sha256.json"

OVER_BUDGET = r"bytes in all, above the budget of "


def random_unitary(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def free_coset(n):
    """The phase coset with one free phase per index."""
    return PhaseCoset(components=tuple(range(n)), rel=(1.0 + 0j,) * n)


# ---------------------------------------------------------------------------
# Monomial helpers


def test_is_monomial_accepts_permutation_phase():
    m = np.array([[0, 1j], [np.exp(0.3j), 0]])
    assert is_monomial(m)
    assert is_monomial(np.eye(4, dtype=complex))


def test_is_monomial_rejects_non_monomial():
    assert not is_monomial(np.array([[1, 1], [0, 1]], dtype=complex) / np.sqrt(2))
    assert not is_monomial(np.zeros((2, 2), dtype=complex))
    assert not is_monomial(np.array([[0.4, 0], [0, 1]], dtype=complex))


def test_monomial_from_matrix_round_trip():
    gate = MonomialMatrix(perm=(2, 0, 1), phases=(1.0, 1j, np.exp(0.25j)))
    back = monomial_from_matrix(gate.matrix())
    assert back.perm == gate.perm
    assert np.abs(np.array(back.phases) - np.array(gate.phases)).max() < 1e-12


def test_monomial_matrix_action():
    gate = MonomialMatrix(perm=(1, 0), phases=(1.0, -1.0))
    m = gate.matrix()
    # column l carries phase l at row perm[l]
    assert m[1, 0] == 1.0 and m[0, 1] == -1.0


# ---------------------------------------------------------------------------
# Phase cosets


def test_free_coset_contains_anything():
    c = free_coset(3)
    assert c.n_free == 3
    assert c.contains(np.exp(1j * np.array([0.1, 2.0, -1.0])))


def test_rigid_coset_contains_up_to_global_phase():
    c = PhaseCoset(components=(0, 0), rel=(1.0, -1.0))
    assert c.n_free == 1
    assert c.contains(np.array([1j, -1j]))
    assert not c.contains(np.array([1.0, 1.0]))


def test_coset_intersect_equal_and_disjoint():
    a = PhaseCoset(components=(0, 0), rel=(1.0, 1j))
    b = PhaseCoset(components=(0, 0), rel=(1.0, 1j))
    c = PhaseCoset(components=(0, 0), rel=(1.0, -1j))
    assert a.intersect(b) is not None
    assert coset_same_as(a.intersect(b), a)
    assert a.intersect(c) is None


def _join(a, b):
    """intersect_delta's join of two non-rigid cosets, as a PhaseCoset."""
    joined = solver._join(a.components, a.rel, b.components, b.rel, CYCLE_TOL)
    return None if joined is None else PhaseCoset(*joined)


def test_coset_intersect_free_with_rigid():
    rigid = PhaseCoset(components=(0, 0, 0), rel=(1.0, 1j, -1.0))
    got = free_coset(3).intersect(rigid)
    assert got is not None
    assert got.n_free == 1
    assert coset_same_as(got, rigid)
    assert _join(free_coset(3), rigid) == got


def test_coset_partial_intersection():
    # two 2-free cosets on 3 coordinates joining different pairs
    a = PhaseCoset(components=(0, 0, 1), rel=(1.0, 1.0, 1.0))
    b = PhaseCoset(components=(0, 1, 1), rel=(1.0, 1.0, 1.0))
    got = a.intersect(b)
    assert got is not None
    assert got.n_free == 1
    assert got.contains(np.array([1j, 1j, 1j]))
    assert not got.contains(np.array([1.0, 1.0, -1.0]))
    assert _join(a, b) == got
    # d_1 = d_0 in a, d_1 = -d_0 in c
    c = PhaseCoset(components=(0, 0, 1), rel=(1.0, -1.0, 1.0))
    assert a.intersect(c) is None and _join(a, c) is None


def test_coset_subset():
    rigid = PhaseCoset(components=(0, 0), rel=(1.0, 1j))
    assert coset_is_subset_of(rigid, free_coset(2))
    assert not coset_is_subset_of(free_coset(2), rigid)


def test_coset_instantiate():
    c = PhaseCoset(components=(0, 1, 0), rel=(1.0, 1.0, -1.0))
    vals = c.instantiate(np.array([1j, -1.0]))
    assert np.abs(vals - np.array([1j, -1.0, -1j])).max() < 1e-12


# ---------------------------------------------------------------------------
# Intertwiner solving


def test_identity_word_leaves_everything_free():
    ds = solve_intertwiner(np.eye(3, dtype=complex))
    assert (len(ds), ds.n_free) == (6, 3)
    sols = intertwiner_solutions(np.eye(3, dtype=complex))
    assert [sol.perm_in for sol in sols] == [sol.perm_out for sol in sols]


def test_fibonacci_s_families():
    v = evaluate_word(FIB, torus_surface(), "s").matrix
    by_perm = {fam.perm: fam for fam in families(solve_intertwiner(v))}
    assert set(by_perm) == {(0, 1), (1, 0)}
    ident = by_perm[(0, 1)]
    assert ident.n_free == 1
    assert ident.coset.contains(np.array([1.0, 1.0]))
    swap = by_perm[(1, 0)]
    assert swap.coset.contains(np.array([1.0, -1.0]))


def test_fibonacci_st_swap_ratio():
    v = evaluate_word(FIB, torus_surface(), "st").matrix
    swap = next(f for f in families(solve_intertwiner(v)) if f.perm == (1, 0))
    coset = swap.coset
    assert coset.n_free == 1
    ratio = coset.rel[1] / coset.rel[0]
    assert abs(ratio - np.exp(0.6j * np.pi)) < 1e-9


def test_instantiated_families_satisfy_equation():
    rng = np.random.default_rng(11)
    for word in ("s", "t", "st", "ts"):
        for model in (FIB, ISING):
            v = evaluate_word(model, torus_surface(), word).matrix
            for sol in intertwiner_solutions(v):
                for _ in range(25):
                    free = np.exp(2j * np.pi * rng.random(sol.n_components))
                    res = intertwiner_residual(v, sol, free)
                    assert res < 1e-8


def test_composed_gate_is_monomial_on_word():
    rng = np.random.default_rng(12)
    v = evaluate_word(ISING, torus_surface(), "st").matrix
    for fam in families(solve_intertwiner(v)):
        g = fam.gate(np.exp(2j * np.pi * rng.random(fam.n_free))).matrix()
        assert is_monomial(v @ g @ v.conj().T)


def test_solver_matches_grid_oracle_small():
    """Dual route: graph propagation vs brute-force grid scan, dim <= 3."""
    cases = [
        evaluate_word(FIB, torus_surface(), "s").matrix,
        evaluate_word(FIB, torus_surface(), "st").matrix,
        evaluate_word(ISING, torus_surface(), "st").matrix,
    ]
    for v in cases:
        impl = families(solve_intertwiner(v))
        oracle = grid_intertwiner_solutions(v)
        assert {pi for pi, _ in oracle} == {f.perm for f in impl}
        for pi, d in oracle:
            owners = [f for f in impl if f.perm == pi and f.coset.contains(d)]
            assert owners, (pi, d)
        # every family is hit by at least one oracle point
        for f in impl:
            assert any(pi == f.perm and f.coset.contains(d) for pi, d in oracle)


def test_restricting_perm_in():
    v = evaluate_word(FIB, torus_surface(), "s").matrix
    ds = solve_intertwiner(v, perm_in=[(0, 1)])
    assert ds.perms.tolist() == [[0, 1]]


def test_fixed_perm_out():
    v = evaluate_word(FIB, torus_surface(), "s").matrix
    assert len(solve_intertwiner(v, perm_in=[(1, 0)], perm_out=[(1, 0)])) == 1
    assert len(solve_intertwiner(v, perm_in=[(1, 0)], perm_out=[(0, 1)])) == 0
    sols = intertwiner_solutions(v, perm_in=[(1, 0)], perm_out=[(1, 0)])
    assert [s.perm_out for s in sols] == [(1, 0)]


def test_restricting_perm_out_prevents_matching_blowup():
    # a word matrix with equal-modulus entries everywhere is compatible with
    # every output matching pattern, so the candidate list must bound both
    # sides of the equation
    from anyongates.abelian import affine_permutations

    model = load_builtin("zn_toric:3")
    affs = affine_permutations(model)[:40]
    with pytest.raises(ValueError, match=r"^pair arrays: 14,515,200 x 160 bytes, "):
        delta_set(model, torus_surface(), "stst", restrict_perms=affs)
    ds = delta_set(model, torus_surface(), "stst",
                   restrict_perms=affs, restrict_perms_out=affs)
    assert len(ds)
    aff_set = set(map(tuple, affs.tolist()))
    assert set(map(tuple, ds.perms.tolist())) <= aff_set


def test_small_search_budget_refuses_before_building_pairs(monkeypatch):
    """The flat 6 x 6 Fourier matrix has 720 x 720 feasible pairs (58 MB of
    pair arrays).  Its frontier fits a budget of 10^7 bytes, its pairs do
    not, so the search stops with their count before any pair array exists.
    The chunks stay those of the real budget, so the one frontier block
    holds all 720 gate permutations and their pairs are counted at once."""
    full = budget.BUDGET_BYTES
    monkeypatch.setattr(
        solver, "chunk_rows", lambda row_bytes: max(1, (full >> 10) // max(1, row_bytes))
    )
    monkeypatch.setattr(budget, "BUDGET_BYTES", 10**7)
    k = np.arange(6)
    dft = np.exp(2j * np.pi * np.outer(k, k) / 6) / np.sqrt(6)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^pair arrays: 518,400 x 112 bytes, [\d,]+ "
                           r"bytes in all, above the budget of 10,000,000 bytes"):
            solve_intertwiner(dft)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    v = np.eye(9, dtype=complex)
    with pytest.raises(ValueError, match=OVER_BUDGET):
        solve_intertwiner(v)
    # a fixed perm stays within the same budget at dimension 9
    sols = solve_intertwiner(v, perm_in=[tuple(range(9))])
    assert len(sols) == 1


def test_non_unitary_input_rejected():
    with pytest.raises(ValueError):
        solve_intertwiner(np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex))


def test_generic_unitary_only_global_phase():
    """A structureless unitary admits nothing beyond lambda * identity."""
    v = random_unitary(3, seed=2)
    ds = solve_intertwiner(v)
    assert ds.perms.tolist() == [[0, 1, 2]]
    assert [s.perm_out for s in intertwiner_solutions(v)] == [(0, 1, 2)]
    assert ds.n_free == 1
    assert ds.contains(MonomialMatrix((0, 1, 2), (1.0, 1.0, 1.0)))


def test_intertwiner_residual_distinct_in_out():
    # V_out may differ from V; identity gates must still intertwine exactly
    v = random_unitary(3, seed=4)
    v_out = v.copy()
    sol = IntertwinerSolution(
        perm_in=(0, 1, 2),
        perm_out=(0, 1, 2),
        phase_classes=(0,) * 6,
        relative_phases=(1.0,) * 6,
    )
    assert intertwiner_residual(v, sol, v_out=v_out) < 1e-12


# ---------------------------------------------------------------------------
# Delta sets over words


def test_delta_set_families_close_under_words():
    ds = delta_set(FIB, torus_surface(), "s")
    assert ds.dim == 2
    assert len(ds) == 2


def test_intersect_delta_pins_fibonacci_to_identity():
    sets = [delta_set(FIB, torus_surface(), w) for w in ("s", "st")]
    inter = intersect_delta(sets)
    assert len(inter) == 1
    fam = families(inter)[0]
    assert fam.perm == (0, 1)
    assert fam.coset.n_free == 1
    assert fam.coset.contains(np.array([1.0, 1.0]))


def test_delta_set_contains_gate():
    ds = delta_set(FIB, torus_surface(), "s")
    assert ds.contains(MonomialMatrix(perm=(1, 0), phases=(1.0, -1.0)))
    assert not ds.contains(MonomialMatrix(perm=(1, 0), phases=(1.0, 1j)))


# ---------------------------------------------------------------------------
# The pruned pair search against brute force


def _searched_pairs(monkeypatch, v, v_out, perm_in=None, perm_out=None, tol=DEFAULT_TOL):
    """The (perm_in, perm_out) sequence solve_intertwiner hands to propagation."""
    seen = []
    candidate_pairs = solver._candidate_pairs

    def record(*args):
        for pis, pips in candidate_pairs(*args):
            seen.extend(zip(map(tuple, pis.tolist()), map(tuple, pips.tolist())))
            yield pis, pips

    monkeypatch.setattr(solver, "_candidate_pairs", record)
    solve_intertwiner(v, perm_in, perm_out, v_out=v_out, tol=tol)
    monkeypatch.undo()
    return seen


def _brute_force_pairs(v, v_out, perm_in=None, perm_out=None, tol=1e-9):
    n = v.shape[0]
    absv, absvo = np.abs(v), np.abs(v_out)
    perms = list(itertools.permutations(range(n)))
    return [
        (pi, pip)
        for pi, pip in itertools.product(perm_in or perms, perm_out or perms)
        if all(
            abs(absvo[pip[m], pi[l]] - absv[m, l]) <= tol
            for m in range(n)
            for l in range(n)
        )
    ]


def _monomial_twist(v, seed):
    """P D V D' P' for random permutations P, P' and unit phases D, D'."""
    rng = np.random.default_rng(seed)
    n = v.shape[0]
    left = MonomialMatrix(tuple(rng.permutation(n)), tuple(np.exp(2j * np.pi * rng.random(n))))
    right = MonomialMatrix(tuple(rng.permutation(n)), tuple(np.exp(2j * np.pi * rng.random(n))))
    return left.matrix() @ v @ right.matrix()


def test_pair_search_matches_brute_force(monkeypatch):
    cases = []
    for n in (3, 4):
        v = random_unitary(n, seed=20 + n)
        cases.append((v, v))
        cases.append((v, random_unitary(n, seed=30 + n)))
        cases.append((v, _monomial_twist(v, seed=40 + n)))
    # equal-modulus blocks: many feasible pairs per column permutation
    kron = np.kron(random_unitary(2, seed=50), random_unitary(2, seed=51))
    cases.append((kron, kron))
    cases.append((kron, _monomial_twist(kron, seed=52)))
    s = evaluate_word(load_builtin("zn_toric:2"), torus_surface(), "s").matrix
    cases.append((s, s))
    counts = []
    for v, v_out in cases:
        want = _brute_force_pairs(v, v_out)
        assert _searched_pairs(monkeypatch, v, v_out) == want
        counts.append(len(want))
    # a generic unitary only matches itself; a twisted copy matches once
    assert counts[:3] == [1, 0, 1]
    # the flat-modulus S matrix accepts every pair of the 4! x 4! grid
    assert counts[-1] == 576
    # explicit candidate lists keep their own order on either side
    rng = np.random.default_rng(53)
    perms = list(itertools.permutations(range(4)))
    some = [perms[i] for i in rng.permutation(len(perms))[:9]]
    for v, v_out in (cases[-1], cases[-2]):
        for perm_in, perm_out in ((some, None), (None, some), (some, some[::-1])):
            want = _brute_force_pairs(v, v_out, perm_in, perm_out)
            assert _searched_pairs(monkeypatch, v, v_out, perm_in, perm_out) == want


# ---------------------------------------------------------------------------
# Batched phase propagation against the scalar one-pair oracle


def _oracle_solutions(monkeypatch, v, v_out, perm_in=None, perm_out=None, tol=DEFAULT_TOL):
    """Solutions of the scalar oracle over the pairs solve_intertwiner searches."""
    pairs = _searched_pairs(monkeypatch, v, v_out, perm_in, perm_out, tol)
    support = np.abs(v) > ZERO_THRESHOLD
    sols = []
    for pi, pip in pairs:
        res = propagate_phases_scalar(v, v_out, pi, pip, support, tol, CYCLE_TOL)
        if res is not None:
            sols.append(IntertwinerSolution(pi, pip, res[0], res[1]))
    return pairs, sols


def _bits(values):
    return np.array(values, dtype=np.complex128).view(np.float64).tobytes()


def _assert_same_solutions(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.perm_in == b.perm_in and a.perm_out == b.perm_out
        assert a.phase_classes == b.phase_classes
        assert _bits(a.relative_phases) == _bits(b.relative_phases)


def _assert_gate_cosets(ds, sols):
    """Row f of ``ds`` is the gate coset of ``sols[f]``, projected per
    solution: the same perm, components and rel bytes (signed zeros
    included), numpy scalars."""
    assert len(ds) == len(sols)
    for fam, sol in zip(families(ds), sols):
        want = reference_gate_coset(sol)
        assert fam.perm == sol.perm_in
        assert fam.coset.components == want.components
        assert _bits(fam.coset.rel) == _bits(want.rel)
        assert all(type(x) is np.complex128 for x in fam.coset.rel)


def _word(model, surface, word):
    return evaluate_word(load_builtin(model), surface, word).matrix


def test_batched_propagation_matches_scalar_oracle(monkeypatch):
    from anyongates.abelian import affine_permutations

    ising, fib = load_builtin("ising"), load_builtin("fibonacci")
    sig8 = sphere_surface(ising, "sigma", 8)
    tau7 = sphere_surface(fib, "tau", 7)
    cases = [
        (evaluate_word(ising, sig8, "s2").matrix, None, None, None),
        (evaluate_word(fib, tau7, "s2").matrix, None, None, None),
        (evaluate_word(fib, tau7, "s3").matrix, None, None, None),
    ]
    for word in ("s", "st", "stst"):
        cases.append((_word("zn_toric:2", torus_surface(), word), None, None, None))
    for n in (3, 4):
        v = random_unitary(n, seed=20 + n)
        cases.append((v, v, None, None))
        cases.append((v, _monomial_twist(v, seed=40 + n), None, None))
    kron = np.kron(random_unitary(2, seed=50), random_unitary(2, seed=51))
    cases.append((kron, kron, None, None))
    cases.append((kron, _monomial_twist(kron, seed=52), None, None))
    z3 = load_builtin("zn_toric:3")
    affs = affine_permutations(z3)
    cases.append((_word("zn_toric:3", torus_surface(), "stst"), None, affs[:40], affs))
    kept = []
    for v, v_out, perm_in, perm_out in cases:
        v_out = v if v_out is None else v_out
        got = intertwiner_solutions(v, perm_in, perm_out, v_out=v_out)
        pairs, want = _oracle_solutions(monkeypatch, v, v_out, perm_in, perm_out)
        _assert_same_solutions(got, want)
        _assert_gate_cosets(solve_intertwiner(v, perm_in, perm_out, v_out=v_out), want)
        kept.append((len(pairs), len(got)))
    assert kept[0][1] == 6144
    # zn_toric:2 s, st, stst: the cycle check rejects most of the 576 pairs
    assert kept[3:6] == [(576, 96), (576, 96), (576, 96)]
    # the explicit lists: every one of the 40 x 432 pairs is searched
    assert kept[-1][0] == 40 * len(affs) and len(affs) == 432


def _near_identity(entry):
    """A 2x2 unitary up to O(|entry|^2) with off-diagonal support ``entry``."""
    return np.array([[1.0, entry], [-np.conj(entry), 1.0]], dtype=np.complex128)


@pytest.mark.filterwarnings("ignore:smallest nonzero")
def test_batched_propagation_rejects_like_the_oracle(monkeypatch):
    v = _near_identity(5e-10)
    eye = np.eye(2, dtype=np.complex128)
    controls = [
        # a support entry of V matched against an exact zero of V_out
        (v, eye, DEFAULT_TOL, 0),
        # the same with the ratio bound switched off (a bound no finite
        # ratio reaches; an infinite tol is refused): only the zero check
        # rejects, every pair now passing the modulus filter
        (v, eye, 1e300, 0),
        # tiny entries of equal size within tol but a ratio of modulus 1/2
        (v, _near_identity(1e-9), DEFAULT_TOL, 0),
        # the same tiny entries with equal modulus and another phase pass,
        # through the identity and the swap
        (v, _near_identity(5e-10 * np.exp(0.3j)), DEFAULT_TOL, 2),
    ]
    for v, v_out, tol, n_sols in controls:
        got = intertwiner_solutions(v, v_out=v_out, tol=tol)
        pairs, want = _oracle_solutions(monkeypatch, v, v_out, tol=tol)
        assert pairs
        _assert_same_solutions(got, want)
        _assert_gate_cosets(solve_intertwiner(v, v_out=v_out, tol=tol), want)
        assert len(got) == n_sols
    # d_1 = (V[0, 1] / V_out[0, 1]) d'_0 = exp(-0.3i) d_0 for the identity
    assert np.angle(got[0].relative_phases[1]) == pytest.approx(-0.3)


# ---------------------------------------------------------------------------
# The array pair search against the recursive search it replaced


def _surface(model, text):
    """``torus`` or ``sphere:<label>:<M>``."""
    if text == "torus":
        return torus_surface()
    _, label, m = text.split(":")
    return sphere_surface(model, label, int(m))


def _kron(*factors):
    out = np.eye(1, dtype=np.complex128)
    for f in factors:
        out = np.kron(out, f)
    return out


def _shuffled_perms(n, count, seed):
    rng = np.random.default_rng(seed)
    perms = list(itertools.permutations(range(n)))
    return [perms[i] for i in rng.permutation(len(perms))[:count]]


def _pair_search_case(name):
    """(V, V_out, perm_in, perm_out) of one named pair-search case."""
    kind, _, arg = name.partition(":")
    if kind == "random":
        v = random_unitary(int(arg), seed=60 + int(arg))
        return v, v, None, None
    if kind == "random-twisted":
        v = random_unitary(int(arg), seed=60 + int(arg))
        return v, _monomial_twist(v, seed=70 + int(arg)), None, None
    if kind in ("kron", "kron-twisted"):
        v = _kron(*(random_unitary(2, seed=80 + k) for k in range(int(arg))))
        return v, (v if kind == "kron" else _monomial_twist(v, seed=90)), None, None
    if kind == "word":
        model, surface, word = arg.split("/")
        mod = load_builtin(model)
        v = evaluate_word(mod, _surface(mod, surface), word).matrix
        return v, v, None, None
    # explicit candidate lists in shuffled order on a flat and a kron matrix
    v = _word("zn_toric:2", torus_surface(), "s") if arg == "flat" else _kron(
        random_unitary(2, seed=80), random_unitary(2, seed=81))
    some, other = _shuffled_perms(4, 11, seed=95), _shuffled_perms(4, 13, seed=96)
    return v, v, (some if "in" in kind else None), (other if "out" in kind else None)


@pytest.mark.parametrize("name", [
    *(f"random:{n}" for n in range(3, 9)),
    *(f"random-twisted:{n}" for n in range(3, 9)),
    "kron:2", "kron-twisted:2", "kron:3", "kron-twisted:3",
    "word:ising/sphere:sigma:8/s2",
    "word:fibonacci/sphere:tau:7/s2",
    "word:fibonacci/sphere:tau:7/s3",
    "word:zn_toric:2/torus/s",
    "word:zn_toric:2/torus/st",
    *(f"{sides}:{m}" for sides in ("in", "out", "in-out") for m in ("flat", "kron")),
])
@pytest.mark.parametrize("tiny", [False, True], ids=["blocks", "tiny-blocks"])
def test_pair_arrays_match_the_recursive_search(monkeypatch, name, tiny):
    chunk = 2048
    if tiny:  # one partial permutation per frontier block, 7 pairs per chunk
        monkeypatch.setattr(solver, "chunk_rows", lambda row_bytes: 1)
        chunk = 7
    v, v_out, perm_in, perm_out = _pair_search_case(name)
    absv, absvo, tol = np.abs(v), np.abs(v_out), modulus_match_tol(DEFAULT_TOL)
    n = v.shape[0]
    chunks = list(solver._candidate_pairs(absv, absvo, perm_in, perm_out, tol, Budget(), chunk))
    assert all(0 < len(pis) == len(pips) <= chunk for pis, pips in chunks)
    empty = [(np.empty((0, n), dtype=np.intp),) * 2]
    pis, pips = (np.concatenate(side) for side in zip(*(chunks or empty)))
    want = reference_candidate_pairs(absv, absvo, perm_in, perm_out, tol)
    assert want
    assert np.array_equal(pis, np.array([p for p, _ in want], dtype=np.intp).reshape(-1, n))
    assert np.array_equal(pips, np.array([q for _, q in want], dtype=np.intp).reshape(-1, n))


# ---------------------------------------------------------------------------
# The explicit-candidate projection window against the dense compare


def _letter_matrices(model, label, m):
    """The word matrices of every one- and two-letter braid word of
    ``sphere:<label>:<m>``, two-letter words as products of the letters'."""
    mod = load_builtin(model)
    basis = enumerate_labelings(mod, sphere_surface(mod, label, m))
    letters = [evaluate_on_basis(mod, basis, f"s{k}").matrix for k in range(1, m)]
    return letters + [a @ b for a, b in itertools.product(letters, repeat=2)]


def _compat_cases(v, rng):
    """(|V|, |V_out|, candidates) triples around one word matrix: V_out = V,
    V_out with rows and columns permuted, and moduli moved by about tol."""
    n = v.shape[0]
    absv = np.abs(v)
    ident = tuple(range(n))
    cands = [ident, *(tuple(rng.permutation(n).tolist()) for _ in range(3))]
    rows, cols = rng.permutation(n), rng.permutation(n)
    # |V_out[rows[i], cols[j]]| = |V[i, j]|, so V's columns land by perm_in = cols
    shuffled = np.empty_like(absv)
    shuffled[np.ix_(rows, cols)] = absv
    yield absv, absv, cands
    yield absv, shuffled, [tuple(cols.tolist()), *cands]
    for shift in (0.9e-9, 1e-9, 1.1e-9):
        for sign in (1.0, -1.0):
            moved = absv.copy()
            # one entry, and one whole row, moved by the shift
            i, j = rng.integers(n, size=2)
            moved[i, j] = max(moved[i, j] + sign * shift, 0.0)
            row = rng.integers(n)
            moved[row] = np.maximum(moved[row] + sign * shift, 0.0)
            yield absv, moved, cands[:2]


@pytest.mark.parametrize("model,label,m", [
    *(("ising", "sigma", m) for m in range(4, 11, 2)),  # odd counts: empty code spaces
    *(("fibonacci", "tau", m) for m in range(4, 12)),
])
def test_explicit_compat_matches_the_dense_compare(model, label, m):
    """On every one- and two-letter word, the window's compat equals the
    dense comparison's, bit for bit, for identity and random candidates,
    a shuffled V_out and moduli moved by 0.9, 1 and 1.1 times tol."""
    tol = modulus_match_tol(DEFAULT_TOL)
    rng = np.random.default_rng(m)
    checked = 0
    for v in _letter_matrices(model, label, m):
        for absv, absvo, cands in _compat_cases(v, rng):
            got = solver._explicit_compat(absv, absvo, np.array(cands, dtype=np.intp), tol)
            want = reference_perm_in_compat(absv, absvo, cands, tol)
            assert np.array_equal(unpack_rows(got, len(absv)), want)
            checked += want.any()
    assert checked


@pytest.mark.parametrize("n", [2, 5, 8, 13])
def test_explicit_compat_on_equal_moduli_and_nan(n):
    """All-equal moduli put every pair in the window; a NaN modulus matches
    no row, on either side.  The window still equals the dense compare."""
    tol = modulus_match_tol(DEFAULT_TOL)
    rng = np.random.default_rng(n)
    cands = np.array([np.arange(n), *(rng.permutation(n) for _ in range(3))], dtype=np.intp)
    flat = np.full((n, n), 1 / np.sqrt(n))  # the moduli of a Fourier matrix
    nan_in = flat.copy()
    nan_in[n // 2, n - 1] = np.nan
    word = np.abs(_word("fibonacci", sphere_surface(FIB, "tau", 8), "s2s3"))[:n, :n]
    nan_word = word.copy()
    nan_word[0, 0] = np.nan
    for absv, absvo in ((flat, flat), (nan_in, flat), (flat, nan_in), (nan_in, nan_in),
                        (word, nan_word), (nan_word, word)):
        got = unpack_rows(solver._explicit_compat(absv, absvo, cands, tol), n)
        assert np.array_equal(got, reference_perm_in_compat(absv, absvo, cands, tol))
    assert unpack_rows(solver._explicit_compat(flat, flat, cands, tol), n).all()
    assert not solver._explicit_compat(nan_in, flat, cands, tol)[:, n // 2].any()


@pytest.mark.parametrize("side", ["v", "v_out"])
@pytest.mark.parametrize("perm_in", [None, [(0, 1, 2)]], ids=["wildcard", "explicit"])
def test_nan_matrix_is_not_unitary(side, perm_in):
    """A NaN entry gives a NaN unitarity residual, which must fail the check."""
    bad = np.eye(3, dtype=complex)
    bad[1, 2] = np.nan
    v, v_out = (bad, None) if side == "v" else (np.eye(3, dtype=complex), bad)
    name = "V" if side == "v" else "V_out"
    with pytest.raises(ValueError, match=rf"^{name} is not unitary \(residual nan\)"):
        solve_intertwiner(v, perm_in, v_out=v_out)


def test_word_matrix_is_checked_for_unitarity_once(monkeypatch):
    """V_out defaulting to V is charged and checked once; a given V_out is
    checked as well."""
    stages = []
    charge = Budget.charge

    def recording(self, stage, count, nbytes):
        stages.append(stage)
        charge(self, stage, count, nbytes)

    monkeypatch.setattr(Budget, "charge", recording)
    delta_set(FIB, sphere_surface(FIB, "tau", 7), "s2", restrict_perms=[tuple(range(8))])
    assert stages.count("unitarity check") == 1
    stages.clear()
    v = np.eye(3, dtype=complex)
    solve_intertwiner(v, [(0, 1, 2)], v_out=v.copy())
    assert stages.count("unitarity check") == 2


def test_search_budget_fails_fast_on_a_flat_matrix():
    """A flat 8 x 8 matrix admits 8! matchings per perm_in.  The wildcard's
    first block of perm_ins would make 2048 x 8! pairs, which the budget
    refuses before they are built; the identity alone makes 8! pairs, and
    the 8 characters of Z_8 survive propagation."""
    k = np.arange(8)
    dft = np.exp(2j * np.pi * np.outer(k, k) / 8) / np.sqrt(8)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^pair arrays: 82,575,360 x 144 bytes, "):
            solve_intertwiner(dft)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    ident = tuple(range(8))
    assert len(solve_intertwiner(dft, [ident])) == 8
    sols = intertwiner_solutions(dft, [ident])
    # V diag(conj(chi_b)) V^dag is the cyclic shift m -> m + b, so the
    # families are the 8 characters, in the lexicographic order of shifts
    assert [s.perm_out for s in sols] == [tuple(np.roll(k, -b).tolist()) for b in k]
    support = np.abs(dft) > ZERO_THRESHOLD
    for b, sol in zip(k, sols):
        assert sol.perm_in == ident
        assert intertwiner_residual(dft, sol) < 1e-12
        d, _ = sol.instantiate()
        assert np.abs(d - np.exp(-2j * np.pi * b * k / 8)).max() < 1e-12
        want = propagate_phases_scalar(
            dft, dft, ident, sol.perm_out, support, DEFAULT_TOL, CYCLE_TOL
        )
        assert want == (sol.phase_classes, sol.relative_phases)
    flat = np.abs(dft)
    message = r"too many output-permutation matchings \(more than 20000\); restrict perm_out"
    with pytest.raises(ValueError, match=message):
        reference_candidate_pairs(flat, flat, None, None, modulus_match_tol(DEFAULT_TOL))


def test_fibonacci_tau_8_delta_set_within_budget():
    """dim 13: 23,040 gate families, each kept monomial by V(s2)."""
    surf = sphere_surface(FIB, "tau", 8)
    ds = delta_set(FIB, surf, "s2")
    assert (ds.dim, len(ds)) == (13, 23040)
    v = evaluate_word(FIB, surf, "s2").matrix
    perms = ds.perms
    phases = ds.instantiate_families()
    cols = np.arange(13)
    for lo in range(0, len(perms), 2048):
        perm, d = perms[lo:lo + 2048], phases[lo:lo + 2048]
        gates = np.zeros((len(perm), 13, 13), dtype=np.complex128)
        gates[np.arange(len(perm))[:, None], perm, cols] = d  # G[perm(l), l] = d_l
        conj = v @ gates @ v.conj().T
        assert solver.monomial_mask(conj, unit_modulus_tol(DEFAULT_TOL)).all()


def _traced_peak(call):
    """Run ``call`` under tracemalloc; return (its exception, peak bytes)."""
    tracemalloc.start()
    try:
        with pytest.raises(budget.SearchBudgetError) as err:
            call()
        return err.value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wildcard_on_a_large_matrix_is_refused_in_flat_memory():
    """n = 256: a table of every column pair would take 4 GiB and the
    waiting children's states of the frontier about 1 GiB before the count
    passes the budget; one step at a time takes a few tens of MB."""
    err, peak = _traced_peak(lambda: solve_intertwiner(np.eye(256, dtype=complex)))
    assert str(err).startswith("perm_in frontier: 1 x 16,777,216 bytes, ")
    assert "above the budget of 1,073,741,824 bytes" in str(err)
    assert peak < 64 * 2**20


def test_delta_set_refuses_a_word_matrix_over_budget_before_building_it():
    """sphere:sigma:30 has dimension 2^14: evaluating s2 holds four dense
    matrices (the running product, its next value, a conjugate and the
    generator) of 4 GiB each."""
    surf = sphere_surface(ISING, "sigma", 30)
    err, peak = _traced_peak(lambda: delta_set(ISING, surf, "s2"))
    assert str(err).startswith("word matrix: 4 x 4,294,967,296 bytes, 17,179,869,184 bytes in all")
    assert peak < 16 * 2**20


@pytest.mark.parametrize("m, refusal", [
    (28, "word matrix: 4 x 1,073,741,824 bytes, 4,294,967,296 bytes in all"),
    (22, "search row: 1 x 1,073,741,824 bytes, 1,140,850,688 bytes in all"),
])
def test_delta_set_refuses_a_dimension_over_budget_before_evaluating_its_word(m, refusal):
    """On sphere:sigma:28 (2^13 rows) the four matrices of s2 pass the
    budget where one alone would not.  On sphere:sigma:22 (2^10 rows) they
    fit, but one search row of n^3 booleans, the least any search holds,
    does not."""
    surf = sphere_surface(ISING, "sigma", m)
    err, peak = _traced_peak(lambda: delta_set(ISING, surf, "s2"))
    assert str(err).startswith(refusal)
    assert peak < 16 * 2**20


def test_refused_search_propagates_no_pair(monkeypatch):
    """Every pair is found, and charged, before the first is propagated, so
    sphere:sigma:10 s2 is refused after the pair search alone."""
    propagated = []
    real = solver._propagate_chunk
    monkeypatch.setattr(solver, "_propagate_chunk",
                        lambda *args: propagated.append(1) or real(*args))
    start = time.perf_counter()
    with pytest.raises(budget.SearchBudgetError, match=r"^matching frontier: 256 x 4,096 bytes, "):
        delta_set(ISING, sphere_surface(ISING, "sigma", 10), "s2")
    assert time.perf_counter() - start < 2.0
    assert propagated == []
    assert len(delta_set(ISING, sphere_surface(ISING, "sigma", 8), "s2")) == 6144
    assert propagated


# ---------------------------------------------------------------------------
# Packed frontier states against the boolean states they replaced

TIE = 2.0**-10  # tol, and the grid of every modulus: gaps are exact multiples
PACKED_SIZES = [1, 5, 6, 8, 9, 16, 17, 32, 33, 64, 65, 70]


def _tie_case(n, seed):
    """(|V|, |V_out|): V_out is V with rows and columns shuffled and some
    entries moved by exactly tol (a tie, still equal) and, past seed 0,
    some by 2 tol.

    Up to 64 rows the moduli are random levels on the tol grid, few levels
    for small n (many feasible prefixes), with a repeated row and column
    for larger n; past 64 rows V is a diagonal with moduli 4 tol apart."""
    rng = np.random.default_rng(seed)
    if n > 64:
        absv = np.diag((1.0 + 4 * rng.permutation(n)) * TIE)
    else:
        absv = rng.integers(0, 3 if n <= 9 else 12, size=(n, n)) * TIE
        if n > 9:
            absv[:, 1], absv[1] = absv[:, 0], absv[0]
    absvo = np.empty_like(absv)
    absvo[np.ix_(rng.permutation(n), rng.permutation(n))] = absv
    moved = rng.random((n, n))
    absvo += np.where(moved < 0.2, TIE, 0.0)
    if seed:  # seed 0 keeps the shuffle feasible
        absvo += np.where(moved > 0.98, 2 * TIE, 0.0)
    return absv, absvo


@pytest.mark.parametrize("n", PACKED_SIZES)
@pytest.mark.parametrize("tiny", [False, True], ids=["blocks", "tiny-blocks"])
def test_packed_perm_in_frontier_matches_the_boolean_one(monkeypatch, n, tiny):
    """The wildcard perm_in frontier on packed rows yields the same prefixes
    in the same blocks, the same compat bits and the same charges as the
    boolean (prefix, column, m, r) frontier it replaced, with ties exactly
    at tol."""
    if tiny:
        monkeypatch.setattr(solver, "chunk_rows", lambda row_bytes: 1)
    for seed in range(3):
        absv, absvo = _tie_case(n, seed)
        packed, want = Budget(), Budget()
        got = list(solver._perm_in_blocks(absv, absvo, None, TIE, packed))
        ref = list(bool_perm_in_frontier(absv, absvo, TIE, want))
        assert packed.spent == want.spent
        assert len(got) == len(ref)
        for (perms, compat), (ref_perms, ref_compat) in zip(got, ref):
            assert compat.dtype == solver._word_type(n)[0]
            assert np.array_equal(perms, ref_perms)
            assert np.array_equal(unpack_rows(compat, n), ref_compat)
        if seed == 0:
            assert got


def _matching_cases(n, rng):
    """Boolean compat matrices: shuffled permutation matrices with a few
    extra entries, one of them repeated, a forced one and one with an
    empty row."""
    subs = []
    for extra in (0, 3, 8):
        sub = np.zeros((n, n), dtype=bool)
        sub[np.arange(n), rng.permutation(n)] = True
        sub[rng.integers(n, size=extra), rng.integers(n, size=extra)] = True
        subs.append(sub)
    empty = subs[-1].copy()
    empty[n // 2] = False
    return np.array([*subs, subs[1], empty])


@pytest.mark.parametrize("n", PACKED_SIZES)
def test_packed_matchings_match_the_boolean_frontier(n):
    """Perfect matchings of packed compat matrices, by the n! table, read
    off a forced matrix's bits or by the frontier on packed ``avail`` rows,
    equal those of boolean matrices, with the same charges."""
    rng = np.random.default_rng(n)
    subs = _matching_cases(n, rng)
    packed, want = Budget(), Budget()
    got = solver._row_matchings(solver._pack(subs), packed)
    ref = bool_row_matchings(subs, want)
    assert packed.spent == want.spent
    assert [g.tolist() for g in got] == [r.tolist() for r in ref]
    assert len(ref[0]) == 1 and len(ref[-1]) == 0 and ref[1].tolist() == ref[3].tolist()


@pytest.mark.parametrize("n", [0, *PACKED_SIZES, 128, 129])
def test_packing_round_trips_in_the_narrowest_word(n):
    """Rows of n bits take the narrowest unsigned type up to 64 bits and
    ceil(n / 64) uint64 words past it; bit r sits in word r // B."""
    rng = np.random.default_rng(n)
    bits = rng.random((3, 2, n)) < 0.5
    words = solver._pack(bits)
    width = {1: 8, 5: 8, 6: 8, 8: 8, 9: 16, 16: 16, 17: 32, 32: 32}.get(n, 64 if n else 8)
    assert words.dtype == np.dtype(f"uint{width}")
    assert words.shape == (3, 2, max(1, -(-n // width)))
    assert np.array_equal(unpack_rows(words, n), bits)
    assert np.array_equal(solver._unpack(words, n), bits)
    for r in range(n):
        got = solver._has_bit(words.reshape(6, 1, -1), 0, np.array([r]))[:, 0]
        assert np.array_equal(got, bits.reshape(6, n)[:, r])


# ---------------------------------------------------------------------------
# One cycle check per non-tree edge

WORD_COMMANDS = sorted(
    command for command, row in json.loads(GOLDEN.read_text()).items()
    if "--words" in command and "--format text" not in command and row["exit"] == 0
)


def test_the_forest_checks_each_cycle_once():
    """sphere:sigma:8 s2 has 16 support entries: the forest checks its 4
    non-tree edges once each, where it checked 20 edge ends, with the same
    tree."""
    v = _word("ising", sphere_surface(ISING, "sigma", 8), "s2")
    support = np.abs(v) > ZERO_THRESHOLD
    new, old = solver._constraint_forest(support), forest_checking_every_edge_end(support)
    assert (len(new.rows), len(new.checks[0]), len(old.checks[0])) == (16, 4, 20)
    assert (new.components, new.roots.tolist()) == (old.components, old.roots.tolist())
    for a, b in zip(new.levels, old.levels, strict=True):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
    tree = {e for level in new.levels for e in level[2].tolist()}
    first = []
    for w, u, e in zip(*(a.tolist() for a in old.checks[:3])):
        if e not in tree and e not in {f for _, _, f in first}:
            first.append((w, u, e))
    assert list(zip(*(a.tolist() for a in new.checks[:3]))) == first


@pytest.mark.parametrize("command", WORD_COMMANDS)
def test_checking_each_cycle_once_accepts_the_same_pairs(monkeypatch, command):
    """On every word of the golden grid, the accepted pairs and their phases
    are bit for bit those of the forest that checked each edge from both
    ends."""
    propagate, forest = solver._propagate_chunk, solver._constraint_forest

    def accepted(build):
        chunks = []

        def record(*args):
            chunks.append(propagate(*args))
            return chunks[-1]

        monkeypatch.setattr(solver, "_constraint_forest", build)
        monkeypatch.setattr(solver, "_propagate_chunk", record)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(command.split()) == 0
        return chunks

    new, old = accepted(forest), accepted(forest_checking_every_edge_end)
    assert len(new) == len(old)
    for got, want in zip(new, old):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


# ---------------------------------------------------------------------------
# Gate families from the solver's arrays against per-solution gate cosets


def _family_case(name):
    """(model, surface, word, restrict_perms, restrict_perms_out)."""
    model_name, surface, word = name.split(" ")
    model = load_builtin(model_name)
    surf = _surface(model, surface)
    if word.endswith("@id"):  # the delta-set sphere path's candidate list
        word = word[:-3]
        ident = [tuple(range(evaluate_word(model, surf, word).matrix.shape[0]))]
        return model, surf, word, ident, None
    if word.endswith("@affine"):
        from anyongates.abelian import affine_permutations

        affs = affine_permutations(model)
        return model, surf, word[:-7], affs, affs
    return model, surf, word, None, None


FAMILY_CASES = [
    "ising sphere:sigma:8 s2",
    "fibonacci sphere:tau:7 s2",
    "fibonacci sphere:tau:7 s3",
    *(f"{m} torus {w}" for m in ("zn_toric:2", "ising", "fibonacci") for w in ("s", "st")),
    *(f"fibonacci sphere:tau:7 s{k}@id" for k in range(1, 7)),
    "fibonacci sphere:tau:11 s5@id",
    "zn_toric:3 torus stst@affine",
]


@pytest.mark.parametrize("name", FAMILY_CASES)
def test_delta_families_match_per_solution_gate_cosets(name):
    """delta_set and solve_intertwiner divide the solver's arrays once; the
    reference builds one IntertwinerSolution per family and projects it."""
    model, surf, word, perm_in, perm_out = _family_case(name)
    got = delta_set(model, surf, word, restrict_perms=perm_in, restrict_perms_out=perm_out)
    v = evaluate_word(model, surf, word).matrix
    sols = intertwiner_solutions(v, perm_in, perm_out)
    assert len(sols) > 0
    _assert_gate_cosets(got, sols)
    _assert_gate_cosets(solve_intertwiner(v, perm_in, perm_out), sols)
    rows = got.instantiate_families()
    assert _bits(rows) == _bits([fam.coset.instantiate() for fam in families(got)])


@pytest.mark.parametrize("model, surface, words", [
    ("ising", "sphere:sigma:8", ["s2"]),
    ("fibonacci", "sphere:tau:7", ["s2", "s3"]),
    ("zn_toric:2", "torus", ["s", "st", "stst"]),
    ("ising", "torus", ["s", "st"]),
    ("fibonacci", "torus", ["s", "st"]),
])
def test_batched_instantiate_matches_per_family_bytes(model, surface, words):
    """Intersected cosets mix numpy and Python complex entries; the batched
    product gives each family's instantiate() bytes either way."""
    mod = load_builtin(model)
    surf = _surface(mod, surface)
    inter = intersect_delta([delta_set(mod, surf, w) for w in words])
    rows = inter.instantiate_families()
    assert rows.shape == (len(inter), inter.dim)
    assert _bits(rows) == _bits([fam.coset.instantiate() for fam in families(inter)])


def _chain(m):
    """The delta-set sphere path's words s1..s{m-1}, each restricted to the
    identity."""
    return [f"s{k}@id" for k in range(1, m)]


@pytest.mark.parametrize("model, surface, words", [
    ("fibonacci", "sphere:tau:7", ["s2", "s3"]),
    ("zn_toric:2", "torus", ["s", "st", "stst"]),
    ("ising", "torus", ["s", "st"]),
    *(("fibonacci", f"sphere:tau:{m}", _chain(m)) for m in (7, 9, 11)),
])
def test_column_intersection_matches_the_family_reference(model, surface, words):
    """One array pass for rigid pairs, one ``_join`` per pair otherwise: the
    same permutations, components and rel bytes (signed zeros included) as
    intersecting GateFamily objects pair by pair with PhaseCoset.intersect."""
    sets = [delta_set(*_family_case(f"{model} {surface} {w}")) for w in words]
    got = intersect_delta(sets)
    want = reference_intersect_delta(sets)
    assert len(got) == len(want) > 0
    assert got.perms.tolist() == [list(f.perm) for f in want]
    assert all(f.coset.components == got.components for f in want)
    assert _bits(got.rel) == _bits([f.coset.rel for f in want])
    assert intersect_delta(sets[:1]) is sets[0]


def _pairing_set(case):
    """A delta set for ``case``; "closed" words come from the abelian closed
    form, and "narrow" sets hold their rows in the narrowest int type."""
    model, surface, word = case.split(" ")
    if word.startswith("closed:"):
        from anyongates.abelian import torus_word_families

        return torus_word_families(load_builtin(model), word[7:])
    if word.startswith("narrow:"):
        ds = _pairing_set(f"{model} {surface} {word[7:]}")
        return DeltaSet(ds.perms.astype(np.min_scalar_type(ds.dim)), ds.rel, ds.components)
    return delta_set(*_family_case(case))


@pytest.mark.parametrize("model, surface, words", [
    ("zn_toric:2", "torus", ["s", "st", "stst"]),
    ("fibonacci", "torus", ["s", "st"]),
    ("zn_toric:2", "torus", ["closed:s", "narrow:st"]),
    ("zn_toric:2", "torus", ["narrow:st", "closed:s", "stst"]),
    ("ising", "sphere:sigma:8", ["s2", "s4"]),
    ("fibonacci", "sphere:tau:7", ["s2", "s3"]),
    ("fibonacci", "sphere:tau:9", _chain(9)),
])
def test_equal_permutation_pairs_match_the_reference(monkeypatch, model, surface, words):
    """Each intersect_delta step pairs the rows with equal permutations by
    one join of their row keys, cast to one dtype: the same (i, j) arrays,
    ordered by i, then by j, as a dict of row tuples."""
    sets = [_pairing_set(f"{model} {surface} {w}") for w in words]
    joined = []
    real = solver._join_keys
    monkeypatch.setattr(solver, "_join_keys", lambda a, b: joined.append(real(a, b)) or joined[-1])
    intersect_delta(sets)
    monkeypatch.undo()
    assert len(joined) == len(sets) - 1
    for k, (ia, ib) in enumerate(joined, 1):
        want = same_perm_pairs(intersect_delta(sets[:k]).perms, sets[k].perms)
        assert len(want[0])
        assert ia.tolist() == want[0].tolist() and ib.tolist() == want[1].tolist()


def test_join_matches_the_family_reference_on_long_paths():
    """Pairs (2k, 2k + 1) joined with one component of every odd index tie
    each new index through a parent that is not a root, so the union-find
    multiplies along parent chains; a third set closes a cycle.  The result
    keeps the reference's bytes.  The last row breaks the cycle's ratio and
    is dropped."""
    n = 12
    x = np.exp(2j * np.pi * np.random.default_rng(5).random((4, n)))
    perms = np.array([np.roll(np.arange(n), k) for k in range(len(x))])

    def coset_set(labels):
        ids: dict[int, int] = {}
        comps = tuple(ids.setdefault(c, len(ids)) for c in labels)
        first = [comps.index(c) for c in comps]
        return DeltaSet(perms, x / x[:, first], comps)

    sets = [
        coset_set([i // 2 for i in range(n)]),
        coset_set([-1 if i % 2 else i for i in range(n)]),
        coset_set([0 if i == n - 1 else i for i in range(n)]),
    ]
    sets[2].rows[-1, -1] *= np.exp(1e-3j)
    got = intersect_delta(sets)
    want = reference_intersect_delta(sets)
    assert len(got) == len(want) == len(x) - 1
    assert all(f.coset.components == got.components == (0,) * n for f in want)
    assert _bits(got.rel) == _bits([f.coset.rel for f in want])


def _membership_probes(ds, rng):
    """Gates to test against ``ds``: each row at random free phases, the
    same with a phase of a shared component turned by 1e-8 (inside
    ``MEMBERSHIP_TOL``) and by 1e-4 (outside), a permutation of no row if
    there is one, and a gate of another dimension."""
    shared = [i for i, c in enumerate(ds.components) if ds.components.count(c) > 1]
    probes = []
    for fam in families(ds):
        gate = fam.gate(np.exp(2j * np.pi * rng.random(fam.n_free)))
        probes.append(gate)
        i = rng.choice(shared)
        for turn in (1e-8, 1e-4):
            phases = np.array(gate.phases)
            phases[i] *= np.exp(1j * turn)
            probes.append(MonomialMatrix(gate.perm, tuple(phases)))
    perms = set(map(tuple, ds.perms.tolist()))
    absent = (p for p in itertools.permutations(range(ds.dim)) if p not in perms)
    probes.extend(MonomialMatrix(p, probes[0].phases) for p in itertools.islice(absent, 1))
    probes.append(MonomialMatrix((*probes[0].perm, ds.dim), (*probes[0].phases, 1.0)))
    return probes


@pytest.mark.parametrize("model, surface, word, n_other", [
    ("fibonacci", "sphere:tau:7", "s2", 2),
    # all 24 permutations have rows: only the wrong dimension is left
    ("zn_toric:2", "torus", "s", 1),
])
def test_delta_set_contains_matches_the_family_reference(model, surface, word, n_other):
    """One array pass over the rows of the gate's permutation decides as a
    scan of GateFamily.contains over every family."""
    mod = load_builtin(model)
    ds = delta_set(mod, _surface(mod, surface), word)
    fams = families(ds)
    probes = _membership_probes(ds, np.random.default_rng(7))
    got = [ds.contains(g) for g in probes]
    assert got == [any(f.contains(g) for f in fams) for g in probes]
    assert got[:3 * len(ds)] == [True, True, False] * len(ds)
    assert got[3 * len(ds):] == [False] * (len(probes) - 3 * len(ds)) == [False] * n_other


def test_rigid_intersection_keeps_the_first_sets_row_per_matching_pair():
    """Rows pair up by permutation; a pair within tol keeps the first set's
    rel, in the first set's order, then the second's."""
    perms = np.array([[0, 1], [1, 0], [0, 1]])
    a = DeltaSet(perms, np.array([[1, 1], [1, -1], [1, 1j]], dtype=complex), (0, 0))
    b = DeltaSet(
        perms[[1, 0, 0]], np.array([[1, -1 + 1e-12j], [1, 1j], [1, 1]], dtype=complex), (0, 0)
    )
    got = intersect_delta([a, b])
    assert got.perms.tolist() == [[0, 1], [1, 0], [0, 1]]
    assert _bits(got.rel) == _bits(a.rel[[0, 1, 2]])
    assert got.components == (0, 0)
    assert len(intersect_delta([a, DeltaSet(perms[:0], a.rel[:0], (0, 0))])) == 0


def test_batched_instantiate_keeps_signed_zero_bytes():
    """Multiplying by the free phase 1 + 0j turns 1 - 0j into 1 + 0j; the
    batched product must do the same as the per-family one."""
    zeros = [complex(a, b) for a in (1.0, -1.0, 0.0, -0.0) for b in (0.0, -0.0, 1.0, -1.0)]
    rel = np.reshape(np.array(zeros, dtype=np.complex128), (4, 4))
    ds = DeltaSet(np.tile(np.arange(4), (4, 1)), rel, (0, 0, 1, 1))
    rows = ds.instantiate_families()
    assert _bits(rows) == _bits([fam.coset.instantiate() for fam in families(ds)])
    assert _bits(rows) != _bits([fam.coset.rel for fam in families(ds)])


def test_empty_matrix_has_one_empty_family():
    """A zero-dimensional space has one (empty) permutation pair and family,
    which holds the empty gate and survives intersection with itself: its
    row keys are one per row, though its rows have no bytes."""
    empty = np.zeros((0, 0), dtype=np.complex128)
    ds = solve_intertwiner(empty)
    assert (ds.perms.shape, ds.rel.shape, ds.components) == ((1, 0), (1, 0), ())
    assert ds.contains(MonomialMatrix((), ()))
    assert len(intersect_delta([ds, ds])) == 1
    sols = intertwiner_solutions(empty)
    assert [(s.perm_in, s.perm_out, s.relative_phases) for s in sols] == [((), (), ())]
    pairs = list(solver._candidate_pairs(empty.real, empty.real, None, None, 0.0, Budget(), 1))
    assert [(pis.shape, pips.shape) for pis, pips in pairs] == [((1, 0), (1, 0))]
    assert reference_candidate_pairs(empty.real, empty.real, None, None, 0.0) == [((), ())]


# ---------------------------------------------------------------------------
# Propagation once per denominator pattern against the per-pair oracle


def _per_pair(v, v_out, pis, pips, forest, tol, cycle_tol, codes):
    """``_propagate_chunk`` with every pair its own column: the per-pair
    oracle, each accepted pair its own pattern."""
    pis, pips, val = per_pair_propagate_chunk(v, v_out, pis, pips, forest, tol, cycle_tol)
    return pis, pips, np.arange(len(pis)), val


def _recorded_chunks(monkeypatch):
    """A list that collects (arguments, result) of every propagated chunk."""
    chunks = []
    real = solver._propagate_chunk

    def record(*args):
        chunks.append((args, real(*args)))
        return chunks[-1][1]

    monkeypatch.setattr(solver, "_propagate_chunk", record)
    return chunks


def _assert_chunks_match_the_oracle(chunks):
    """Every chunk's accepted pairs, and each one's phases read through its
    pattern index, are the per-pair propagation's, bit for bit; every
    pattern row belongs to some accepted pair."""
    assert chunks
    for args, (pis, pips, which, val) in chunks:
        want_pis, want_pips, want_val = per_pair_propagate_chunk(*args[:7])
        assert np.array_equal(pis, want_pis) and np.array_equal(pips, want_pips)
        assert which.dtype == np.intp and len(which) == len(pis)
        assert _bits(np.ascontiguousarray(val[which])) == _bits(np.ascontiguousarray(want_val))
        assert np.array_equal(np.unique(which), np.arange(len(val)))


def _chunk_patterns(pis, pips, forest, v_out):
    """``_patterns`` of a chunk of pairs, as ``_propagate_chunk`` finds them."""
    idx = solver._denominator_index(pis, pips, forest, len(v_out))
    return solver._patterns(idx, solver._entry_codes(v_out))


def _assert_same_delta_sets(got, want):
    assert np.array_equal(got.perms, want.perms)
    assert got.components == want.components
    assert _bits(got.rel) == _bits(want.rel)
    assert _bits(got.instantiate_families()) == _bits(want.instantiate_families())


PATTERN_CASES = [
    "ising sphere:sigma:8 s2",
    "ising sphere:sigma:8 s2s4",
    "fibonacci sphere:tau:7 s2",
    "fibonacci sphere:tau:7 s3",
    "fibonacci sphere:tau:8 s2",
    "zn_toric:2 torus s",
    "zn_toric:2 torus st",
]


@pytest.mark.parametrize("name", PATTERN_CASES)
def test_pattern_propagation_matches_the_per_pair_oracle(monkeypatch, name):
    """delta_set propagates each distinct denominator pattern of a chunk
    once; its chunks, families and rows equal the per-pair oracle's bit for
    bit, and its families share fewer rows than there are families.  The
    smaller cases also check solve_intertwiner on the word matrix."""
    model, surf, word, _, _ = _family_case(name)
    chunks = _recorded_chunks(monkeypatch)
    got = delta_set(model, surf, word)
    _assert_chunks_match_the_oracle(chunks)
    assert got.codes is not None and len(got.rows) < len(got)
    v = evaluate_word(model, surf, word).matrix
    small = len(got) <= 6144
    if small:
        solved = solve_intertwiner(v)
    monkeypatch.setattr(solver, "_propagate_chunk", _per_pair)
    _assert_same_delta_sets(got, delta_set(model, surf, word))
    if small:
        _assert_same_delta_sets(solved, solve_intertwiner(v))


@pytest.mark.parametrize("name", [
    "ising sphere:sigma:8 s2",
    "fibonacci sphere:tau:7 s2",
    "fibonacci sphere:tau:7 s3",
    "zn_toric:2 torus s",
    "zn_toric:2 torus st",
])
def test_pattern_propagation_matches_the_scalar_oracle(monkeypatch, name):
    """Every searched pair's phases, walked one pair at a time in numpy
    scalars, are those of its pattern's propagation, bit for bit."""
    model, surf, word, _, _ = _family_case(name)
    v = evaluate_word(model, surf, word).matrix
    _, want = _oracle_solutions(monkeypatch, v, v)
    _assert_same_solutions(intertwiner_solutions(v), want)


def _random_phase_flat(n, seed):
    """A flat n x n unitary (the Fourier matrix) with random phases on its
    rows and columns: every entry, and so every pattern, is distinct."""
    rng = np.random.default_rng(seed)
    k = np.arange(n)
    dft = np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
    left, right = (np.exp(2j * np.pi * rng.random(n)) for _ in range(2))
    return left[:, None] * dft * right


@pytest.mark.parametrize("n, keyed", [(3, True), (4, False)])
def test_random_phase_patterns_are_all_distinct(monkeypatch, n, keyed):
    """On a flat matrix with random phases every feasible pair has its own
    pattern.  At n = 3 the keys (radix 9 over 9 edges) fit and each pattern
    is its own column; at n = 4 (radix 16 over 16 edges, 2^64) they do not,
    and the columns are the pairs themselves.  Either way the families are
    the per-pair oracle's and the scalar oracle's."""
    v = _random_phase_flat(n, n)
    for v_out in (v, _random_phase_flat(n, 10 + n) * np.exp(0.3j)):
        pairs, want = _oracle_solutions(monkeypatch, v, v_out)
        assert len(pairs) == math.factorial(n) ** 2
        chunks = _recorded_chunks(monkeypatch)
        _assert_same_solutions(intertwiner_solutions(v, v_out=v_out), want)
        _assert_chunks_match_the_oracle(chunks)
        (args, _), = chunks
        live, cols, inverse = _chunk_patterns(*args[2:5], v_out)
        assert len(live) == len(cols) == len(pairs)
        assert np.array_equal(np.sort(inverse), np.arange(len(pairs)))
        assert np.array_equal(cols, live) != keyed
        monkeypatch.undo()


def test_signed_zeros_are_different_patterns(monkeypatch):
    """A real 4 x 4 Hadamard matrix whose imaginary parts are +0.0 or -0.0
    at random has four entry codes, though two values: patterns that differ
    only in the sign of a zero are propagated apart, and the families, rows
    and signed-zero bits equal both oracles'."""
    rng = np.random.default_rng(3)
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    v = np.empty((4, 4), dtype=np.complex128)
    v.real, v.imag = np.kron(h, h), np.where(rng.random((4, 4)) < 0.5, -0.0, 0.0)
    assert np.signbit(v.imag).any() and not np.signbit(v.imag).all()
    codes = solver._entry_codes(v)
    assert len(np.unique(codes)) == 4 and len(np.unique(v)) == 2
    _, want = _oracle_solutions(monkeypatch, v, v)
    chunks = _recorded_chunks(monkeypatch)
    _assert_same_solutions(intertwiner_solutions(v), want)
    _assert_chunks_match_the_oracle(chunks)
    (args, _), = chunks
    pis, pips, forest = args[2:5]
    live, cols, _ = _chunk_patterns(pis, pips, forest, v)
    den = v[pips.T[forest.rows], pis.T[forest.cols]].T  # + 0.0 turns -0.0 into 0.0
    by_value = len(np.unique(solver.row_keys(den + 0.0)))
    assert len(cols) == len(np.unique(solver.row_keys(den))) > by_value
    got = solve_intertwiner(v)
    monkeypatch.setattr(solver, "_propagate_chunk", _per_pair)
    _assert_same_delta_sets(got, solve_intertwiner(v))


def test_zero_denominators_are_rejected_before_keying():
    """Every pair of permutations of a block-diagonal V with random phases,
    one of its zeros -0.0: the pairs that map a support entry off the blocks
    have a zero denominator and are dropped before their patterns are
    keyed, so the keys run over the 8 nonzero codes only, and the chunk's
    accepted pairs and phases are the per-pair oracle's."""
    v = np.zeros((4, 4), dtype=np.complex128)
    v[:2, :2], v[2:, 2:] = _random_phase_flat(2, 5), _random_phase_flat(2, 6)
    v[0, 2] = -0.0
    v_out = v
    forest = solver._constraint_forest(np.abs(v) > ZERO_THRESHOLD)
    perms = np.array(list(itertools.permutations(range(4))))
    pis, pips = (a.reshape(-1, 4) for a in np.broadcast_arrays(perms[:, None], perms[None]))
    codes = solver._entry_codes(v_out)
    assert (codes == -1).sum() == 8 and np.array_equal(np.unique(codes[codes >= 0]), np.arange(8))
    live, cols, inverse = _chunk_patterns(pis, pips, forest, v_out)
    den = v_out[pips.T[forest.rows], pis.T[forest.cols]]
    assert np.array_equal(live, np.flatnonzero((den != 0).all(axis=0)))
    assert len(live) == 32 and len(pis) == 576  # block to block, in each block's order
    assert len(cols) == len(live)  # distinct nonzero entries: one pattern per pair
    got = solver._propagate_chunk(v, v_out, pis, pips, forest, DEFAULT_TOL, CYCLE_TOL, codes)
    want = per_pair_propagate_chunk(v, v_out, pis, pips, forest, DEFAULT_TOL, CYCLE_TOL)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert _bits(np.ascontiguousarray(got[3][got[2]])) == _bits(np.ascontiguousarray(want[2]))


@pytest.mark.parametrize("rows", [1, 7, 100, 1000, 2047])
def test_pattern_codes_cross_chunk_boundaries(monkeypatch, rows):
    """With chunks of 1, 7, 100, 1,000 or 2,047 pairs (a chunk of at most
    ``_KEYED_MIN`` pairs, as the 3-pair last one at 2,047, is not keyed;
    the 44-pair last one at 100 is) each chunk's pattern indices are
    offset into the set's rows, and the families, rows and instantiated
    phases equal those of one chunk and of the per-pair oracle."""
    model, surf, word, _, _ = _family_case("ising sphere:sigma:8 s2")
    whole = delta_set(model, surf, word)
    monkeypatch.setattr(solver, "chunk_rows", lambda row_bytes: rows)
    chunks = _recorded_chunks(monkeypatch)
    got = delta_set(model, surf, word)
    assert len(chunks) > 1 and max(len(args[2]) for args, _ in chunks) == rows
    keyed = [args[7] is not None for args, _ in chunks]
    assert keyed == [len(args[2]) > solver._KEYED_MIN for args, _ in chunks]
    _assert_chunks_match_the_oracle(chunks)
    _assert_same_delta_sets(got, whole)
    assert len(got.rows) == sum(len(val) for _, (_, _, _, val) in chunks)
    monkeypatch.setattr(solver, "_propagate_chunk", _per_pair)
    _assert_same_delta_sets(got, delta_set(model, surf, word))


def test_small_chunks_are_not_keyed(monkeypatch):
    """A solve whose chunks hold at most ``_KEYED_MIN`` pairs codes no entry
    and keys no pattern: the identity candidate on the flat 2 x 2 and 3 x 3
    Fourier matrices makes 2 and 6 pairs."""
    def refuse(v_out):
        raise AssertionError("coded the entries of a small solve")

    monkeypatch.setattr(solver, "_entry_codes", refuse)
    for n in (2, 3):
        k = np.arange(n)
        dft = np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
        assert len(solve_intertwiner(dft, [tuple(k)])) == n


def test_pattern_keys_are_charged_before_they_are_built(monkeypatch):
    """The entry codes and the largest chunk's pattern keys are charged
    once, after the search and before any pair is propagated: a budget that
    ends just past the search refuses at "entry codes" with no pair
    propagated and no entry coded."""
    model, surf, word, _, _ = _family_case("ising sphere:sigma:8 s2")
    stages = []
    charge = Budget.charge
    monkeypatch.setattr(Budget, "charge", lambda self, stage, count, nbytes: stages.append(
        (stage, count, nbytes, self.spent)) or charge(self, stage, count, nbytes))
    delta_set(model, surf, word)
    (i, entry), = [(i, s) for i, s in enumerate(stages) if s[0] == "entry codes"]
    assert entry[1:3] == (64, 40)
    assert stages[i + 1][:3] == ("pattern keys", 4096, 8 * (16 + 4))
    assert [s[0] for s in stages[i + 2:]] == []
    propagated, coded = [], []
    real, entry_codes = solver._propagate_chunk, solver._entry_codes
    monkeypatch.setattr(solver, "_propagate_chunk", lambda *a: propagated.append(1) or real(*a))
    monkeypatch.setattr(solver, "_entry_codes", lambda v: coded.append(1) or entry_codes(v))
    monkeypatch.setattr(budget, "BUDGET_BYTES", entry[3] + 64 * 40 - 1)
    with pytest.raises(budget.SearchBudgetError, match=r"^entry codes: 64 x 40 bytes, "):
        delta_set(model, surf, word)
    assert propagated == [] and coded == []


def test_delta_set_rows_are_shared_through_codes():
    """The solver's families read their rows through pattern codes; a set
    built without codes (the closed-form torus set, a non-rigid join, any
    set made from a rel array) holds that array as its rows, one code per
    row; a rigid intersection keeps the first set's rows and picks codes."""
    from anyongates.abelian import torus_word_families

    model = load_builtin("zn_toric:2")
    a, b = (delta_set(model, torus_surface(), w) for w in ("s", "st"))
    assert a.n_free == b.n_free == 1 and len(a.rows) < len(a)
    assert a.codes.shape == (len(a),)
    assert _bits(a.rel) == _bits(a.rows[a.codes])
    inter = intersect_delta([a, b])
    assert inter.rows is a.rows
    want = reference_intersect_delta([a, b])
    assert _bits(inter.rel) == _bits([f.coset.rel for f in want])
    rel = np.exp(1j * np.arange(6.0)).reshape(3, 2)
    own = DeltaSet(np.tile([0, 1], (3, 1)), rel, (0, 0))
    closed = torus_word_families(model, "s")
    surf = sphere_surface(ISING, "sigma", 8)
    joined = intersect_delta([delta_set(ISING, surf, w) for w in ("s2", "s4")])
    assert own.rows is rel and joined.n_free > 1
    for ds in (own, closed, joined):
        assert np.array_equal(ds.codes, np.arange(len(ds)))
        assert _bits(ds.rel) == _bits(ds.rows)


def test_non_rigid_join_gathers_each_set_once(monkeypatch):
    """A non-rigid intersection of solver sets reads the second set's rows
    through its codes, one row per joined pair: ``rel``, a gather of every
    family's row, is read once for the first set and never per pair.  The
    families are the reference intersection's."""
    surf = sphere_surface(ISING, "sigma", 8)
    sets = [delta_set(ISING, surf, w) for w in ("s2", "s4")]
    assert all(len(s.rows) < len(s) for s in sets)
    reads = []
    rel = DeltaSet.rel
    monkeypatch.setattr(DeltaSet, "rel", property(lambda ds: reads.append(ds) or rel.fget(ds)))
    got = intersect_delta(sets)
    assert got.n_free > 1 and len(got) > 1
    assert reads == [sets[0]]
    monkeypatch.undo()
    want = reference_intersect_delta(sets)
    assert [f.coset.components for f in want] == [got.components] * len(got)
    assert _bits(got.rel) == _bits([f.coset.rel for f in want])


def test_denominator_index_is_taken_in_intp():
    """Pairs are held as uint8 up to n = 255: the flat index pip * n + pi
    is taken in intp, where a uint8 product would wrap from n = 17 on."""
    n = 20
    forest = solver._constraint_forest(np.ones((n, n), dtype=bool))
    rng = np.random.default_rng(7)
    pis, pips = (np.array([rng.permutation(n) for _ in range(3)], dtype=np.uint8) for _ in range(2))
    idx = solver._denominator_index(pis, pips, forest, n)
    want = [[int(pip[m]) * n + int(pi[l]) for pi, pip in zip(pis, pips)]
            for m, l in zip(forest.rows.tolist(), forest.cols.tolist())]
    assert idx.dtype == np.intp and idx.tolist() == want
    assert idx.max() >= 256


def _assert_solve_matches_the_per_pair_oracle(monkeypatch, v, perm_in, perm_out, keyed):
    """solve_intertwiner's chunks and set equal the per-pair oracle's, and
    its chunks are keyed into fewer columns than pairs, or not."""
    chunks = _recorded_chunks(monkeypatch)
    got = solve_intertwiner(v, perm_in, perm_out)
    _assert_chunks_match_the_oracle(chunks)
    assert len(got) and all(args[7] is not None for args, _ in chunks)
    patterns = [_chunk_patterns(*args[2:5], args[1]) for args, _ in chunks]
    assert any(len(cols) < len(live) for live, cols, _ in patterns) == keyed
    monkeypatch.setattr(solver, "_propagate_chunk", _per_pair)
    _assert_same_delta_sets(got, solve_intertwiner(v, perm_in, perm_out))
    return got


def test_patterns_past_uint8_indices_match_the_per_pair_oracle(monkeypatch):
    """At n = 18 and 17, beyond which pip * n passes 255, pairs held as
    uint8 read their own denominators.  Nine real 2 x 2 Hadamard blocks
    (two nonzero entry codes over 36 edges: keys fit) with the last three
    blocks permuted in perm_in and perm_out wildcard give 3,072 pairs in
    one keyed chunk; the flat 17 x 17 Fourier matrix with random row and
    column phases (289 codes: keys do not fit), with perm_in l -> l / a and
    perm_out m -> a m for four units a, gives 16 pairs, the four with
    matching a accepted.  Both equal the per-pair oracle bit for bit."""
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    v = np.kron(np.eye(9), h).astype(np.complex128)
    head = list(range(12))
    blocks = [head + [i for b in order for i in (2 * b, 2 * b + 1)]
              for order in itertools.permutations(range(6, 9))]
    got = _assert_solve_matches_the_per_pair_oracle(monkeypatch, v, blocks, None, True)
    assert len(got) == 6 * 2**9 and np.array_equal(got.perms, np.repeat(blocks, 2**9, axis=0))
    monkeypatch.undo()
    n = 17
    v = _random_phase_flat(n, 17)
    units = [1, 3, 5, 16]
    perm_in = [[l * pow(a, -1, n) % n for l in range(n)] for a in units]
    perm_out = [[a * m % n for m in range(n)] for a in units]
    got = _assert_solve_matches_the_per_pair_oracle(monkeypatch, v, perm_in, perm_out, False)
    assert got.perms.tolist() == perm_in
