import itertools

import numpy as np
import pytest

from anyongates import (
    MonomialMatrix,
    PhaseCoset,
    delta_set,
    evaluate_word,
    intersect_delta,
    is_monomial,
    load_builtin,
    monomial_from_matrix,
    solve_intertwiner,
    sphere_surface,
    torus_surface,
)
from anyongates import solver
from anyongates.solver import (
    IntertwinerSolution,
    free_coset,
    intertwiner_residual,
    nearest_monomial,
)
from anyongates.tolerances import CYCLE_TOL, DEFAULT_TOL, ZERO_THRESHOLD

from oracles import grid_intertwiner_solutions, propagate_phases_scalar

FIB = load_builtin("fibonacci")
ISING = load_builtin("ising")


def random_unitary(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


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
    assert gate.is_identity_perm() is False
    assert MonomialMatrix(perm=(0, 1), phases=(1, 1)).is_identity_perm()


def test_nearest_monomial_recovers_noisy_input():
    rng = np.random.default_rng(5)
    gate = MonomialMatrix(perm=(1, 2, 0), phases=(1j, 1.0, -1j))
    noisy = gate.matrix() + 0.01 * rng.normal(size=(3, 3))
    back, resid = nearest_monomial(noisy)
    assert back.perm == gate.perm
    assert resid < 0.05


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
    assert a.intersect(b).same_as(a)
    assert a.intersect(c) is None


def test_coset_intersect_free_with_rigid():
    rigid = PhaseCoset(components=(0, 0, 0), rel=(1.0, 1j, -1.0))
    got = free_coset(3).intersect(rigid)
    assert got is not None
    assert got.n_free == 1
    assert got.same_as(rigid)


def test_coset_partial_intersection():
    # two 2-free cosets on 3 coordinates joining different pairs
    a = PhaseCoset(components=(0, 0, 1), rel=(1.0, 1.0, 1.0))
    b = PhaseCoset(components=(0, 1, 1), rel=(1.0, 1.0, 1.0))
    got = a.intersect(b)
    assert got is not None
    assert got.n_free == 1
    assert got.contains(np.array([1j, 1j, 1j]))
    assert not got.contains(np.array([1.0, 1.0, -1.0]))


def test_coset_subset():
    rigid = PhaseCoset(components=(0, 0), rel=(1.0, 1j))
    assert rigid.is_subset_of(free_coset(2))
    assert not free_coset(2).is_subset_of(rigid)


def test_coset_instantiate():
    c = PhaseCoset(components=(0, 1, 0), rel=(1.0, 1.0, -1.0))
    vals = c.instantiate(np.array([1j, -1.0]))
    assert np.abs(vals - np.array([1j, -1.0, -1j])).max() < 1e-12


# ---------------------------------------------------------------------------
# Intertwiner solving


def test_identity_word_leaves_everything_free():
    sols = solve_intertwiner(np.eye(3, dtype=complex))
    assert len(sols) == 6
    for sol in sols:
        assert sol.perm_in == sol.perm_out
        assert sol.gate_coset().n_free == 3


def test_fibonacci_s_families():
    v = evaluate_word(FIB, torus_surface(), "s").matrix
    sols = solve_intertwiner(v)
    by_perm = {sol.perm_in: sol for sol in sols}
    assert set(by_perm) == {(0, 1), (1, 0)}
    ident = by_perm[(0, 1)]
    assert ident.gate_coset().n_free == 1
    assert ident.gate_coset().contains(np.array([1.0, 1.0]))
    swap = by_perm[(1, 0)]
    assert swap.gate_coset().contains(np.array([1.0, -1.0]))


def test_fibonacci_st_swap_ratio():
    v = evaluate_word(FIB, torus_surface(), "st").matrix
    sols = solve_intertwiner(v)
    swap = next(s for s in sols if s.perm_in == (1, 0))
    coset = swap.gate_coset()
    assert coset.n_free == 1
    ratio = coset.rel[1] / coset.rel[0]
    assert abs(ratio - np.exp(0.6j * np.pi)) < 1e-9


def test_instantiated_families_satisfy_equation():
    rng = np.random.default_rng(11)
    for word in ("s", "t", "st", "ts"):
        for model in (FIB, ISING):
            v = evaluate_word(model, torus_surface(), word).matrix
            for sol in solve_intertwiner(v):
                for _ in range(25):
                    free = np.exp(2j * np.pi * rng.random(sol.n_components))
                    res = intertwiner_residual(v, sol, free)
                    assert res < 1e-8


def test_composed_gate_is_monomial_on_word():
    v = evaluate_word(ISING, torus_surface(), "st").matrix
    for sol in solve_intertwiner(v):
        g = sol.gate().matrix()
        assert is_monomial(v @ g @ v.conj().T)


def test_solver_matches_grid_oracle_small():
    """Dual route: graph propagation vs brute-force grid scan, dim <= 3."""
    cases = [
        evaluate_word(FIB, torus_surface(), "s").matrix,
        evaluate_word(FIB, torus_surface(), "st").matrix,
        evaluate_word(ISING, torus_surface(), "st").matrix,
    ]
    for v in cases:
        impl = solve_intertwiner(v)
        oracle = grid_intertwiner_solutions(v)
        assert {pi for pi, _ in oracle} == {s.perm_in for s in impl}
        for pi, d in oracle:
            owners = [
                s for s in impl if s.perm_in == pi and s.gate_coset().contains(d)
            ]
            assert owners, (pi, d)
        # every family is hit by at least one oracle point
        for s in impl:
            assert any(
                pi == s.perm_in and s.gate_coset().contains(d) for pi, d in oracle
            )


def test_restricting_perm_in():
    v = evaluate_word(FIB, torus_surface(), "s").matrix
    sols = solve_intertwiner(v, perm_in=[(0, 1)])
    assert [s.perm_in for s in sols] == [(0, 1)]


def test_fixed_perm_out():
    v = evaluate_word(FIB, torus_surface(), "s").matrix
    sols = solve_intertwiner(v, perm_in=[(1, 0)], perm_out=[(1, 0)])
    assert len(sols) == 1
    assert sols[0].perm_out == (1, 0)


def test_restricting_perm_out_prevents_matching_blowup():
    # a word matrix with equal-modulus entries everywhere is compatible with
    # every output matching pattern, so the candidate list must bound both
    # sides of the equation
    from anyongates.abelian import affine_permutations

    model = load_builtin("zn_toric:3")
    affs = affine_permutations(model)[:40]
    with pytest.raises(ValueError, match="matchings"):
        delta_set(model, torus_surface(), "stst", restrict_perms=affs)
    ds = delta_set(model, torus_surface(), "stst",
                   restrict_perms=affs, restrict_perms_out=affs)
    assert ds.families
    aff_set = set(affs)
    for fam in ds.families:
        assert fam.perm in aff_set


def test_wildcard_guard_above_dim_8():
    v = np.eye(9, dtype=complex)
    with pytest.raises(ValueError):
        solve_intertwiner(v)
    # fixed perms stay fine at larger dimension
    sols = solve_intertwiner(v, perm_in=[tuple(range(9))])
    assert len(sols) == 1


def test_non_unitary_input_rejected():
    with pytest.raises(ValueError):
        solve_intertwiner(np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex))


def test_generic_unitary_only_global_phase():
    """A structureless unitary admits nothing beyond lambda * identity."""
    v = random_unitary(3, seed=2)
    sols = solve_intertwiner(v)
    assert len(sols) == 1
    sol = sols[0]
    assert sol.perm_in == (0, 1, 2) and sol.perm_out == (0, 1, 2)
    coset = sol.gate_coset()
    assert coset.n_free == 1
    assert coset.contains(np.array([1.0, 1.0, 1.0]))


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
    assert len(ds.families) == 2
    for fam in ds.families:
        assert fam.perm_out_by_word["s"] in (fam.perm, tuple(fam.perm))


def test_intersect_delta_pins_fibonacci_to_identity():
    sets = [delta_set(FIB, torus_surface(), w) for w in ("s", "st")]
    inter = intersect_delta(sets)
    assert len(inter.families) == 1
    fam = inter.families[0]
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
        for pi, pips in candidate_pairs(*args):
            seen.extend((pi, tuple(pip)) for pip in pips.tolist())
            yield pi, pips

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
        ca, cb = a.gate_coset(), b.gate_coset()
        assert ca.components == cb.components
        assert _bits(ca.rel) == _bits(cb.rel)


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
        got = solve_intertwiner(v, perm_in, perm_out, v_out=v_out)
        pairs, want = _oracle_solutions(monkeypatch, v, v_out, perm_in, perm_out)
        _assert_same_solutions(got, want)
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
        # the same with the ratio bound switched off: only the zero check
        # rejects, every pair now passing the modulus filter
        (v, eye, np.inf, 0),
        # tiny entries of equal size within tol but a ratio of modulus 1/2
        (v, _near_identity(1e-9), DEFAULT_TOL, 0),
        # the same tiny entries with equal modulus and another phase pass,
        # through the identity and the swap
        (v, _near_identity(5e-10 * np.exp(0.3j)), DEFAULT_TOL, 2),
    ]
    for v, v_out, tol, n_sols in controls:
        got = solve_intertwiner(v, v_out=v_out, tol=tol)
        pairs, want = _oracle_solutions(monkeypatch, v, v_out, tol=tol)
        assert pairs
        _assert_same_solutions(got, want)
        assert len(got) == n_sols
    # d_1 = (V[0, 1] / V_out[0, 1]) d'_0 = exp(-0.3i) d_0 for the identity
    assert np.angle(got[0].relative_phases[1]) == pytest.approx(-0.3)
