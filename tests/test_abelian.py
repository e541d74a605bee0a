import gc
import hashlib
import itertools
import re
import weakref

import numpy as np
import pytest

from anyongates import (
    MonomialMatrix,
    SearchBudgetError,
    abelian,
    classify_torus,
    evaluate_word,
    load_builtin,
    models,
    torus_surface,
)
from anyongates.abelian import (
    affine_permutations,
    automorphisms,
    characters,
    clifford_star_batch,
    clifford_star_by_automorphism,
    fusion_table,
    group_coordinates,
    is_abelian,
    lattice_commutation_check,
    string_operator_matrices,
    string_operators,
    torus_word_families,
    word_is_unconstraining,
)
from anyongates.classify import _contains_logical_paulis
from anyongates.solver import delta_set, intersect_delta
from anyongates.tolerances import LATTICE_TOL

from oracles import (
    LatticeOperator,
    check_lambda_monomial,
    clifford_star_membership_dense,
    commutation_phase_exponent,
    compose_lattice_operators,
    coset_same_as,
    dense_lattice_operator,
    dense_torus_word_families,
    dyon_loop,
    eq_consistency_residual,
    families,
    induced_cycle_permutations,
    lambda_matrix,
    membership_by_search,
    monomial_from_matrix,
    pauli_element_orders_divide_exponent,
    pauli_group_orders,
    reference_affine_permutations,
    reference_automorphisms,
    reference_clifford_star_batch,
    reference_lattice_check,
    reference_string_operator_matrices,
    reference_torus_word_families,
)

Z2 = load_builtin("zn_toric:2")
Z3 = load_builtin("zn_toric:3")
Z4 = load_builtin("zn_toric:4")


def test_is_abelian():
    assert is_abelian(Z2) and is_abelian(Z3)
    assert not is_abelian(load_builtin("fibonacci"))
    assert not is_abelian(load_builtin("ising"))


# ---------------------------------------------------------------------------
# Group structure


@pytest.mark.parametrize(
    "model,orders", [(Z2, (2, 2)), (Z3, (3, 3)), (Z4, (4, 4))]
)
def test_group_coordinates(model, orders):
    gc = group_coordinates(model)
    assert tuple(sorted(gc.orders, reverse=True)) == orders
    assert len(set(gc.coords)) == model.n_labels
    assert gc.exponent == orders[0]


def test_group_coordinates_reconstruct_product():
    gc = group_coordinates(Z3)
    # coords must invert the generator-product map
    from anyongates.abelian import fusion_table

    mul = fusion_table(Z3)
    for idx, exps in enumerate(gc.coords):
        acc = 0
        for g, e in zip(gc.generators, exps):
            for _ in range(e):
                acc = int(mul[acc, g])
        assert acc == idx


@pytest.mark.parametrize("model,count", [(Z2, 6), (Z3, 48), (Z4, 96)])
def test_automorphism_counts(model, count):
    auts = list(map(tuple, automorphisms(model).tolist()))
    assert len(auts) == count
    assert len(set(auts)) == count
    ident = tuple(range(model.n_labels))
    assert ident in auts


@pytest.mark.parametrize("model,count", [(Z2, 24), (Z3, 432), (Z4, 1536)])
def test_affine_counts(model, count):
    affs = list(map(tuple, affine_permutations(model).tolist()))
    assert len(affs) == count
    assert len(set(affs)) == count


def _affine_set(model):
    return set(map(tuple, affine_permutations(model).tolist()))


def test_affine_perms_respect_group_law():
    from anyongates.abelian import fusion_table

    mul = fusion_table(Z3)
    for perm in affine_permutations(Z3)[:50]:
        base = perm[0]
        # x -> perm(x) * perm(0)^-1 must be an automorphism
        inv_base = next(c for c in range(9) if mul[base, c] == 0)
        for x in range(9):
            for y in range(9):
                lhs = mul[perm[mul[x, y]], inv_base]
                rhs = mul[mul[perm[x], inv_base], mul[perm[y], inv_base]]
                assert lhs == rhs


@pytest.mark.parametrize(
    "name", ["zn_toric:2", "zn_toric:3", "zn_toric:4", "zn_toric:5", "dg_abelian:2,3"]
)
def test_exponent_coordinate_maps_equal_the_fusion_power_reference(name):
    model = load_builtin(name)
    assert automorphisms(model).tolist() == list(map(list, reference_automorphisms(model)))
    assert affine_permutations(model).tolist() == list(
        map(list, reference_affine_permutations(model))
    )


def test_dg_abelian_2_2_affine_maps():
    """Z2^4: 16 translations times |GL(4, 2)| = 20,160 automorphisms, sorted,
    every row c + alpha(x) with alpha a bijective homomorphism."""
    model = load_builtin("dg_abelian:2,2")
    mul = fusion_table(model)
    affs = affine_permutations(model)
    assert affs.shape == (322_560, 16)
    later = affs[1:] != affs[:-1]
    first = later.argmax(axis=1)  # first column where consecutive rows differ
    rows = np.arange(len(first))
    assert later.any(axis=1).all()
    assert (affs[rows, first] < affs[rows + 1, first]).all()
    # alpha = -c + row: c is the row's image of the vacuum, and every label
    # is its own inverse in Z2^4
    alpha = mul[affs[:, :1], affs]
    assert (np.sort(alpha, axis=1) == np.arange(16)).all() and (alpha[:, 0] == 0).all()
    for g in group_coordinates(model).generators:
        # alpha(x g) = alpha(x) alpha(g) for every generator g
        assert (alpha[:, mul[:, g]] == mul[alpha, alpha[:, g : g + 1]]).all()


def test_group_helpers_follow_a_mutated_fusion_tensor():
    # the cached helpers must read the model's current fusion data, not
    # answers remembered for the same model object
    model = load_builtin("zn_toric:2")
    assert group_coordinates(model).orders == (2, 2)
    assert len(automorphisms(model)) == 6
    assert len(affine_permutations(model)) == 24
    cyclic = np.zeros_like(model.fusion)
    for a, b in itertools.product(range(4), repeat=2):
        cyclic[a, b, (a + b) % 4] = 1
    model.fusion[...] = cyclic  # Z4 instead of Z2 x Z2; S still abelian
    want = np.add.outer(np.arange(4), np.arange(4)) % 4
    assert np.array_equal(fusion_table(model), want)
    assert group_coordinates(model).orders == (4,)
    assert len(automorphisms(model)) == 2
    assert len(affine_permutations(model)) == 8


def test_string_operators_follow_a_mutated_s_matrix():
    model = load_builtin("zn_toric:2")
    before, _ = string_operator_matrices(model)
    model.smatrix *= np.exp(0.3j)
    f1, f2 = string_operator_matrices(model)
    want = np.real(1.0 / model.smatrix[0, 0]) * model.smatrix
    assert np.abs(f1 - before).max() > 0.1
    assert np.abs(np.diagonal(f1, axis1=1, axis2=2) - want).max() < 1e-12
    s = model.smatrix
    assert np.abs(f2 - np.einsum("xy,ayz,wz->axw", s, f1, s.conj())).max() < 1e-12


@pytest.mark.parametrize("name", [
    "fibonacci", "ising", "zn_toric:2", "zn_toric:3", "zn_toric:4", "zn_toric:5", "zn_toric:6",
    "dg_abelian:2,2", "dg_abelian:2,3",
])
def test_string_operators_equal_the_n5_sum_byte_for_byte(name):
    model = load_builtin(name)
    got = string_operator_matrices(model)
    want = reference_string_operator_matrices(model)
    assert [f.tobytes() for f in got] == [f.tobytes() for f in want]


def test_classify_torus_lets_the_model_go():
    model = load_builtin("zn_toric:2")
    ref = weakref.ref(model)
    assert classify_torus(model).verdict == "clifford_star_subgroup"
    del model
    gc.collect()
    assert ref() is None


def test_characters_multiplicative():
    from anyongates.abelian import fusion_table

    for model in (Z2, Z3, Z4):
        chi = characters(model)
        mul = fusion_table(model)
        n = model.n_labels
        assert np.abs(np.abs(chi) - 1).max() < 1e-9
        for b in range(n):
            for x in range(n):
                for y in range(n):
                    assert abs(chi[b, mul[x, y]] - chi[b, x] * chi[b, y]) < 1e-9


# ---------------------------------------------------------------------------
# Closed-form torus families


def test_z2_families_match_generic_solver():
    """Dual route at qudit dimension 4: character form vs wildcard scan."""
    for word in ("s", "st"):
        closed = families(torus_word_families(Z2, word))
        generic = families(delta_set(Z2, torus_surface(), word))
        assert len(closed) == len(generic) == 96
        for fc in closed:
            assert any(
                fc.perm == fg.perm and coset_same_as(fc.coset, fg.coset) for fg in generic
            )
        for fg in generic:
            assert any(
                fc.perm == fg.perm and coset_same_as(fc.coset, fg.coset) for fc in closed
            )


def _pairwise(model, words):
    sets = [torus_word_families(model, w) for w in words]
    return families(intersect_delta(sets))


@pytest.mark.parametrize("words", [("s", "st"), ("st", "s", "stt")])
@pytest.mark.parametrize("model", [Z2, Z3], ids=["z2", "z3"])
def test_joint_families_match_pairwise_intersection(model, words):
    joint = families(torus_word_families(model, list(words)))
    pairwise = _pairwise(model, words)
    assert len(joint) == len(pairwise) > 0
    assert [f.perm for f in joint] == [f.perm for f in pairwise]
    for fj, fp in zip(joint, pairwise):
        assert coset_same_as(fj.coset, fp.coset)


def test_joint_families_match_wildcard_intersection():
    joint = families(torus_word_families(Z2, ["s", "st"]))
    generic = families(intersect_delta(
        [delta_set(Z2, torus_surface(), w) for w in ("s", "st")]
    ))
    assert len(joint) == len(generic) == 96
    for fj in joint:
        assert sum(
            fj.perm == fg.perm and coset_same_as(fj.coset, fg.coset) for fg in generic
        ) == 1


@pytest.mark.parametrize("angle", [0.3, 1e-4])
def test_verification_rejects_a_wrong_closed_form(monkeypatch, angle):
    # a small skew leaves every unit entry within the modulus bound but
    # spreads weight above the zero threshold
    import anyongates.abelian as ab

    def skewed(model):  # one label's column is no longer multiplicative
        chi = np.sqrt(model.n_labels) * model.smatrix
        chi[:, 1] *= np.exp(1j * angle)
        return chi

    monkeypatch.setattr(ab, "characters", skewed)
    with pytest.raises(RuntimeError, match="failed verification"):
        torus_word_families(Z3, ["s", "st"])


def test_verification_rejects_a_non_affine_permutation(monkeypatch):
    # the permutation factor V Pi V^dag of the word s is monomial only for
    # affine Pi, so one slipped-in transposition must fail its check
    import anyongates.abelian as ab

    affine = ab.affine_permutations(Z3)
    swap = (0, 1, 2, 3, 4, 5, 6, 8, 7)
    assert swap not in _affine_set(Z3)
    monkeypatch.setattr(ab, "affine_permutations", lambda model: np.vstack([affine, swap]))
    with pytest.raises(RuntimeError, match=r"pi=\(0, 1, .*, 8, 7\)\) failed verification"):
        torus_word_families(Z3, ["s", "st"])


@pytest.mark.parametrize("words", ["s", ["s", "st"], ["st", "s", "stt"]], ids=str)
@pytest.mark.parametrize("model", [Z2, Z3, Z4], ids=["z2", "z3", "z4"])
def test_factored_families_equal_the_dense_oracle(model, words):
    got = families(torus_word_families(model, words))
    want = dense_torus_word_families(model, words)
    assert len(got) == len(want) > 0
    assert [f.perm for f in got] == [f.perm for f in want]
    assert [f.coset.rel for f in got] == [f.coset.rel for f in want]
    assert all(f.coset.components == (0,) * model.n_labels for f in got)


ORACLE_MODELS = ["zn_toric:2", "zn_toric:3", "zn_toric:4", "zn_toric:5", "dg_abelian:2,3"]


@pytest.mark.parametrize("words", ["s", ["s", "st"], ["st", "s", "stt"]], ids=str)
@pytest.mark.parametrize("name", ORACLE_MODELS)
def test_generator_factors_equal_the_per_map_reference(name, words):
    """One factor and one gap test per translation and per automorphism
    list the families of one factor per affine map and one gap test per
    character: the same permutations and the same rel bits.  The
    set holds its rows in the narrowest index type, so the reference's
    rows are cast to it before they are hashed."""
    model = load_builtin(name)
    fams = torus_word_families(model, words)
    assert len(fams) > 0 and fams.components == (0,) * model.n_labels
    # the reference's rows are hashed chunk by chunk: dg_abelian:2,3's word
    # s lists 373,248 families
    got = _raw_bits([(fams.perms, fams.rel)])
    del fams
    small = np.min_scalar_type(model.n_labels)
    chunks = ((p.astype(small), r) for p, r in reference_torus_word_families(model, words))
    assert got == _raw_bits(chunks)


def _raw_bits(chunks):
    """Row count, dtypes, and the sha256 of the perms' and rel's bytes."""
    rows, dtypes, perms, rel = 0, set(), hashlib.sha256(), hashlib.sha256()
    for p, r in chunks:
        rows += len(p)
        dtypes.add((p.dtype.str, r.dtype.str))
        perms.update(np.ascontiguousarray(p))
        rel.update(np.ascontiguousarray(r))
    return rows, dtypes, perms.hexdigest(), rel.hexdigest()


def test_family_counts_scale_with_group():
    assert len(torus_word_families(Z2, "s")) == 24 * 4
    assert len(torus_word_families(Z3, "s")) == 432 * 9


def test_families_satisfy_delta_condition():
    v = evaluate_word(Z3, torus_surface(), "st").matrix
    rng = np.random.default_rng(2)
    fams = families(torus_word_families(Z3, "st"))
    for fam in [fams[i] for i in rng.choice(len(fams), size=12, replace=False)]:
        d = fam.coset.instantiate()
        g = MonomialMatrix(perm=fam.perm, phases=tuple(d)).matrix()
        w = v @ g @ v.conj().T
        from anyongates import is_monomial

        assert is_monomial(w)


def test_unconstraining_words():
    assert word_is_unconstraining(Z2, "t")
    assert word_is_unconstraining(Z2, "tt")
    assert not word_is_unconstraining(Z2, "s")
    assert not word_is_unconstraining(Z2, "st")


# ---------------------------------------------------------------------------
# String operators and the Pauli group


def _column_reads(model):
    """Each string operator read one column at a time, F_a(C1) before
    F_a(C2); the first ValueError of those reads instead, if any."""
    f1, f2 = string_operator_matrices(model)
    try:
        return [monomial_from_matrix(f) for f in (*f1, *f2)]
    except ValueError as exc:
        return exc


@pytest.mark.parametrize("name", ["zn_toric:2", "zn_toric:3", "zn_toric:4", "dg_abelian:2,2",
                                  "dg_abelian:2,3"])
def test_string_operators_read_in_one_pass_like_column_by_column(name):
    """Bit-equal permutations and phases, read once per S matrix."""
    model = load_builtin(name)
    perms, phases = string_operators(model)
    gates = _column_reads(model)
    assert perms.shape == phases.shape == (2 * model.n_labels, model.n_labels)
    assert perms.tolist() == [list(g.perm) for g in gates]
    assert phases.tolist() == [list(g.phases) for g in gates]
    assert string_operators(model)[0] is perms


@pytest.mark.parametrize("name", ["ising", "fibonacci", "zn_toric:3"])
def test_string_operators_refuse_what_the_column_reads_refuse(name):
    """A zero column (ising's S_{sigma sigma}) or an entry of modulus d_x
    raises the column read's first ValueError; so does a scaled S."""
    model = load_builtin(name)
    if name == "zn_toric:3":
        model.smatrix[1:, 1:] *= 1.5
    want = _column_reads(model)
    assert isinstance(want, ValueError)
    with pytest.raises(ValueError) as got:
        string_operators(model)
    assert str(got.value) == str(want)
    with pytest.raises(ValueError, match=re.escape(str(want))):
        _contains_logical_paulis(model, None)
    with pytest.raises(ValueError, match=re.escape(str(want))):
        clifford_star_batch(model, [list(range(model.n_labels))], [[1.0] * model.n_labels])


def test_string_operator_commutation_relation():
    """Crossing loops reproduce D S_{ab}, and pin which cycle is which."""
    for model in (Z2, Z3, Z4):
        f1, f2 = string_operator_matrices(model)
        dtot = np.real(1.0 / model.smatrix[0, 0])
        n = model.n_labels
        eye = np.eye(n)
        worst = 0.0
        for a in range(n):
            for b in range(n):
                lhs = f2[model.dual[b]] @ f1[model.dual[a]] @ f2[b] @ f1[a]
                worst = max(
                    worst, np.abs(lhs - dtot * model.smatrix[a, b] * eye).max()
                )
        assert worst < 1e-9
        # the opposite cycle assignment must fail once omega is complex
        if model.n_labels > 4:
            bad = 0.0
            for a in range(n):
                for b in range(n):
                    lhs = f1[model.dual[b]] @ f2[model.dual[a]] @ f1[b] @ f2[a]
                    bad = max(
                        bad, np.abs(lhs - dtot * model.smatrix[a, b] * eye).max()
                    )
            assert bad > 0.1


def test_string_operators_multiply_like_fusion():
    from anyongates.abelian import fusion_table

    mul = fusion_table(Z3)
    f1, f2 = string_operator_matrices(Z3)
    for f in (f1, f2):
        for a in range(9):
            for b in range(9):
                assert np.abs(f[a] @ f[b] - f[mul[a, b]]).max() < 1e-9


@pytest.mark.parametrize(
    "model,small,full", [(Z2, 8, 32), (Z3, 27, 243), (Z4, 64, 1024)]
)
def test_pauli_group_orders(model, small, full):
    assert pauli_group_orders(model) == (small, full)


def test_pauli_element_orders(model=Z4):
    assert pauli_element_orders_divide_exponent(model)
    assert pauli_element_orders_divide_exponent(Z3)


# ---------------------------------------------------------------------------
# Membership in the monomial Clifford analogue


def _as_gate(mat):
    return monomial_from_matrix(mat)


def _membership(model, gate):
    """clifford_star_batch for one gate: (member, member with root phases)."""
    member, roots = clifford_star_batch(model, [gate.perm], [gate.phases])
    return bool(member[0]), bool(roots[0])


def test_string_gates_are_members():
    f1, f2 = string_operator_matrices(Z2)
    for a in range(4):
        ok, roots = _membership(Z2, _as_gate(f1[a]))
        assert ok and roots
        ok, roots = _membership(Z2, _as_gate(f2[a] @ f1[a]))
        assert ok and roots


def test_membership_matches_search_oracle():
    f1, f2 = string_operator_matrices(Z2)
    gates = [f1[1], f2[2] @ f1[3], np.eye(4, dtype=complex)]
    for g in gates:
        ok, _ = _membership(Z2, _as_gate(g))
        assert ok == membership_by_search(Z2, g)


def test_irrational_diagonal_is_not_member():
    d = np.diag(np.exp(1j * np.array([0.0, 0.0, 0.0, 0.7])))
    gate = _as_gate(d)
    ok, _ = _membership(Z2, gate)
    assert not ok
    assert not membership_by_search(Z2, d)


def test_family_gates_from_classification_are_members():
    fams = families(torus_word_families(Z2, "s"))
    rng = np.random.default_rng(7)
    for fam in [fams[i] for i in rng.choice(len(fams), size=8, replace=False)]:
        gate = MonomialMatrix(perm=fam.perm, phases=tuple(fam.coset.instantiate()))
        ok, roots = _membership(Z2, gate)
        assert ok
        assert roots


def _negative_controls(model):
    """Gates outside the Clifford-star set, as (perm, phases) pairs.

    An irrational diagonal; a class gate with one phase perturbed by 1e-3
    (no coefficient has modulus 1) and by 1e-4 (the top one has modulus 1
    within 1e-8 but others exceed it); half the identity, whose one
    coefficient is not of modulus 1; and, where one exists (every
    permutation of Z2 x Z2 is affine), a non-affine permutation.
    """
    n = model.n_labels
    ident = tuple(range(n))
    irrational = np.ones(n, dtype=complex)
    irrational[-1] = np.exp(0.7j)
    fam = families(torus_word_families(model, ["s", "st"]))[n + 1]
    controls = [(ident, irrational), (ident, np.full(n, 0.5, dtype=complex))]
    for eps in (1e-3, 1e-4):
        perturbed = fam.coset.instantiate()
        perturbed[1] *= np.exp(1j * eps)
        controls.append((fam.perm, perturbed))
    swap = (0, 2, 1) + tuple(range(3, n))
    if swap not in _affine_set(model):
        controls.append((swap, np.ones(n, dtype=complex)))
    return controls


def _monomial(perm, phases):
    return MonomialMatrix(perm=tuple(perm), phases=tuple(phases)).matrix()


def test_batched_clifford_matches_search_on_every_z2_class():
    fams = families(torus_word_families(Z2, ["s", "st"]))
    gates = [(f.perm, f.coset.instantiate()) for f in fams] + _negative_controls(Z2)
    member, _ = clifford_star_batch(Z2, *zip(*gates))
    assert member[: len(fams)].all() and not member[len(fams) :].any()
    for (perm, phases), ok in zip(gates, member):
        assert ok == membership_by_search(Z2, _monomial(perm, phases))


def test_batched_clifford_matches_dense_oracle_on_every_z3_class():
    fams = families(torus_word_families(Z3, ["s", "st"]))
    assert len(fams) == 324
    gates = [(f.perm, f.coset.instantiate()) for f in fams] + _negative_controls(Z3)
    member, roots = clifford_star_batch(Z3, *zip(*gates))
    assert member[: len(fams)].all() and not member[len(fams) :].any()
    for (perm, phases), ok, root in zip(gates, member, roots):
        assert (ok, root) == clifford_star_membership_dense(
            Z3, _monomial(perm, phases)
        )


def test_batched_clifford_matches_dense_oracle_on_quarter_phase_gates():
    """Every Z2 monomial gate with phases in {1, i, -1, -i}, d_0 = 1.

    The set holds members, members whose string phases are no exponent
    roots (U X U^dag = i X Z), and non-members, all in one batch.
    """
    gates = _quarter_phase_gates()
    member, roots = clifford_star_batch(Z2, *zip(*gates))
    assert 0 < roots.sum() < member.sum() < len(gates)
    for (perm, phases), ok, root in zip(gates, member, roots):
        assert (ok, root) == clifford_star_membership_dense(
            Z2, _monomial(perm, phases)
        )


def _quarter_phase_gates():
    """Every Z2 monomial gate with phases in {1, i, -1, -i}, d_0 = 1."""
    return [
        (perm, np.array(phases))
        for perm in itertools.permutations(range(4))
        for phases in itertools.product((1, 1j, -1, -1j), repeat=4)
        if phases[0] == 1
    ]


@pytest.mark.parametrize("model", [Z2, Z3, Z4], ids=["z2", "z3", "z4"])
def test_clifford_batch_matches_the_per_generator_reference(model):
    """C1 once per distinct permutation and C2 in blocks give the same two
    booleans per gate as one pass per generator: on every class, the
    negative controls and, for Z2, the quarter-phase set."""
    fams = torus_word_families(model, ["s", "st"])
    gates = list(zip(map(tuple, fams.perms.tolist()), fams.instantiate_families()))
    gates += _negative_controls(model)
    if model is Z2:
        gates += _quarter_phase_gates()
    got = clifford_star_batch(model, *zip(*gates))
    want = reference_clifford_star_batch(model, *zip(*gates))
    assert got[0][: len(fams)].all()
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("name", ["zn_toric:5", "dg_abelian:2,3"])
def test_clifford_batch_matches_the_reference_on_larger_groups(name):
    """The same on every class of zn_toric:5 (one generator order, 5) and
    dg_abelian:2,3 (two generators of order 6) with the negative
    controls."""
    model = load_builtin(name)
    fams = torus_word_families(model, ["s", "st"])
    gates = list(zip(map(tuple, fams.perms.tolist()), fams.instantiate_families()))
    gates += _negative_controls(model)
    got = clifford_star_batch(model, *zip(*gates))
    want = reference_clifford_star_batch(model, *zip(*gates))
    assert got[0][: len(fams)].all() and not got[0][len(fams) :].any()
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def _class_gates(model):
    fams = torus_word_families(model, ["s", "st"])
    return fams.perms, fams.instantiate_families()


@pytest.mark.parametrize("eps", [1e-11, 1e-9, 1e-7, 1e-5])
@pytest.mark.parametrize("model", [Z2, Z3, Z4], ids=["z2", "z3", "z4"])
def test_clifford_batch_matches_the_reference_on_a_perturbed_phase(model, eps):
    """Every class gate with one phase turned by eps: the generator strings
    give the two booleans of every string, on both sides of CLIFFORD_TOL
    (below 1e-7 every gate stays a member, at 1e-5 none does)."""
    perms, phases = _class_gates(model)
    phases = phases.copy()
    phases[:, 1] *= np.exp(1j * eps)
    got = clifford_star_batch(model, perms, phases)
    want = reference_clifford_star_batch(model, perms, phases)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    if eps < 1e-7:
        assert got[1].all()
    if eps > 1e-7:
        assert not got[0].any()


@pytest.mark.parametrize("model", [Z2, Z4], ids=["z2", "z4"])
def test_only_the_vacuum_string_rejects_a_non_unitary_diagonal(model):
    """|d_w| = r^(+-1) by the parity of w's exponents, so |d_w| |d_{g w}| = 1
    for every generator g: each generator string's conjugate keeps unit
    phases, and the C1 half reads no d.  Of the strings the batch
    conjugates, only F_0(C2) = 1, conjugated to diag(|d|^2), sees |d| != 1."""
    gc = group_coordinates(model)
    mul = fusion_table(model)
    assert all(m % 2 == 0 for m in gc.orders)
    modulus = 1.5 ** np.where(np.sum(gc.coords, axis=1) % 2, -1.0, 1.0)
    for g in gc.generators:
        assert np.allclose(modulus * modulus[mul[g]], 1.0)
    perms, phases = _class_gates(model)
    phases = phases * modulus
    got = clifford_star_batch(model, perms, phases)
    want = reference_clifford_star_batch(model, perms, phases)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert not got[0].any()


def _automorphism_of(model, perms):
    """alpha = T_{pi(0)}^-1 pi of each permutation row."""
    mul = fusion_table(model)
    inverse = np.argmin(mul, axis=1)
    return mul[inverse[perms[:, 0]][:, None], perms]


@pytest.mark.parametrize(
    "name, words",
    [
        ("zn_toric:2", None),
        ("zn_toric:3", None),
        ("zn_toric:4", None),
        ("zn_toric:5", None),
        ("dg_abelian:2,2", None),
        ("zn_toric:3", ["s", "st", "stst"]),
        ("zn_toric:3", ["stst", "s", "st"]),
    ],
    ids=str,
)
def test_per_automorphism_flags_equal_the_check_of_every_class(monkeypatch, name, words):
    """The flags ``classify_torus`` reads off one class per automorphism and
    one per translation equal ``clifford_star_batch`` on every class, in both
    orders of a wildcard word and the closed form, and only those
    representatives were checked."""
    import anyongates.abelian as ab

    by_automorphism, batch = ab.clifford_star_by_automorphism, ab.clifford_star_batch
    calls, sizes = [], []

    def spy(model, perms, phases):
        member = by_automorphism(model, perms, phases)
        calls.append((model, perms, phases, member))
        return member

    def counted(model, perms, phases):
        sizes.append(len(perms))
        return batch(model, perms, phases)

    monkeypatch.setattr(ab, "clifford_star_by_automorphism", spy)
    monkeypatch.setattr(ab, "clifford_star_batch", counted)
    report = classify_torus(load_builtin(name), words)
    ((model, perms, phases, member),) = calls
    assert sizes == [len(np.unique(_automorphism_of(model, perms), axis=0)) + model.n_labels]
    assert report.details["clifford_star_checked"] == len(member) == report.n_classes
    assert member.all() and np.array_equal(member, batch(model, perms, phases)[0])


@pytest.mark.parametrize("hit_by", ["automorphism", "identity", "shift"])
def test_a_non_clifford_diagonal_flags_exactly_the_classes_it_multiplies(hit_by):
    """Negative control: the classes of one automorphism, of the identity,
    or of every map T_1 alpha, right-multiplied by an irrational diagonal,
    are flagged, and no other class.  In the last two a translation's
    representative fails, so every class is checked: under the shift, the
    first class of each automorphism, at c = 0, still passes."""
    fams = torus_word_families(Z3, ["s", "st"])
    perms, phases = fams.perms, fams.instantiate_families()
    alpha = _automorphism_of(Z3, perms)
    identity = (alpha == np.arange(Z3.n_labels)).all(axis=1)
    hit = {
        "automorphism": (alpha == alpha[np.argmin(identity)]).all(axis=1),
        "identity": identity,
        "shift": perms[:, 0] == 1,
    }[hit_by]
    assert 0 < hit.sum() < len(hit)
    diag = np.ones(Z3.n_labels, dtype=complex)
    diag[-1] = np.exp(0.7j)
    phases = np.where(hit[:, None], phases * diag, phases)
    assert np.array_equal(clifford_star_by_automorphism(Z3, perms, phases), ~hit)
    assert np.array_equal(clifford_star_batch(Z3, perms, phases)[0], ~hit)


@pytest.mark.parametrize("words", [["s", "st"], ["st", "s", "stt"]], ids=str)
@pytest.mark.parametrize("name", ["zn_toric:3", "zn_toric:4", "zn_toric:5"])
def test_the_join_keeps_every_map_of_an_automorphism_or_none(name, words):
    """The per-map join of the reference (one gap test per affine map and
    character) keeps T_c alpha exactly when it keeps alpha, for every
    translation c, and the per-automorphism join keeps the same maps."""
    model = load_builtin(name)
    want = {
        tuple(p) for chunk, _ in reference_torus_word_families(model, words)
        for p in chunk.tolist()
    }
    maps = fusion_table(model)[:, automorphisms(model)]  # [c, alpha] = T_c alpha
    keeps = np.array([[tuple(p) in want for p in row] for row in maps.tolist()])
    assert keeps.any() and not keeps.all()
    assert (keeps == keeps[0]).all()
    assert {tuple(p) for p in torus_word_families(model, words).perms.tolist()} == want


# ---------------------------------------------------------------------------
# Loop-label actions


def test_lambda_charge_flux_swap_is_permutation():
    """The e/m exchange acts on string labels by exactly that exchange."""
    swap = (0, 2, 1, 3)
    lam = lambda_matrix(Z2, swap)
    flag, perm, phases = check_lambda_monomial(lam)
    assert flag
    assert perm == swap
    assert np.abs(phases - 1).max() < 1e-9


def test_lambda_affine_perms_are_exact_roots():
    for model, nexp in ((Z2, 2), (Z3, 3), (Z4, 4)):
        affs = list(map(tuple, affine_permutations(model).tolist()))
        rng = np.random.default_rng(1)
        for perm in [affs[i] for i in rng.choice(len(affs), size=6, replace=False)]:
            lam = lambda_matrix(model, perm)
            flag, _, phases = check_lambda_monomial(lam)
            assert flag
            assert np.abs(phases**nexp - 1).max() < 1e-9


def test_lambda_non_affine_is_not_monomial():
    # transposition of two nonzero group elements is never affine on Z3 x Z3
    perm = (0, 2, 1) + tuple(range(3, 9))
    assert perm not in _affine_set(Z3)
    lam = lambda_matrix(Z3, perm)
    flag, _, _ = check_lambda_monomial(lam)
    assert not flag


def test_eq_consistency_for_affine_pairs():
    swap = (0, 2, 1, 3)
    lam = lambda_matrix(Z2, swap)
    res = eq_consistency_residual(Z2.smatrix, lam, lam)
    assert res < 1e-9


def test_induced_cycle_permutations_identity():
    gate = MonomialMatrix(perm=(0, 1, 2, 3), phases=(1.0,) * 4)
    lam1, lam2 = induced_cycle_permutations(Z2, gate)
    assert np.abs(lam1 - np.eye(4)).max() < 1e-9
    assert np.abs(lam2 - np.eye(4)).max() < 1e-9


def test_induced_cycle_permutations_string_gate():
    f1, f2 = string_operator_matrices(Z2)
    # conjugation by a string on one cycle dresses the crossing cycle with
    # phases and leaves its own cycle alone
    gate = _as_gate(f1[1])
    lam1, lam2 = induced_cycle_permutations(Z2, gate)
    flag1, perm1, _ = check_lambda_monomial(lam1)
    flag2, perm2, phases2 = check_lambda_monomial(lam2)
    assert flag1 and flag2
    assert perm1 == (0, 1, 2, 3)
    assert perm2 == (0, 1, 2, 3)
    assert np.abs(np.abs(phases2) - 1).max() < 1e-9
    assert np.abs(phases2 - 1).max() > 0.5


# ---------------------------------------------------------------------------
# Lattice cross-check


@pytest.mark.parametrize("nmod", [2, 3, 4, 5])
def test_lattice_commutation(nmod):
    rep = lattice_commutation_check(nmod, l=3)
    assert rep["passed"], rep
    assert rep["pairs_checked"] == nmod**4


@pytest.mark.parametrize("nmod", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("tol", [LATTICE_TOL, 0.0])
def test_lattice_check_equals_the_pair_loop(nmod, l, tol):
    """One integer product over the shared edges gives the report of one
    full-lattice loop pair at a time: every key, the worst mismatch to its
    float64 bytes, and ``passed`` at ``tol=0`` too."""
    got = lattice_commutation_check(nmod, l, tol=tol)
    want = reference_lattice_check(nmod, l, tol=tol)
    assert list(got) == list(want)
    for key in want:
        assert type(got[key]) is type(want[key]), key
        if key == "max_mismatch":
            assert np.float64(got[key]).tobytes() == np.float64(want[key]).tobytes()
        else:
            assert got[key] == want[key], key


@pytest.mark.parametrize("nmod", [10, 11])
def test_lattice_phases_keep_the_scalar_bits(nmod):
    """The mismatch from numpy's complex array abs (at N = 10) or omega^k
    from one array division by N (at N = 11) would change the worst
    mismatch's last bit; np.hypot and the table of scalars keep the loop's."""
    got = lattice_commutation_check(nmod, 2)["max_mismatch"]
    want = reference_lattice_check(nmod, 2)["max_mismatch"]
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_lattice_check_reaches_long_cycles():
    """Only the 2 L edges of a loop are held, so L = 200 takes no
    2 L^2-edge walk per pair."""
    rep = lattice_commutation_check(4, 200)
    assert rep["passed"] and rep["pairs_checked"] == 4**4


def test_lattice_check_charges_its_arrays_before_building_them(monkeypatch):
    """The loops, S and the N^4 pair arrays are charged first: a cycle of
    10^8 edges, N = 70 or N = 64 is refused before S is built."""
    def no_smatrix(orders):
        raise AssertionError("S was built")

    monkeypatch.setattr(abelian, "abelian_smatrix", no_smatrix)
    with pytest.raises(SearchBudgetError, match=r"^lattice loops: 16 x 800,000,000 bytes"):
        lattice_commutation_check(2, 10**8)
    with pytest.raises(SearchBudgetError, match=r"^S matrix: 24,010,000 x 48 bytes"):
        lattice_commutation_check(70, 3)
    with pytest.raises(SearchBudgetError, match=r"^commutation phases: 16,777,216 x 88 bytes"):
        lattice_commutation_check(64, 3)


def test_lattice_check_builds_no_model(monkeypatch):
    """The check reads S alone, so no fusion tensor or F-symbols are built."""
    def no_model(*args):
        raise AssertionError("a model was built")

    monkeypatch.setattr(models, "_abelian_double", no_model)
    assert lattice_commutation_check(12, 3)["passed"]


def test_lattice_size_independent():
    a = lattice_commutation_check(3, l=2)
    b = lattice_commutation_check(3, l=5)
    assert a["passed"] and b["passed"]


def test_commutation_exponent_antisymmetry():
    h = dyon_loop(3, 3, flux=1, charge=2, horizontal=True)
    v = dyon_loop(3, 3, flux=2, charge=1, horizontal=False)
    k1 = commutation_phase_exponent(h, v)
    k2 = commutation_phase_exponent(v, h)
    assert (k1 + k2) % 3 == 0


def test_parallel_loops_commute():
    h1 = dyon_loop(4, 3, flux=1, charge=3, horizontal=True, offset=0)
    h2 = dyon_loop(4, 3, flux=2, charge=1, horizontal=True, offset=1)
    assert commutation_phase_exponent(h1, h2) == 0


def test_compose_adds_exponents():
    a = dyon_loop(3, 2, flux=1, charge=1, horizontal=True)
    b = dyon_loop(3, 2, flux=2, charge=2, horizontal=True)
    c = compose_lattice_operators(a, b)
    assert all(x == 0 for x in c.x_exp)
    assert all(z == 0 for z in c.z_exp)


def test_exponent_commutation_matches_dense_matrices():
    """State-vector check of the symplectic form at the smallest size."""
    nmod, l = 2, 2
    for a, ap, b, bp in itertools.product(range(nmod), repeat=4):
        o1 = dyon_loop(nmod, l, a, ap, horizontal=True)
        o2 = dyon_loop(nmod, l, b, bp, horizontal=False)
        k = commutation_phase_exponent(o1, o2)
        m1 = dense_lattice_operator(o1)
        m2 = dense_lattice_operator(o2)
        lhs = m1 @ m2
        rhs = np.exp(2j * np.pi * k / nmod) * (m2 @ m1)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_dense_oracle_guard():
    op = LatticeOperator(modulus=5, x_exp=(0,) * 18, z_exp=(0,) * 18)
    with pytest.raises(ValueError):
        dense_lattice_operator(op)
