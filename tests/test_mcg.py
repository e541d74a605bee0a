import dataclasses

import numpy as np
import pytest

from anyongates import (
    evaluate_word,
    load_builtin,
    sphere_surface,
    torus_generators,
    torus_surface,
)
from anyongates.mcg import (
    _generator_matrix,
    braid_block,
    braid_matrix,
    evaluate_on_basis,
    local_braid_block,
    parse_word,
)
from anyongates.surfaces import enumerate_labelings

from oracles import braid_matrix_per_call, projective_distance

FIB = load_builtin("fibonacci")
ISING = load_builtin("ising")
TORUS_MODELS = ["fibonacci", "ising", "zn_toric:2", "zn_toric:3", "zn_toric:4"]


# ---------------------------------------------------------------------------
# Torus representation


@pytest.mark.parametrize("name", TORUS_MODELS)
def test_torus_generators_are_s_and_t(name):
    model = load_builtin(name)
    s, t = torus_generators(model)
    assert np.array_equal(s.matrix, model.smatrix)
    assert np.array_equal(t.matrix, np.diag(model.twists))


def test_word_multiplies_left_to_right():
    s, t = torus_generators(ISING)
    got = evaluate_word(ISING, torus_surface(), "st").matrix
    assert np.abs(got - s.matrix @ t.matrix).max() < 1e-12


def test_inverse_cancels():
    got = evaluate_word(FIB, torus_surface(), "ss'").matrix
    assert np.abs(got - np.eye(2)).max() < 1e-12


@pytest.mark.parametrize("name", TORUS_MODELS)
def test_s_squared_is_charge_conjugation(name):
    model = load_builtin(name)
    got = evaluate_word(model, torus_surface(), "ss").matrix
    n = model.n_labels
    conj = np.zeros((n, n))
    for a in range(n):
        conj[model.dual[a], a] = 1.0
    assert projective_distance(got, conj.astype(np.complex128)) < 1e-9


@pytest.mark.parametrize("name", TORUS_MODELS)
def test_modular_relation_projective(name):
    """(st)^3 agrees with s^2 up to the central phase."""
    model = load_builtin(name)
    lhs = evaluate_word(model, torus_surface(), "ststst").matrix
    rhs = evaluate_word(model, torus_surface(), "ss").matrix
    assert projective_distance(lhs, rhs) < 1e-9


def test_projective_distance_ignores_global_phase():
    a = np.array([[1, 2], [3, 4]], dtype=np.complex128)
    b = np.exp(0.71j) * a
    assert projective_distance(a, b) < 1e-12
    assert projective_distance(a, a + 1) > 0.5


# ---------------------------------------------------------------------------
# Sphere braid generators


def test_fib_three_puncture_phase():
    rep = evaluate_word(FIB, sphere_surface(FIB, "tau", 3), "s1")
    assert rep.matrix.shape == (1, 1)
    assert abs(rep.matrix[0, 0] - np.exp(3j * np.pi / 5)) < 1e-12


def test_ising_exchange_block_anchor():
    """The sigma/sigma braid block in the standard gauge."""
    _, bmat = braid_block(ISING, 2, 2, 2)
    want = np.exp(-3j * np.pi / 8) / np.sqrt(2) * np.array([[1j, 1], [1, 1j]])
    assert np.abs(bmat - want).max() < 1e-12


def test_edge_generators_are_diagonal():
    for k in (1, 5):
        rep = evaluate_word(ISING, sphere_surface(ISING, "sigma", 6), f"s{k}")
        off = rep.matrix - np.diag(np.diag(rep.matrix))
        assert np.abs(off).max() == 0.0


def test_first_generator_phases_follow_first_slot():
    surf = sphere_surface(ISING, "sigma", 6)
    rep = evaluate_word(ISING, surf, "s1")
    basis = enumerate_labelings(ISING, surf)
    for i, lab in enumerate(basis.labelings):
        want = ISING.rsymbol(2, 2, lab[0])
        assert abs(rep.matrix[i, i] - want) < 1e-12


def test_braid_generators_unitary():
    for model, z, m in ((FIB, "tau", 7), (ISING, "sigma", 8)):
        for k in range(1, m):
            g = evaluate_word(model, sphere_surface(model, z, m), f"s{k}").matrix
            assert np.abs(g @ g.conj().T - np.eye(g.shape[0])).max() < 1e-9


@pytest.mark.parametrize("m", range(4, 9))
@pytest.mark.parametrize("name,z", [("fibonacci", "tau"), ("ising", "sigma")])
def test_yang_baxter(name, z, m):
    model = load_builtin(name)
    if not (enum_dim := evaluate_word(model, sphere_surface(model, z, m), "s1").matrix.shape[0]):
        pytest.skip("zero-dimensional space")
    gens = [evaluate_word(model, sphere_surface(model, z, m), f"s{k}").matrix for k in range(1, m)]
    for k in range(len(gens) - 1):
        a, b = gens[k], gens[k + 1]
        res = np.abs(a @ b @ a - b @ a @ b).max()
        assert res < 1e-8, (name, m, k + 1, res)


@pytest.mark.parametrize("m", range(4, 9))
@pytest.mark.parametrize("name,z", [("fibonacci", "tau"), ("ising", "sigma")])
def test_far_commutation(name, z, m):
    model = load_builtin(name)
    gens = [evaluate_word(model, sphere_surface(model, z, m), f"s{k}").matrix for k in range(1, m)]
    if gens[0].shape[0] == 0:
        pytest.skip("zero-dimensional space")
    for i in range(len(gens)):
        for j in range(i + 2, len(gens)):
            res = np.abs(gens[i] @ gens[j] - gens[j] @ gens[i]).max()
            assert res < 1e-9, (name, m, i + 1, j + 1, res)


def test_braid_generator_range_checks():
    with pytest.raises(ValueError):
        evaluate_word(ISING, sphere_surface(ISING, "sigma", 2), "s1")
    with pytest.raises(ValueError):
        evaluate_word(ISING, sphere_surface(ISING, "sigma", 6), "s6")
    with pytest.raises(ValueError):
        evaluate_word(ISING, sphere_surface(ISING, "sigma", 6), "s0")


def test_sphere_word_evaluation_composes():
    surf = sphere_surface(ISING, "sigma", 6)
    g1 = evaluate_word(ISING, sphere_surface(ISING, "sigma", 6), "s1").matrix
    g2 = evaluate_word(ISING, sphere_surface(ISING, "sigma", 6), "s2").matrix
    got = evaluate_word(ISING, surf, "s1 s2'").matrix
    assert np.abs(got - g1 @ g2.conj().T).max() < 1e-12


BLOCK_CASES = (
    [("fibonacci", "tau", m) for m in range(4, 14)]
    + [("ising", "sigma", m) for m in range(4, 15)]
    + [("ising", "psi", m) for m in range(4, 9)]
)


@pytest.mark.parametrize("name, label, m", BLOCK_CASES)
def test_braid_matrices_equal_the_per_call_blocks_bit_for_bit(name, label, m):
    """Every generator's matrix, built from the blocks kept on the model,
    has the bytes of the loop that builds its blocks afresh in each call;
    one model serves every M and k in turn, so the blocks are reused."""
    model = load_builtin(name) if name == "fibonacci" else ISING
    surf = sphere_surface(model, label, m)
    basis = enumerate_labelings(model, surf)
    z = surf.boundary_labels[0]
    for k in range(1, m):
        got = braid_matrix(model, z, m, k, basis.labelings)
        want = braid_matrix_per_call(model, z, m, k, basis.labelings)
        assert got.tobytes() == want.tobytes()


def test_a_replaced_model_gets_its_own_braid_blocks():
    """``dataclasses.replace`` with other R-symbols is a new model: its
    blocks are its own, built from its R-symbols, and the first model's
    blocks stay as they were."""
    model = load_builtin("fibonacci")
    surf = sphere_surface(model, "tau", 6)
    before = evaluate_word(model, surf, "s1s2s5").matrix
    other = dataclasses.replace(
        model, rsymbols={key: np.conj(r) for key, r in model.rsymbols.items()}
    )
    assert other.braid_blocks == {}
    basis = enumerate_labelings(other, surf)
    for k in (1, 2, 5):
        got = braid_matrix(other, 1, 6, k, basis.labelings)
        assert got.tobytes() == braid_matrix_per_call(other, 1, 6, k, basis.labelings).tobytes()
    assert np.abs(evaluate_word(other, surf, "s1s2s5").matrix - before).max() > 0.1
    assert evaluate_word(model, surf, "s1s2s5").matrix.tobytes() == before.tobytes()
    assert set(other.braid_blocks) == set(model.braid_blocks)


def test_braid_blocks_are_kept_read_only_per_context():
    """One entry per (z, a, b, end): the end generators share the interior
    blocks' contexts but keep blocks of their own, and no caller can write
    into a kept block."""
    model = load_builtin("fibonacci")
    first = local_braid_block(model, 1, 6, 1, 1, 1)
    assert local_braid_block(model, 1, 8, 1, 1, 1) is first
    assert local_braid_block(model, 1, 6, 5, 1, 1) is not first
    assert local_braid_block(model, 1, 6, 3, 1, 1) is local_braid_block(model, 1, 9, 4, 1, 1)
    assert sorted(model.braid_blocks) == [(1, 1, 1, -1), (1, 1, 1, 0), (1, 1, 1, 1)]
    with pytest.raises(ValueError):
        first[1][0, 0] = 0


# ---------------------------------------------------------------------------
# Word parsing


def test_parse_torus_words():
    surf = torus_surface()
    assert parse_word("st", surf) == [("s", 1), ("t", 1)]
    assert parse_word("s't", surf) == [("s", -1), ("t", 1)]
    assert parse_word(" s , t' ", surf) == [("s", 1), ("t", -1)]


def test_parse_sphere_words():
    surf = sphere_surface(ISING, "sigma", 6)
    assert parse_word("s1,s12'", surf) == [("s1", 1), ("s12", -1)]
    assert parse_word("s2 s3", surf) == [("s2", 1), ("s3", 1)]


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_word("sx", torus_surface())
    with pytest.raises(ValueError):
        parse_word("t3", sphere_surface(ISING, "sigma", 4))


def test_evaluate_rejects_wrong_generator():
    with pytest.raises(ValueError):
        evaluate_word(ISING, torus_surface(), [("s9", 1)])


def test_evaluate_rejects_mixed_boundary():
    from anyongates import SurfaceSpec

    surf = SurfaceSpec(kind="punctured_sphere", punctures=4, boundary_labels=(2, 2, 1, 2))
    with pytest.raises(ValueError):
        evaluate_word(ISING, surf, "s1")


@pytest.mark.parametrize("model, surface, word", [
    ("ising", "sphere:sigma:8", "s2"),
    ("ising", "sphere:sigma:8", "s4'"),
    ("fibonacci", "sphere:tau:7", "s3"),
    ("fibonacci", "sphere:tau:7", "s1'"),
    ("zn_toric:3", "torus", "s"),
    ("zn_toric:3", "torus", "t'"),
    ("fibonacci", "torus", "s'"),
])
def test_one_letter_word_is_its_generator(model, surface, word):
    """A word's product starts from its first letter's matrix, so a
    one-letter word is that matrix bit for bit, signed zeros included;
    starting from the identity, as before, gives the same values but may
    turn -0.0 into 0.0.  The empty word is the identity."""
    mod = load_builtin(model)
    if surface == "torus":
        surf = torus_surface()
        s, t = torus_generators(mod)
        gen = {"s": s.matrix, "t": t.matrix}[word[0]]
    else:
        _, label, m = surface.split(":")
        surf = sphere_surface(mod, label, int(m))
        basis = enumerate_labelings(mod, surf)
        gen = _generator_matrix(mod, surf.boundary_labels[0], int(m), int(word[1]), basis)
    want = np.ascontiguousarray(gen.conj().T if word.endswith("'") else gen)
    got = evaluate_word(mod, surf, word).matrix
    assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
    assert np.array_equal(np.eye(len(got)) @ want, got)
    basis = enumerate_labelings(mod, surf)
    empty = evaluate_on_basis(mod, basis, []).matrix
    assert empty.tobytes() == np.eye(basis.dim, dtype=np.complex128).tobytes()
