from itertools import permutations

import numpy as np
import pytest

from anyongates import load_builtin, quantum_dimensions
from anyongates.models import verlinde_fusion

from oracles import (
    all_subset_idempotents,
    idempotents,
    idempotents_by_eigendecomposition,
    lambda_matrix,
    match_projector_sets,
    permutation_matrix,
    reconstruct_regular,
    regular_representation,
    transported_regular,
)

MODELS = ["fibonacci", "ising", "zn_toric:2", "zn_toric:3", "zn_toric:4"]


@pytest.fixture(params=MODELS)
def model(request):
    return load_builtin(request.param)


def test_verlinde_formula_residual(model):
    res = np.abs(verlinde_fusion(model) - model.fusion).max()
    assert res < 1e-9


def test_regular_matrices_commute(model):
    f = regular_representation(model)
    for a in range(model.n_labels):
        for b in range(a):
            assert np.abs(f[a] @ f[b] - f[b] @ f[a]).max() < 1e-12


def test_idempotents_orthogonal_and_complete(model):
    p = idempotents(model)
    n = model.n_labels
    for a in range(n):
        for b in range(n):
            want = p[a] if a == b else 0
            assert np.abs(p[a] @ p[b] - want).max() < 1e-9
    assert np.abs(p.sum(axis=0) - np.eye(n)).max() < 1e-9


def test_idempotents_rank_one(model):
    p = idempotents(model)
    for a in range(model.n_labels):
        sv = np.linalg.svd(p[a], compute_uv=False)
        assert sv[0] > 0.1
        if len(sv) > 1:
            assert sv[1] < 1e-9


def test_idempotents_match_eigenprojectors(model):
    """Same projector family as the eigendecomposition of a generic element."""
    p = idempotents(model)
    q = idempotents_by_eigendecomposition(model)
    assert match_projector_sets(p, q, tol=1e-7) is not None


def test_idempotent_set_is_exhaustive(model):
    """Every subset sum is idempotent, so the p_a generate all idempotents.

    In a commutative algebra spanned by orthogonal rank-one projectors the
    idempotents are exactly the subset sums; finding all 2^n masks pass
    confirms the family is complete and primitive.
    """
    if model.n_labels > 9:
        pytest.skip("mask enumeration too large")
    f = regular_representation(model)
    p = idempotents(model)
    masks = all_subset_idempotents(f, p)
    assert len(masks) == 2**model.n_labels


def test_reconstruct_regular(model):
    f = regular_representation(model)
    back = reconstruct_regular(model, idempotents(model))
    assert np.abs(back - f).max() < 1e-9


def test_permutation_matrix_action():
    p = permutation_matrix((2, 0, 1))
    e1 = np.zeros(3)
    e1[1] = 1
    assert np.array_equal(p @ e1, np.array([1.0, 0.0, 0.0]))
    assert np.array_equal(p.T @ p, np.eye(3))


def test_transported_identity_is_regular(model):
    n = model.n_labels
    f = regular_representation(model)
    t = transported_regular(model, range(n))
    assert np.abs(t - f).max() < 1e-9


@pytest.mark.parametrize("name", ["fibonacci", "ising", "zn_toric:2"])
def test_lambda_transport_identity_all_perms(name):
    """Lambda(pi) reproduces the transported f-basis for every permutation."""
    model = load_builtin(name)
    n = model.n_labels
    f = regular_representation(model)
    for perm in permutations(range(n)):
        lam = lambda_matrix(model, perm)
        want = transported_regular(model, perm)
        got = np.tensordot(lam, f, axes=(1, 0))
        assert np.abs(got - want).max() < 1e-9, perm


def test_lambda_identity_exact(model):
    n = model.n_labels
    lam = lambda_matrix(model, range(n))
    assert np.array_equal(lam, np.eye(n))


def test_lambda_unitary_iff_dimension_preserving():
    model = load_builtin("fibonacci")
    lam = lambda_matrix(model, (1, 0))  # swaps labels of different dimension
    assert np.abs(lam @ lam.conj().T - np.eye(2)).max() > 1e-3

    mz = load_builtin("zn_toric:3")
    n = mz.n_labels
    d = quantum_dimensions(mz)
    assert np.abs(d - 1).max() < 1e-12
    rng = np.random.default_rng(0)
    for _ in range(5):
        perm = tuple(rng.permutation(n))
        lam = lambda_matrix(mz, perm)
        assert np.abs(lam @ lam.conj().T - np.eye(n)).max() < 1e-9


def test_lambda_rejects_non_permutation():
    with pytest.raises(ValueError):
        lambda_matrix(load_builtin("fibonacci"), (0, 0))


def test_lambda_composition():
    """Matrix products compose the permutations in application order."""
    model = load_builtin("ising")
    n = model.n_labels
    rng = np.random.default_rng(3)
    for _ in range(4):
        p1 = tuple(rng.permutation(n))
        p2 = tuple(rng.permutation(n))
        comp = tuple(p2[p1[i]] for i in range(n))
        lhs = lambda_matrix(model, comp)
        rhs = lambda_matrix(model, p1) @ lambda_matrix(model, p2)
        assert np.abs(lhs - rhs).max() < 1e-9
