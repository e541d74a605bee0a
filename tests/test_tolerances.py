import itertools
import math
import warnings

import numpy as np
import pytest

from anyongates import (
    MonomialMatrix,
    classify,
    classify_punctured_sphere,
    classify_torus,
    delta_set,
    is_monomial,
    load_builtin,
    solve_intertwiner,
    sphere_surface,
    torus_surface,
    validate,
)
from anyongates.abelian import lattice_commutation_check, torus_word_families
from anyongates.classify import _vetoless
from anyongates.tolerances import (
    CYCLE_TOL,
    DEFAULT_TOL,
    MEMBERSHIP_TOL,
    VETOLESS_UNIT_TOL,
    ZERO_THRESHOLD,
    check_tol,
    unit_modulus_tol,
)

from oracles import intertwiner_solutions

ISING = load_builtin("ising")
BAD = [math.nan, math.inf, -math.inf, -1.0, -1e-300]

ENTRY_POINTS = {
    "classify": lambda tol: classify(ISING, torus_surface(), tol=tol),
    "classify_torus": lambda tol: classify_torus(ISING, tol=tol),
    "classify_punctured_sphere": lambda tol: classify_punctured_sphere(
        ISING, sphere_surface(ISING, "sigma", 6), tol=tol
    ),
    "delta_set": lambda tol: delta_set(ISING, torus_surface(), "s", tol=tol),
    "solve_intertwiner": lambda tol: solve_intertwiner(np.eye(2), tol=tol),
    "validate": lambda tol: validate(ISING, tol=tol),
    "lattice_commutation_check": lambda tol: lattice_commutation_check(2, 2, tol=tol),
    "torus_word_families": lambda tol: torus_word_families(
        load_builtin("zn_toric:2"), ["s", "st"], tol=tol
    ),
}


@pytest.mark.parametrize("tol", BAD, ids=repr)
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_library_entry_points_refuse_a_bad_tolerance(name, tol):
    with pytest.raises(ValueError, match="tolerance must be finite and non-negative"):
        ENTRY_POINTS[name](tol)


def test_negative_tolerance_no_longer_classifies_the_ising_torus():
    assert classify_torus(ISING).n_classes == 4
    with pytest.raises(ValueError):
        classify_torus(ISING, tol=-1.0)


@pytest.mark.parametrize("tol", [0, 0.0, 1e-12, 1e-9, 1.0])
def test_check_tol_returns_a_valid_bound(tol):
    assert check_tol(tol) == tol


# The secondary bounds are fixed constants: each decides at its own value.
FACTORS = [0.5, 0.9, 1.1, 2.0]


@pytest.mark.parametrize("factor", FACTORS)
@pytest.mark.parametrize("entry", ["unit", "zero"])
def test_is_monomial_decides_at_its_fixed_bounds(entry, factor):
    """An entry off modulus 1 by factor * unit_modulus_tol(DEFAULT_TOL), or a
    second entry of factor * ZERO_THRESHOLD in a row, is within the bound
    exactly when factor < 1."""
    m = np.eye(2, dtype=np.complex128)
    if entry == "unit":
        m[0, 0] += factor * unit_modulus_tol(DEFAULT_TOL)
    else:
        m[0, 1] = factor * ZERO_THRESHOLD
    assert is_monomial(m) == (factor < 1)


@pytest.mark.parametrize("factor", FACTORS)
def test_support_is_read_at_the_zero_threshold(factor):
    """Off-diagonal entries of factor * ZERO_THRESHOLD join the two phases of
    the near-identity exactly when they count as support (factor > 1), and
    only then warn that they lie close to the threshold."""
    s = factor * ZERO_THRESHOLD
    v = np.array([[1.0, s], [-s, 1.0]], dtype=np.complex128)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ds = solve_intertwiner(v)
    assert ds.perms.tolist() == [[0, 1], [1, 0]]
    assert ds.components == ((0, 0) if factor > 1 else (0, 1))
    assert [str(w.message)[:16] for w in caught] == ["smallest nonzero"] * (factor > 1)


@pytest.mark.parametrize("factor, pairs", [
    (0.0, 18), (0.45, 18), (0.55, 10), (0.9, 10), (1.1, 2), (4.0, 2),
])
def test_cycles_close_at_the_cycle_tol(factor, pairs):
    """The 3 x 3 Fourier matrix with entry (0, 0) turned by theta = factor *
    CYCLE_TOL: a pair whose cycles carry 2 theta closes only below factor
    1/2, one whose cycles carry theta only below 1, and the two pairs that fix
    entry (0, 0) at any factor."""
    v = np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / np.sqrt(3)
    v[0, 0] *= np.exp(1j * factor * CYCLE_TOL)
    sols = intertwiner_solutions(v)
    assert len(sols) == pairs
    assert sum(s.perm_in[0] == s.perm_out[0] == 0 for s in sols) == 2


@pytest.mark.parametrize("factor", FACTORS)
@pytest.mark.parametrize("method", ["contains", "contains_each"])
def test_membership_is_decided_at_the_membership_tol(method, factor):
    """A gate of the Ising torus s set with one phase turned so that its
    ratio moves by factor * MEMBERSHIP_TOL is held exactly when factor < 1."""
    ds = delta_set(ISING, torus_surface(), "s")
    theta = 2 * math.asin(factor * MEMBERSHIP_TOL / 2)  # |exp(i theta) - 1|
    phases = ds.instantiate_families()[1] * np.array([1.0, 1.0, np.exp(1j * theta)])
    perm = tuple(ds.perms[1].tolist())
    if method == "contains":
        held = ds.contains(MonomialMatrix(perm, tuple(phases)))
    else:
        held = bool(ds.contains_each([perm], [phases])[0])
    assert held == (factor < 1)


def _edge_monomial(n: int, unit: float, zero: float) -> np.ndarray:
    """A permuted diagonal whose entries are off modulus 1 by +-unit in
    turn, with every other entry of modulus ``zero`` and a varied phase."""
    rng = np.random.default_rng(n)
    v = zero * np.exp(2j * np.pi * rng.random((n, n)))
    sigma = rng.permutation(n)
    moduli = 1 + unit * (-1.0) ** np.arange(n)
    v[sigma, np.arange(n)] = moduli * np.exp(2j * np.pi * rng.random(n))
    return v


@pytest.mark.parametrize("tol", [0.0, 1e-12, DEFAULT_TOL, 1e-6, 1e-3])
def test_a_vetoless_matrix_at_its_bounds_keeps_every_candidate_free(tol):
    """Entries off modulus 1 by 0.99 VETOLESS_UNIT_TOL either way and all
    others at 0.99 ZERO_THRESHOLD: the matrix is vetoless, and the solver
    accepts all 720 candidates of n = 6, each with six free phases."""
    v = _edge_monomial(6, 0.99 * VETOLESS_UNIT_TOL, 0.99 * ZERO_THRESHOLD)
    assert _vetoless(v)
    cands = list(itertools.permutations(range(6)))
    ds = solve_intertwiner(v, cands, tol=tol)
    assert ds.perms.tolist() == [list(c) for c in cands]
    assert ds.components == tuple(range(6))


@pytest.mark.parametrize("unit, zero", [(1.01, 0.5), (0.5, 1.01)])
def test_the_vetoless_test_decides_at_its_bounds(unit, zero):
    """Past either bound, or with a NaN entry, a matrix is not vetoless."""
    v = _edge_monomial(6, unit * VETOLESS_UNIT_TOL, zero * ZERO_THRESHOLD)
    assert not _vetoless(v)
    v = _edge_monomial(6, 0.5 * VETOLESS_UNIT_TOL, 0.0)
    assert _vetoless(v)
    v[v == 0] = np.nan  # no NaN exceeds the zero bound
    assert not _vetoless(v)
