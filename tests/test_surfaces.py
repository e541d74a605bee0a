import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyongates import (
    InfeasibleSurfaceError,
    ModelError,
    SurfaceSpec,
    allowed_curve_permutations,
    enumerate_labelings,
    load_builtin,
    sphere_surface,
    torus_surface,
)
from oracles import (
    brute_force_labelings,
    cut_dimensions,
    fibonacci_number,
    ising_qubit_isomorphism,
)

FIB = load_builtin("fibonacci")
ISING = load_builtin("ising")


def sphere_dim(model, label, m):
    return enumerate_labelings(model, sphere_surface(model, label, m)).dim


# ---------------------------------------------------------------------------
# Dimension tables


@pytest.mark.parametrize("m", range(3, 13))
def test_fibonacci_sphere_dimensions(m):
    assert sphere_dim(FIB, "tau", m) == fibonacci_number(m - 1)


@pytest.mark.parametrize("m", range(3, 13))
def test_ising_sphere_dimensions(m):
    want = 2 ** (m // 2 - 1) if m % 2 == 0 else 0
    assert sphere_dim(ISING, "sigma", m) == want


def test_torus_basis_is_label_set():
    basis = enumerate_labelings(ISING, torus_surface())
    assert basis.dim == 3
    assert basis.labelings == ((0,), (1,), (2,))
    assert basis.index[(2,)] == 2


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
def test_enumeration_matches_brute_force(m):
    for model, label in ((FIB, "tau"), (ISING, "sigma")):
        surf = sphere_surface(model, label, m)
        got = set(enumerate_labelings(model, surf).labelings)
        want = set(brute_force_labelings(model, surf.boundary_labels))
        assert got == want


def test_zn_sphere_dimension_is_charge_conservation():
    mz = load_builtin("zn_toric:3")
    # label index 1 = (0,1); five copies sum to (0,5) = (0,2) != 0
    assert sphere_dim(mz, 1, 5) == 0
    assert sphere_dim(mz, 1, 6) == 1


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["fibonacci", "ising", "zn_toric:2"]),
    st.lists(st.integers(min_value=0, max_value=30), min_size=4, max_size=6),
)
def test_mixed_boundary_dimension_matches_brute_force(name, labels):
    model = load_builtin(name)
    surf = SurfaceSpec(
        kind="punctured_sphere",
        punctures=len(labels),
        boundary_labels=tuple(x % model.n_labels for x in labels),
    )
    got = set(enumerate_labelings(model, surf).labelings)
    assert got == set(brute_force_labelings(model, surf.boundary_labels))


# ---------------------------------------------------------------------------
# Degenerate and small cases


def test_small_puncture_counts():
    assert sphere_dim(ISING, 0, 1) == 1
    assert sphere_dim(ISING, "sigma", 1) == 0
    assert sphere_dim(ISING, "sigma", 2) == 1  # sigma is self-dual
    assert sphere_dim(ISING, "psi", 3) == 0
    assert sphere_dim(FIB, "tau", 3) == 1


def test_bare_sphere():
    surf = SurfaceSpec(kind="punctured_sphere", punctures=0, boundary_labels=())
    assert enumerate_labelings(ISING, surf).dim == 1


def test_surface_spec_validation():
    with pytest.raises(ValueError):
        SurfaceSpec(kind="torus", boundary_labels=(0,))
    with pytest.raises(ValueError):
        SurfaceSpec(kind="punctured_sphere", punctures=3, boundary_labels=(0,))
    with pytest.raises(ValueError):
        SurfaceSpec(kind="klein_bottle")


def test_describe():
    assert torus_surface().describe() == "torus"
    surf = sphere_surface(ISING, "sigma", 4)
    assert surf.describe(ISING) == "sphere:sigma:4"
    assert surf.describe() == "sphere:2:4"
    mixed = SurfaceSpec(kind="punctured_sphere", punctures=2, boundary_labels=(1, 2))
    assert mixed.describe(ISING) == "sphere(psi,sigma)"


# ---------------------------------------------------------------------------
# Decomposed structure


@pytest.mark.parametrize("punctures, curves", [(None, ["C1"]), (6, ["C1", "C2", "C3"]), (2, [])],
                         ids=["torus", "sigma:6", "sigma:2"])
def test_curves_are_named_by_their_slots(punctures, curves):
    """Slot s of a labeling is curve C{s+1}; the torus has one curve and a
    sphere with fewer than 4 punctures none."""
    surf = torus_surface() if punctures is None else sphere_surface(ISING, "sigma", punctures)
    assert list(allowed_curve_permutations(ISING, surf)) == curves


def test_cut_dimensions_sum_to_total():
    surf = sphere_surface(FIB, "tau", 8)
    basis = enumerate_labelings(FIB, surf)
    for curve in allowed_curve_permutations(FIB, surf, basis):
        counts = cut_dimensions(FIB, surf, curve)
        assert sum(counts.values()) == basis.dim


def test_cut_dimensions_match_enumeration():
    surf = sphere_surface(ISING, "sigma", 6)
    labs = enumerate_labelings(ISING, surf).labelings
    for j, curve in enumerate(("C1", "C2", "C3")):
        counts = cut_dimensions(ISING, surf, curve)
        for a in range(ISING.n_labels):
            assert counts[a] == sum(1 for lab in labs if lab[j] == a)


# ---------------------------------------------------------------------------
# Ising qubit dictionary


def test_ising_qubit_isomorphism_bijective():
    for m in (4, 6, 8):
        surf = sphere_surface(ISING, "sigma", m)
        basis = enumerate_labelings(ISING, surf)
        strings = {ising_qubit_isomorphism(ISING, surf, lab) for lab in basis.labelings}
        assert len(strings) == basis.dim == 2 ** (m // 2 - 1)
        assert all(len(s) == m // 2 - 1 for s in strings)


def test_ising_qubit_isomorphism_rejects_other_models():
    surf = sphere_surface(FIB, "tau", 4)
    lab = enumerate_labelings(FIB, surf).labelings[0]
    with pytest.raises(ModelError):
        ising_qubit_isomorphism(FIB, surf, lab)


def test_ising_qubit_isomorphism_rejects_odd_spheres():
    surf = SurfaceSpec(kind="punctured_sphere", punctures=5, boundary_labels=(2,) * 5)
    with pytest.raises(ModelError):
        ising_qubit_isomorphism(ISING, surf, (0, 2))
