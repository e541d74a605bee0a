import math

import numpy as np
import pytest

from anyongates import (
    MonomialMatrix,
    classify,
    classify_punctured_sphere,
    classify_torus,
    delta_set,
    intersect_delta,
    load_builtin,
    solve_intertwiner,
    sphere_surface,
    torus_surface,
    validate,
)
from anyongates.abelian import lattice_commutation_check, torus_word_families
from anyongates.tolerances import check_tol

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


SECONDARY_BOUNDS = {
    "solve_intertwiner(zero_tol)": lambda tol: solve_intertwiner(np.eye(2), zero_tol=tol),
    "solve_intertwiner(cycle_tol)": lambda tol: solve_intertwiner(np.eye(2), cycle_tol=tol),
    "delta_set(zero_tol)": lambda tol: delta_set(ISING, torus_surface(), "s", zero_tol=tol),
    "delta_set(cycle_tol)": lambda tol: delta_set(ISING, torus_surface(), "s", cycle_tol=tol),
}


@pytest.mark.parametrize("tol", BAD, ids=repr)
@pytest.mark.parametrize("name", sorted(SECONDARY_BOUNDS))
def test_secondary_bounds_refuse_a_bad_tolerance(name, tol):
    with pytest.raises(ValueError, match="tolerance must be finite and non-negative"):
        SECONDARY_BOUNDS[name](tol)


def test_a_negative_zero_tol_no_longer_empties_the_solution_list():
    assert len(solve_intertwiner(np.eye(2))) == 2
    with pytest.raises(ValueError):
        solve_intertwiner(np.eye(2), zero_tol=-1.0)


@pytest.mark.parametrize("tol", BAD, ids=repr)
def test_intersect_delta_refuses_a_bad_tolerance(tol):
    sets = [delta_set(ISING, torus_surface(), word) for word in ("s", "st")]
    assert len(intersect_delta(sets)) == 4
    with pytest.raises(ValueError, match="tolerance must be finite and non-negative"):
        intersect_delta(sets, tol=tol)


@pytest.mark.parametrize("tol", [0, 0.0, 1e-12, 1e-9, 1.0])
def test_check_tol_returns_a_valid_bound(tol):
    assert check_tol(tol) == tol


FIB_S = delta_set(load_builtin("fibonacci"), torus_surface(), "s")
Z_GATE = MonomialMatrix(perm=(0, 1), phases=(1.0, -1.0))
MEMBERSHIP_BOUNDS = {
    "DeltaSet.contains": lambda tol: FIB_S.contains(Z_GATE, tol),
}


@pytest.mark.parametrize("tol", BAD, ids=repr)
@pytest.mark.parametrize("name", sorted(MEMBERSHIP_BOUNDS))
def test_membership_bounds_refuse_a_bad_tolerance(name, tol):
    with pytest.raises(ValueError, match="tolerance must be finite and non-negative"):
        MEMBERSHIP_BOUNDS[name](tol)


def test_a_nan_membership_bound_no_longer_admits_every_gate():
    assert not FIB_S.contains(Z_GATE, 1e-8)
    with pytest.raises(ValueError):
        FIB_S.contains(Z_GATE, math.nan)
