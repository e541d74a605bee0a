"""Numerical tolerances shared across the package.

All comparisons against these bounds are absolute (the matrices involved are
unitary, so entries are O(1) and relative error adds nothing).
"""

# Default bound for matrix-element comparisons; CLI flag --tol overrides it.
DEFAULT_TOL = 1e-9

# Entries below this magnitude are treated as structural zeros when reading
# off the support pattern of a matrix.
ZERO_THRESHOLD = 1e-10

# Consistency bound for redundant phase constraints (cycles in the phase
# propagation graph).  Looser than DEFAULT_TOL because a cycle accumulates
# error from every edge it traverses.
CYCLE_TOL = 1e-8

# Bound for projective matrix identities (braid relations), where a best-fit
# global phase has been divided out first.
PROJECTIVE_TOL = 1e-8

# Residual bound when substituting a concrete solution back into an
# intertwiner equation.
RESIDUAL_TOL = 1e-8

# A model is abelian when every quantum dimension is 1 within this bound.
QDIM_TOL = 1e-9

# Entries below this magnitude count as zero when a closed-form torus family
# is verified monomial under its word matrix.
VERIFY_ZERO_THRESHOLD = 1e-8

# Unit-modulus bound for the entries of a conjugated monomial: 100 tol, but
# never below the floor, so a tight tol still absorbs the rounding of a
# product of several unitaries.
UNIT_MODULUS_FACTOR = 100.0
UNIT_MODULUS_FLOOR = 1e-6

# A per-curve phase angle of a sphere class counts as 0 or pi (a Pauli
# factor) within this bound.
PAULI_ANGLE_TOL = 1e-6

# Clifford-star membership: a string coefficient is nonzero above this
# magnitude and must have unit modulus within it.
CLIFFORD_TOL = 1e-8

# Bound for the string operators' structure: the C1 characters orthogonal
# with norm sqrt(n), the C2 strings permutations with phase 1.
STRING_BASIS_TOL = 1e-6

# Bound for a phase being a root of unity of the group exponent.
ROOT_TOL = 1e-6

# A word matrix handed to the intertwiner solver counts as unitary when
# max |V V^dagger - I| stays within this bound.
UNITARITY_TOL = 1e-6

# The solver warns when the smallest support entry of |V| lies within this
# factor of the zero threshold.
SUPPORT_WARNING_FACTOR = 100.0

# Two entries of |V| and |V_out| match (one permutation pair feasible) within
# max(tol, MODULUS_MATCH_FLOOR).
MODULUS_MATCH_FLOOR = 1e-9

# An edge ratio V[m, l] / V_out[perm_out(m), perm_in(l)] must have unit
# modulus within max(RATIO_MODULUS_FACTOR * tol, RATIO_MODULUS_FLOOR).
RATIO_MODULUS_FACTOR = 10.0
RATIO_MODULUS_FLOOR = 1e-7

# Default bound for phase-coset and gate-family membership and comparison.
MEMBERSHIP_TOL = 1e-6

# Unit-modulus bound for the entries read off a numerically monomial matrix.
MONOMIAL_READ_TOL = 1e-6

# The torus classes all differ by a global phase (a trivial verdict) when
# their relative phases agree within this bound.
TRIVIAL_PHASE_TOL = 1e-8


def unit_modulus_tol(tol: float) -> float:
    return max(UNIT_MODULUS_FACTOR * tol, UNIT_MODULUS_FLOOR)


def modulus_match_tol(tol: float) -> float:
    return max(tol, MODULUS_MATCH_FLOOR)


def ratio_modulus_tol(tol: float) -> float:
    return max(RATIO_MODULUS_FACTOR * tol, RATIO_MODULUS_FLOOR)
