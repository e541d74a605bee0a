"""Numerical tolerances shared across the package.

All comparisons against these bounds are absolute (the matrices involved are
unitary, so entries are O(1) and relative error adds nothing).
"""

import math

# Default bound for matrix-element comparisons; CLI flag --tol overrides it.
DEFAULT_TOL = 1e-9

# Entries below this magnitude are treated as structural zeros when reading
# off the support pattern of a matrix.
ZERO_THRESHOLD = 1e-10

# Consistency bound for redundant phase constraints (cycles in the phase
# propagation graph).  Looser than DEFAULT_TOL because a cycle accumulates
# error from every edge it traverses.
CYCLE_TOL = 1e-8

# A model is abelian when every quantum dimension is 1 within this bound.
QDIM_TOL = 1e-9

# Entries below this magnitude count as zero when a closed-form torus family
# is verified monomial under its word matrix.
VERIFY_ZERO_THRESHOLD = 1e-8

# A product of near-monomial n x n factors is checked one factor at a time.
# Let z = VERIFY_ZERO_THRESHOLD and u = unit_modulus_tol(tol), and check each
# factor with zero bound d and unit bound e = min(u, 1)/4 <= 1/4.  Split each
# factor into its monomial part and an off part with entries at most d.  In
# the product of k factors, a term with j off parts is at most
# (1 + e)^(k-j) n^(j-1) d^j per entry, and no term with one off part reaches
# a main entry of the product.
# * Two factors, d = z/4: an off entry is at most 2 (1 + e) d + n d^2
#   <= 5z/8 + n z^2/16 < z.  A main entry m has ||m| - 1| <= 2e + e^2 + n d^2
#   <= 9u/16 + n z^2/16 < u, and |m| > 7/16 - n d^2 stays above z.
# * Three factors, d = z/8: an off entry is at most
#   3 (1 + e)^2 d + 3 (1 + e) n d^2 + n^2 d^3 <= 75z/128 + 15 n z^2/256 +
#   n^2 z^3/512 < 2z/3.  A main entry has ||m| - 1| <= (1 + e)^3 - 1 + z/16
#   <= 61u/64 + z/16 < u, and |m| > 27/64 - z/16 stays above z.
# Both hold for n < 1/z and u >= UNIT_MODULUS_FLOOR, far beyond any label
# count.  A closed-form torus family is verified by three factors,
# V Pi D V^dag = (V P(T_c) V^dag)(V P(alpha) V^dag)(V diag(chi_b) V^dag)
# (see abelian.torus_word_families), so three passing factors make a product
# that passes the per-family test with bounds z and u.
FACTOR_ZERO_THRESHOLD = VERIFY_ZERO_THRESHOLD / 8

# A sphere word's window matrix V vetoes no product gate G when V passes the
# two-factor bounds above with z = ZERO_THRESHOLD: V G (G monomial with
# unit-modulus entries) and V^dag then pass them too, so every conjugate
# V G V^dag passes is_monomial with bounds ZERO_THRESHOLD and u.
WINDOW_ZERO_THRESHOLD = ZERO_THRESHOLD / 4

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

# Two entries of |V| match (one permutation pair feasible) within
# max(tol, MODULUS_MATCH_FLOOR).
MODULUS_MATCH_FLOOR = 1e-9

# An edge ratio V[m, l] / V[perm_out(m), perm_in(l)] must have unit
# modulus within max(RATIO_MODULUS_FACTOR * tol, RATIO_MODULUS_FLOOR).
RATIO_MODULUS_FACTOR = 10.0
RATIO_MODULUS_FLOOR = 1e-7

# A word matrix V is vetoless, and a delta-set path skips its solve, when
# every entry is finite and V is monomial with zero bound z = ZERO_THRESHOLD
# and unit bound e = VETOLESS_UNIT_TOL: one entry per row and column, d_l
# in column l, has ||d_l| - 1| < e, and every other entry is at most z.
# Then, for any tol, the solver accepts every candidate gate permutation pi
# with every phase free:
# * its support is the entries above z, the d_l alone, so the constraint
#   graph is a perfect matching of gate and output phases: no cycle, and
#   one free phase per gate index;
# * V passes the unitarity check: an entry of V V^dag - I is at most
#   2e + e^2 + n z^2 on the diagonal and 2 (1 + e) z + n z^2 off it, under
#   UNITARITY_TOL for any n below 10^8;
# * two d's differ in modulus by under 2e and two other entries by at most
#   z, both under MODULUS_MATCH_FLOOR <= modulus_match_tol(tol), while a d
#   and another entry differ by over 1 - e - z; so the one perm_out that
#   matches pi is sigma pi sigma^-1, sigma the permutation of V;
# * each edge ratio is one d over another, nonzero with modulus within
#   2e / (1 - e) < RATIO_MODULUS_FLOOR <= ratio_modulus_tol(tol) of 1.
# So the delta set of V holds every candidate with every phase free, and
# intersecting with it removes nothing.
VETOLESS_UNIT_TOL = MODULUS_MATCH_FLOOR / 4

# Default bound for phase-coset and gate-family membership and comparison.
MEMBERSHIP_TOL = 1e-6

# Unit-modulus bound for the entries read off a numerically monomial matrix.
MONOMIAL_READ_TOL = 1e-6

# The torus classes all differ by a global phase (a trivial verdict) when
# their relative phases agree within this bound.
TRIVIAL_PHASE_TOL = 1e-8

# Default bound for the lattice commutation phases against the Z_N S matrix
# (the library call and the CLI's lattice --tol).
LATTICE_TOL = 1e-9


def check_tol(tol: float) -> float:
    """``tol`` itself; a NaN, infinite or negative bound is a ValueError."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and non-negative, not {tol!r}")
    return tol


def unit_modulus_tol(tol: float) -> float:
    return max(UNIT_MODULUS_FACTOR * tol, UNIT_MODULUS_FLOOR)


def factor_unit_modulus_tol(tol: float) -> float:
    """Unit bound e of one factor of a product checked per factor (see above)."""
    return min(unit_modulus_tol(tol), 1.0) / 4


def modulus_match_tol(tol: float) -> float:
    return max(tol, MODULUS_MATCH_FLOOR)


def ratio_modulus_tol(tol: float) -> float:
    return max(RATIO_MODULUS_FACTOR * tol, RATIO_MODULUS_FLOOR)
