"""Independent reference computations used to cross-check the package.

Everything here deliberately avoids the code paths under test: gate
families are one object each (``PhaseCoset``, ``IntertwinerSolution``,
``GateFamily``, with per-object membership, intersection and
instantiation) instead of rows of a columnar ``DeltaSet``, dimensions come
from recursions instead of the labeling enumerator, idempotents from
eigendecompositions instead of the S-matrix formula, intertwiner families
from a brute-force phase-grid search instead of graph propagation, the
feasible permutation pairs from a recursive search instead of array
frontiers, the allowed curve permutations from one cut-dimension
enumeration per curve instead of one pass over the classifier's basis,
each family's gate coset from its own solution instead of the solver's
shared arrays, the phase functions of a local basis change from one
solution object per family instead of one batched instantiate, the
F-blocks and their unitarity check from a per-boundary walk over all labels
instead of the model's block store, the phases of a permutation pair from a
scalar walk over that pair's own constraint graph instead of the batched
walk over a shared forest, the sphere word filter from dense conjugation of
every product gate instead of per-curve local blocks, the closed-form torus
families verified by one dense product per family and by one permutation
factor per affine map with a gap test per character instead of one factor
per translation and per automorphism with one gap test per map, the
logical-Pauli test by a scan over every family and by a dict of family
objects instead of a lookup among permutation rows, Clifford-star
membership from the dense expansion in the string basis and from one pass
per string, all 2n of them, instead of the group generators' strings, the
affine label maps by repeated fusion instead
of exponent-coordinate arrays, the intersection of delta sets by one
``PhaseCoset.intersect`` per family pair instead of one array pass for
rigid sets and a union-find over set rows otherwise, the row pairs with
equal permutations by a dict of row tuples instead of a join of row keys,
the lattice
commutation phases from dense state-space matrices instead of exponent
vectors, the report JSON from the standard library encoder after a rounding
walk instead of the package's writer, the order of a class list by sorting
on that compact text instead of per-column ranks of its arrays, and the
class and family records as one dict per record instead of a ``Rows`` of
columns.

The module also holds the helpers only tests need, which the package does
not export: a delta set's rows as GateFamily objects (``families``), the
solver's accepted pairs with both sides of their phases
(``intertwiner_solutions``), the residual of an instantiated intertwiner
family, phase-coset comparison, the projective distance of two word
matrices, the Ising qubit dictionary, the abelian Pauli group by explicit
closure, products of lattice operators, and Deligne products of two models.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass

import numpy as np

from anyongates.abelian import (
    LatticeOperator,
    affine_permutations,
    characters,
    fusion_table,
    group_coordinates,
    string_operator_matrices,
)
from anyongates.budget import Budget
from anyongates.mcg import evaluate_word, parse_word
from anyongates.models import AnyonModel, CheckResult, ModelError
from anyongates import solver
from anyongates.solver import MonomialMatrix, monomial_from_matrix, monomial_mask
from anyongates.surfaces import SurfaceSpec, cut_dimensions, standard_dap
from anyongates.tolerances import (
    CLIFFORD_TOL,
    CYCLE_TOL,
    DEFAULT_TOL,
    MEMBERSHIP_TOL,
    ROOT_TOL,
    STRING_BASIS_TOL,
    VERIFY_ZERO_THRESHOLD,
    ZERO_THRESHOLD,
    check_tol,
    factor_unit_modulus_tol,
    unit_modulus_tol,
)

# Abelian string operators commute up to omega^k: the ratio of F_b(C2) F_a(C1)
# to F_a(C1) F_b(C2) is an exponent root, and the two agree entrywise after
# that phase, within this bound.
COMMUTATION_TOL = 1e-8


def njit(**_options):  # identity decorator: the oracles run as plain Python
    return lambda func: func


# ---------------------------------------------------------------------------
# Deligne products


def deligne_product(a: AnyonModel, b: AnyonModel) -> AnyonModel:
    """The stacked model A x B: label (x, y) is ``"x.y"`` at index x*n_B + y.

    Fusion, S-matrix and twists are tensor products, and every F- and
    R-symbol is the product of one symbol from each layer.
    """
    nb = b.n_labels

    def pair(keys_a, keys_b):
        return tuple(x * nb + y for x, y in zip(keys_a, keys_b))

    n = a.n_labels * nb
    fusion = np.einsum("ace,bdf->abcdef", a.fusion, b.fusion).reshape(n, n, n)
    return AnyonModel(
        name=f"{a.name}*{b.name}",
        labels=tuple(f"{x}.{y}" for x in a.labels for y in b.labels),
        dual=tuple(da * nb + db for da in a.dual for db in b.dual),
        fusion=fusion.astype(np.uint8),
        smatrix=np.kron(a.smatrix, b.smatrix),
        fsymbols={pair(ka, kb): va * vb for ka, va in a.fsymbols.items()
                  for kb, vb in b.fsymbols.items()},
        rsymbols={pair(ka, kb): va * vb for ka, va in a.rsymbols.items()
                  for kb, vb in b.rsymbols.items()},
        twists=np.kron(a.twists, b.twists),
    )


# ---------------------------------------------------------------------------
# Dimension recursions


def fibonacci_number(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def brute_force_labelings(model, boundary: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Filter the full slot product space by the fusion chain conditions."""
    m = len(boundary)
    if m < 4:
        raise ValueError("use the closed forms for fewer than 4 punctures")
    n_slots = m - 3
    out = []
    for cand in itertools.product(range(model.n_labels), repeat=n_slots):
        prev = boundary[0]
        ok = True
        for j, x in enumerate(cand):
            if not model.fusion[prev, boundary[j + 1], x]:
                ok = False
                break
            prev = x
        if ok and model.fusion[prev, boundary[m - 2], model.dual[boundary[m - 1]]]:
            out.append(cand)
    return out


# ---------------------------------------------------------------------------
# F-blocks boundary by boundary


def reference_fmove_block(model, i: int, j: int, k: int, l: int):
    """The block of boundary (i,j,k,l) from scans over all labels."""
    rows = [
        m
        for m in range(model.n_labels)
        if model.fusion[i, j, m] and model.fusion[m, l, k]
    ]
    cols = [
        n
        for n in range(model.n_labels)
        if model.fusion[i, l, n] and model.fusion[j, n, k]
    ]
    block = np.array(
        [[model.fsymbol(i, j, m, k, l, n) for n in cols] for m in rows],
        dtype=np.complex128,
    ).reshape(len(rows), len(cols))
    return tuple(rows), tuple(cols), block


def reference_fblocks_unitary(model, tol: float) -> CheckResult:
    """``validate``'s F-block unitarity check as one walk over all boundaries."""
    n = model.n_labels
    worst = 0.0
    bad = ""
    try:
        for i in range(n):
            for j in range(n):
                for l in range(n):
                    for k in range(n):
                        rows, cols, block = reference_fmove_block(model, i, j, k, l)
                        if not rows and not cols:
                            continue
                        if len(rows) != len(cols):
                            worst = max(worst, 1.0)
                            bad = f"non-square block at {(i, j, k, l)}"
                            continue
                        r = float(
                            np.abs(
                                block @ block.conj().T - np.eye(len(rows))
                            ).max()
                        )
                        if r > worst:
                            worst = r
                            if r >= tol:
                                bad = f"block {(i, j, k, l)}"
    except ModelError as exc:
        worst = float("inf")
        bad = str(exc)
    return CheckResult(worst < tol, worst, bad)


# ---------------------------------------------------------------------------
# Idempotents via eigendecomposition


def idempotents_by_eigendecomposition(model, seed: int = 7) -> np.ndarray:
    """Primitive idempotents from a generic member of the fusion algebra.

    The regular representation matrices commute, so a random real
    combination has the shared eigenvectors; its eigenprojectors are the
    primitive idempotents whenever the eigenvalues are distinct.
    """
    rng = np.random.default_rng(seed)
    n = model.n_labels
    mats = np.array([model.fusion[a].T.astype(np.complex128) for a in range(n)])
    for _ in range(20):
        coeff = rng.normal(size=n)
        gen = np.tensordot(coeff, mats, axes=1)
        vals, vecs = np.linalg.eig(gen)
        if np.min(np.abs(vals[:, None] - vals[None, :]) + np.eye(n)) > 1e-6:
            break
    else:
        raise RuntimeError("no generic combination found")
    inv = np.linalg.inv(vecs)
    projs = np.array([np.outer(vecs[:, k], inv[k]) for k in range(n)])
    return projs


def match_projector_sets(p_set: np.ndarray, q_set: np.ndarray, tol: float = 1e-8):
    """Bijection between two projector families, or None."""
    n = len(p_set)
    used = set()
    pairing = []
    for i in range(n):
        hit = None
        for j in range(n):
            if j in used:
                continue
            if np.abs(p_set[i] - q_set[j]).max() < tol:
                hit = j
                break
        if hit is None:
            return None
        used.add(hit)
        pairing.append((i, hit))
    return pairing


def all_subset_idempotents(regular_mats: np.ndarray, prims: np.ndarray, tol=1e-8):
    """Every subset sum of primitive idempotents, verified idempotent."""
    n = len(prims)
    found = []
    for mask in range(2**n):
        p = np.zeros_like(prims[0])
        for k in range(n):
            if mask >> k & 1:
                p = p + prims[k]
        if np.abs(p @ p - p).max() < tol:
            found.append(mask)
    return found


# ---------------------------------------------------------------------------
# Brute-force intertwiner families (dimension <= 4)

_GRID = 64


@njit(cache=True)
def _grid_scan_core(vp, vh, n_grid, coarse_tol, cap):
    """Scan d in (unit phases)^(n-1) grid for near-monomial V_out Pi D V^dag.

    vp = V_out with columns already permuted by pi, vh = V conjugate
    transpose.  d_0 is fixed to 1.  Returns an array of grid index tuples
    whose residual 1 - min_row max_col |W| passes the coarse tolerance.

    W is updated incrementally: stepping the flat index usually changes a
    single phase d_k, and W shifts by (d_k_new - d_k_old) * T_k where
    T_k[y, x] = vp[y, k] * vh[k, x].
    """
    n = vp.shape[0]
    n_free = n - 1
    total = 1
    for _ in range(n_free):
        total *= n_grid
    hits = np.empty((cap, n_free), dtype=np.int64)
    n_hits = 0
    phases = np.empty(n_grid, dtype=np.complex128)
    for g in range(n_grid):
        ang = 2.0 * np.pi * g / n_grid
        phases[g] = complex(np.cos(ang), np.sin(ang))
    rank = np.empty((n, n, n), dtype=np.complex128)
    for l in range(n):
        for y in range(n):
            for x in range(n):
                rank[l, y, x] = vp[y, l] * vh[l, x]
    d = np.empty(n, dtype=np.complex128)
    for l in range(n):
        d[l] = 1.0 + 0.0j
    w = np.zeros((n, n), dtype=np.complex128)
    for l in range(n):
        w += rank[l]
    idx = np.zeros(n_free, dtype=np.int64)
    for flat in range(total):
        if flat > 0:
            k = 0
            while idx[k] == n_grid - 1:
                old = d[k + 1]
                idx[k] = 0
                d[k + 1] = phases[0]
                w += (d[k + 1] - old) * rank[k + 1]
                k += 1
            old = d[k + 1]
            idx[k] += 1
            d[k + 1] = phases[idx[k]]
            w += (d[k + 1] - old) * rank[k + 1]
        worst = 1.0
        for y in range(n):
            best = 0.0
            for x in range(n):
                mag = abs(w[y, x])
                if mag > best:
                    best = mag
            if best < worst:
                worst = best
        if 1.0 - worst < coarse_tol:
            if n_hits < cap:
                for k in range(n_free):
                    hits[n_hits, k] = idx[k]
                n_hits += 1
    return hits[:n_hits]


def _refine(v, v_out, pi, d0, iters=200, target=1e-10):
    """Alternating projection onto the monomial set and the phase torus."""
    from scipy.optimize import linear_sum_assignment

    n = v.shape[0]
    vp = v_out[:, list(pi)]
    vh = v.conj().T
    d = d0.copy()
    prev = np.inf
    for it in range(iters):
        w = (vp * d[None, :]) @ vh
        rows, cols = linear_sum_assignment(-np.abs(w))
        m = np.zeros_like(w)
        for r, c in zip(rows, cols):
            val = w[r, c]
            m[r, c] = val / abs(val) if abs(val) > 0 else 1.0
        new_d = np.empty_like(d)
        mv = m @ v
        for l in range(n):
            z = np.vdot(vp[:, l], mv[:, l])
            new_d[l] = z / abs(z) if abs(z) > 1e-14 else d[l]
        new_d = new_d / new_d[0]
        resid = np.abs((vp * new_d[None, :]) @ vh - m).max()
        d = new_d
        if resid < target:
            return d, resid
        if it > 30 and resid > 0.99 * prev:
            break
        prev = resid
    return d, resid


def grid_intertwiner_solutions(v, v_out=None, coarse_tol=0.12, cap=200):
    """All (perm, phase vector) monomial intertwiner solutions, brute force.

    For every input permutation, grid-scan the gate phases, refine the
    near-hits, and keep deduplicated converged solutions (d_0 normalized to
    1).  Dimensions above 4 are rejected; the scan is exponential.

    The coarse tolerance has to stay well above the residual a true solution
    shows at its nearest grid point (about (pi/n_grid)^2 per phase) but tight
    enough that the acceptance blobs around solution manifolds stay small;
    loose blobs around continuum families can otherwise exhaust ``cap``
    before the scan order reaches a later family's region.
    """
    v = np.asarray(v, dtype=np.complex128)
    n = v.shape[0]
    if n > 4:
        raise ValueError("grid oracle is limited to dimension 4")
    if v_out is None:
        v_out = v
    n_grid = _GRID if n <= 3 else 32
    vh = v.conj().T
    out = []
    for pi in itertools.permutations(range(n)):
        vp = np.ascontiguousarray(v_out[:, list(pi)])
        hits = _grid_scan_core(vp, vh, n_grid, coarse_tol, 200000)
        sols = []
        seen = set()
        for h in hits:
            d0 = np.ones(n, dtype=np.complex128)
            for k in range(n - 1):
                d0[k + 1] = np.exp(2j * np.pi * h[k] / n_grid)
            d, resid = _refine(v, v_out, pi, d0)
            if resid > 1e-9:
                continue
            key = tuple(np.round(np.angle(d) % (2 * np.pi), 5))
            key = tuple(0.0 if abs(a - 2 * np.pi) < 1e-4 else a for a in key)
            if key not in seen:
                seen.add(key)
                sols.append((key, d))
            if len(sols) >= cap:
                break
        for _, d in sols:
            out.append((pi, d))
    return out


# ---------------------------------------------------------------------------
# Gate families, one object each


@dataclass(frozen=True)
class PhaseCoset:
    """Set of unit phase vectors {d : d_i = rel_i * lambda_{comp_i}}.

    ``components`` assigns each index a component id (0-based, first-seen
    order); ``rel`` holds the fixed unit ratio of d_i to its component's
    free parameter.  One free phase per component.
    """

    components: tuple[int, ...]
    rel: tuple[complex, ...]

    @property
    def dim(self) -> int:
        return len(self.components)

    @property
    def n_free(self) -> int:
        return max(self.components) + 1 if self.components else 0

    def instantiate(self, free=None) -> np.ndarray:
        k = self.n_free
        if free is None:
            free = np.ones(k, dtype=np.complex128)
        free = np.asarray(free, dtype=np.complex128)
        return np.array(
            [self.rel[i] * free[self.components[i]] for i in range(self.dim)],
            dtype=np.complex128,
        )

    def contains(self, d: np.ndarray, tol: float = MEMBERSHIP_TOL) -> bool:
        """A NaN, infinite or negative ``tol`` is a ValueError."""
        check_tol(tol)
        d = np.asarray(d, dtype=np.complex128)
        if d.shape[0] != self.dim:
            return False
        for c in range(self.n_free):
            idx = [i for i in range(self.dim) if self.components[i] == c]
            ratios = [d[i] / self.rel[i] for i in idx]
            if max(abs(r - ratios[0]) for r in ratios) > tol:
                return False
        return True

    def intersect(self, other: "PhaseCoset", tol: float = CYCLE_TOL) -> "PhaseCoset | None":
        """Conjoin constraints; None when they contradict."""
        n = self.dim
        if other.dim != n:
            raise ValueError("coset dimension mismatch")
        if self.n_free == 1 and other.n_free == 1:
            # Rigid cosets are single U(1) orbits; they are equal or disjoint.
            if max(abs(a - b) for a, b in zip(self.rel, other.rel)) <= tol:
                return self
            return None
        parent = list(range(n))
        ratio = [1.0 + 0j] * n  # d_i = ratio[i] * d_{parent[i]}

        def find(i: int) -> tuple[int, complex]:
            r = 1.0 + 0j
            while parent[i] != i:
                r *= ratio[i]
                i = parent[i]
            return i, r

        def union(i: int, j: int, rho: complex) -> bool:
            # constraint d_i = rho * d_j
            ri, fi = find(i)
            rj, fj = find(j)
            if ri == rj:
                return abs(fi - rho * fj) <= tol
            parent[ri] = rj
            ratio[ri] = rho * fj / fi
            return True

        for coset in (self, other):
            first: dict[int, int] = {}
            for i in range(n):
                c = coset.components[i]
                if c in first:
                    j = first[c]
                    if not union(i, j, coset.rel[i] / coset.rel[j]):
                        return None
                else:
                    first[c] = i
        comp_ids: dict[int, int] = {}
        components = []
        rel = []
        root_val: dict[int, complex] = {}
        for i in range(n):
            r, f = find(i)
            if r not in comp_ids:
                comp_ids[r] = len(comp_ids)
                root_val[r] = f
            components.append(comp_ids[r])
            rel.append(f / root_val[r])
        return PhaseCoset(components=tuple(components), rel=tuple(rel))


@dataclass
class IntertwinerSolution:
    """One connected solution family of V~ Pi D = Pi' D' V.

    The constraint graph lives on 2n phase variables: indices 0..n-1 are the
    gate phases d_l, indices n..2n-1 the output-side phases d'_m.
    ``phase_classes`` and ``relative_phases`` describe its components; a
    choice of one free phase per class instantiates (D, D').
    """

    perm_in: tuple[int, ...]
    perm_out: tuple[int, ...]
    phase_classes: tuple[int, ...]
    relative_phases: tuple[complex, ...]

    @property
    def n(self) -> int:
        return len(self.perm_in)

    @property
    def n_components(self) -> int:
        return max(self.phase_classes) + 1

    def instantiate(self, free=None) -> tuple[np.ndarray, np.ndarray]:
        k = self.n_components
        if free is None:
            free = np.ones(k, dtype=np.complex128)
        free = np.asarray(free, dtype=np.complex128)
        vals = np.array(
            [self.relative_phases[i] * free[self.phase_classes[i]] for i in range(2 * self.n)],
            dtype=np.complex128,
        )
        return vals[: self.n], vals[self.n :]

    def gate(self, free=None) -> MonomialMatrix:
        d, _ = self.instantiate(free)
        return MonomialMatrix(perm=self.perm_in, phases=tuple(d))


@dataclass
class GateFamily:
    """Connected family of monomial gates: fixed basis permutation, phase coset."""

    perm: tuple[int, ...]
    coset: PhaseCoset

    @property
    def n_free(self) -> int:
        return self.coset.n_free

    def gate(self, free=None) -> MonomialMatrix:
        return MonomialMatrix(perm=self.perm, phases=tuple(self.coset.instantiate(free)))

    def contains(self, gate: MonomialMatrix, tol: float = MEMBERSHIP_TOL) -> bool:
        check_tol(tol)
        return gate.perm == self.perm and self.coset.contains(
            np.array(gate.phases), tol
        )


def families(ds) -> list[GateFamily]:
    """The rows of a delta set as GateFamily objects; their rel entries are
    numpy complex128."""
    return [
        GateFamily(tuple(perm), PhaseCoset(ds.components, tuple(rel)))
        for perm, rel in zip(ds.perms.tolist(), ds.rel)
    ]


def intertwiner_solutions(
    v, perm_in=None, perm_out=None, *, v_out=None, tol=DEFAULT_TOL,
    zero_tol=ZERO_THRESHOLD, cycle_tol=CYCLE_TOL,
) -> list[IntertwinerSolution]:
    """The solver's accepted pairs with both sides of their phases, one
    IntertwinerSolution each: every phase of a pair divided by its
    component's root in one array division, in the solver's order."""
    forest, accepted = solver._solve(
        v, perm_in, perm_out, v_out, tol, zero_tol, cycle_tol, Budget()
    )
    sols = []
    for pis, pips, val in accepted:
        rel = val / val[:, forest.roots]
        for pi, pip, r in zip(pis.tolist(), pips.tolist(), rel):
            sols.append(IntertwinerSolution(tuple(pi), tuple(pip), forest.components, tuple(r)))
    return sols


def reference_iso_phase_functions(model, boundary, perm=None, tol=DEFAULT_TOL):
    """``iso_phase_set(...).phase_functions`` from one IntertwinerSolution per
    family: its instantiated gate phases d, then angle(d / d[0]) mod 2 pi."""
    rows, _, block = model.fmove_block(*boundary)
    pmap = dict(perm or ((a, a) for a in rows))
    pos = {a: i for i, a in enumerate(rows)}
    basis_perm = tuple(pos[pmap[a]] for a in rows)
    funcs = set()
    for sol in intertwiner_solutions(block.T, [basis_perm], v_out=block.T, tol=tol):
        d, _ = sol.instantiate()
        funcs.add(tuple(float(a) for a in np.mod(np.angle(d / d[0]), 2.0 * np.pi)))
    return tuple(sorted(funcs))


# ---------------------------------------------------------------------------
# Substitution checks for intertwiner families and phase cosets


def intertwiner_residual(v, sol, free=None, v_out=None) -> float:
    """Max-norm of V_out (Pi D) - (Pi' D') V for an instantiated family."""
    if v_out is None:
        v_out = v
    d, dp = sol.instantiate(free)
    lhs = v_out @ _monomial_array(sol.perm_in, d)
    rhs = _monomial_array(sol.perm_out, dp) @ v
    return float(np.abs(lhs - rhs).max())


def _monomial_array(perm, d) -> np.ndarray:
    n = len(perm)
    out = np.zeros((n, n), dtype=np.complex128)
    for l, p in enumerate(perm):
        out[p, l] = d[l]
    return out


def coset_is_subset_of(coset, other, tol: float = MEMBERSHIP_TOL) -> bool:
    """Every constraint of the phase coset ``other`` is implied by ``coset``."""
    for c in range(other.n_free):
        idx = [i for i in range(other.dim) if other.components[i] == c]
        j0 = idx[0]
        for i in idx[1:]:
            if coset.components[i] != coset.components[j0]:
                return False
            want = other.rel[i] / other.rel[j0]
            have = coset.rel[i] / coset.rel[j0]
            if abs(want - have) > tol:
                return False
    return True


def coset_same_as(a, b, tol: float = MEMBERSHIP_TOL) -> bool:
    return coset_is_subset_of(a, b, tol) and coset_is_subset_of(b, a, tol)


def projective_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max-norm distance between a and b after best-fit global phase alignment.

    The phase is read off at a's largest-magnitude entry, so equal matrices
    up to a global phase give ~0 regardless of that phase.
    """
    idx = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    ref = a[idx]
    if abs(ref) == 0.0:
        return float(np.abs(a - b).max())
    lam = b[idx] / ref
    mag = abs(lam)
    if mag > 0:
        lam /= mag
    return float(np.abs(a * lam - b).max())


# ---------------------------------------------------------------------------
# Curve permutations from one cut-dimension enumeration per curve


def cut_dimension_permutations(model, surface):
    """Per curve, the label bijections that keep ``cut_dimensions`` of every
    label, each curve's counts from its own enumeration of the labelings."""
    dap = standard_dap(surface)
    out = {}
    for curve in dap.curves:
        counts = cut_dimensions(model, surface, dap, curve)
        occurring = sorted(a for a, c in counts.items() if c > 0)
        out[curve] = [
            tuple(zip(occurring, images))
            for images in itertools.permutations(occurring)
            if all(counts[a] == counts[b] for a, b in zip(occurring, images))
        ]
    return out


# ---------------------------------------------------------------------------
# Permutation-pair search (recursive) and gate cosets (per solution)


def _reference_column_perms(absv, absvo, cands_in, tol):
    """Yield (perm_in, compat) by a recursive search, one column per level.

    ``compat[m, r]`` says that row m of |V| equals row r of |V_out| with its
    columns permuted by perm_in.  The wildcard assigns perm_in(0),
    perm_in(1), ... in ascending order and drops a prefix as soon as some
    row or column of ``compat`` is empty.
    """
    n = absv.shape[0]
    if cands_in is not None:
        for pi in cands_in:
            target = absvo[:, list(pi)]
            yield pi, (np.abs(target[None, :, :] - absv[:, None, :]) <= tol).all(axis=2)
        return
    agree = np.abs(absvo.T[None, :, None, :] - absv.T[:, None, :, None]) <= tol
    pi: list[int] = []

    def extend(compat):
        if len(pi) == n:
            yield tuple(pi), compat
            return
        for c in range(n):
            if c in pi:
                continue
            nxt = compat & agree[len(pi), c]
            if nxt.any(axis=0).all() and nxt.any(axis=1).all():
                pi.append(c)
                yield from extend(nxt)
                pi.pop()

    yield from extend(np.ones((n, n), dtype=bool))


def _reference_matchings(compat, cap):
    """Perfect matchings m -> pip[m] inside ``compat``, in lexicographic order."""
    n = compat.shape[0]
    options = [np.flatnonzero(row).tolist() for row in compat]
    found: list[tuple[int, ...]] = []
    pip: list[int] = []

    def extend():
        if len(pip) == n:
            if len(found) == cap:
                raise ValueError(
                    f"too many output-permutation matchings (more than {cap}); "
                    "restrict perm_out"
                )
            found.append(tuple(pip))
            return
        for r in options[len(pip)]:
            if r not in pip:
                pip.append(r)
                extend()
                pip.pop()

    extend()
    return found


def reference_candidate_pairs(absv, absvo, cands_in, cands_out, tol, cap=20000):
    """The feasible (perm_in, perm_out) pairs of the intertwiner search, in order.

    The recursive search the solver's array frontier replaced: perm_in in
    the order of the recursion (lexicographic for a wildcard, list order
    otherwise), and for each the perfect matchings of its compat in
    lexicographic order, or the explicit perm_out candidates it admits in
    list order.  More than ``cap`` matchings for one perm_in is a ValueError.
    """
    n = absv.shape[0]
    rows = list(range(n))
    pairs = []
    for pi, compat in _reference_column_perms(absv, absvo, cands_in, tol):
        if cands_out is None:
            outs = _reference_matchings(compat, cap)
        else:
            outs = [tuple(p) for p in cands_out if compat[rows, list(p)].all()]
        pairs.extend((tuple(pi), pip) for pip in outs)
    return pairs


def reference_gate_coset(sol) -> PhaseCoset:
    """Projection of an intertwiner family onto the gate phases d, per solution.

    Components are renumbered in first-seen order over the gate phases, and
    each phase is divided by the first phase of its component.
    """
    comp_ids: dict[int, int] = {}
    components = []
    rel = []
    first_val: dict[int, complex] = {}
    for i in range(sol.n):
        c = sol.phase_classes[i]
        if c not in comp_ids:
            comp_ids[c] = len(comp_ids)
            first_val[c] = sol.relative_phases[i]
        components.append(comp_ids[c])
        rel.append(sol.relative_phases[i] / first_val[c])
    return PhaseCoset(components=tuple(components), rel=tuple(rel))


# ---------------------------------------------------------------------------
# One-pair phase propagation (scalar)


def propagate_phases_scalar(v, v_out, pi, pip, support, tol, cycle_tol):
    """Solve the phase constraints for one fixed permutation pair.

    Builds the pair's constraint graph edge by edge and walks it breadth
    first with numpy scalars, rejecting on the first zero denominator,
    off-modulus ratio or inconsistent cycle.  Returns (phase_classes,
    relative_phases) over the 2n joint variables, or None.
    """
    n = v.shape[0]
    adj: list[list[tuple[int, complex]]] = [[] for _ in range(2 * n)]
    for m in range(n):
        row_t = v_out[pip[m]]
        for l in np.nonzero(support[m])[0]:
            denom = row_t[pi[l]]
            if abs(denom) <= 0.0:
                return None
            rho = v[m, l] / denom
            if abs(abs(rho) - 1.0) > max(tol * 10, 1e-7):
                return None
            rho /= abs(rho)
            # d_l = rho * d'_m
            adj[l].append((n + m, rho))
            adj[n + m].append((l, rho.conjugate()))
    comp = [-1] * (2 * n)
    val = [0j] * (2 * n)
    n_comp = 0
    for start in range(2 * n):
        if comp[start] != -1:
            continue
        comp[start] = n_comp
        val[start] = 1.0 + 0j
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w, factor in adj[u]:
                # val[u] = factor * val[w] <=> val[w] = conj(factor) * val[u]
                implied = factor.conjugate() * val[u]
                if comp[w] == -1:
                    comp[w] = n_comp
                    val[w] = implied
                    queue.append(w)
                elif abs(val[w] - implied) > cycle_tol:
                    return None
        n_comp += 1
    # Normalize each component to its lowest index.
    root_val: dict[int, complex] = {}
    rel = [0j] * (2 * n)
    for i in range(2 * n):
        c = comp[i]
        if c not in root_val:
            root_val[c] = val[i]
        rel[i] = val[i] / root_val[c]
    return tuple(comp), tuple(rel)


# ---------------------------------------------------------------------------
# Ising qubit dictionary


def _is_ising_model(model) -> bool:
    return model.labels == ("1", "psi", "sigma")


def ising_qubit_isomorphism(model, surface, values) -> str:
    """Bit string of an Ising sphere labeling: odd slots map 1 -> 0, psi -> 1.

    ``values`` is one labeling of ``surface``, a label index per internal
    curve.  Defined for S^2(sigma^M) with even M >= 4, where even slots are
    forced to sigma and the M/2 - 1 odd slots carry the qubits.
    """
    if not _is_ising_model(model):
        raise ModelError("qubit isomorphism is defined for the ising model only")
    if surface.kind != "punctured_sphere":
        raise ModelError("qubit isomorphism needs a punctured sphere")
    m = surface.punctures
    sigma = 2
    if m < 4 or m % 2 or any(x != sigma for x in surface.boundary_labels):
        raise ModelError("qubit isomorphism needs S^2(sigma^M) with even M >= 4")
    bits = []
    for k, x in enumerate(values):
        if k % 2 == 0:
            if x == sigma:
                raise ModelError("odd slot carries sigma; not a valid basis labeling")
            bits.append("0" if x == 0 else "1")
        elif x != sigma:
            raise ModelError("even slot must carry sigma")
    return "".join(bits)


# ---------------------------------------------------------------------------
# Sphere word filter by dense conjugation


def dense_sphere_word_filter(model, surface, words, tol=1e-9):
    """Product candidates of the factorized sphere path that survive ``words``.

    Every combination of per-curve options (a cut-dimension-preserving label
    permutation with one of its local phase functions) is built as a dense
    dim x dim monomial gate on the labeling basis, and every word matrix
    conjugates it; the gate survives when all conjugates stay monomial.
    Returns the survivors as (basis_perm, phase angles) tuples, with angles
    summed per free curve in curve order as the classifier does, and the
    number of candidates.
    """
    from anyongates import (
        allowed_curve_permutations,
        enumerate_labelings,
        evaluate_word,
        iso_phase_set,
    )
    from anyongates.classify import curve_boundary
    from anyongates.solver import is_monomial

    basis = enumerate_labelings(model, surface)
    allowed = allowed_curve_permutations(model, surface)
    n_curves = surface.punctures - 3
    occurring = [sorted({lab[s] for lab in basis.labelings}) for s in range(n_curves)]
    options = []
    for s in range(n_curves):
        if len(occurring[s]) == 1:
            continue
        left = occurring[s - 1][0] if s > 0 else None
        right = occurring[s + 1][0] if s < n_curves - 1 else None
        boundary = curve_boundary(model, surface, s + 1, (left, right))
        opts = []
        for perm in allowed[f"C{s + 1}"]:
            iso = iso_phase_set(model, boundary, perm, tol)
            for f in iso.phase_functions:
                opts.append((s, dict(perm), dict(zip(iso.curve_labels, f))))
        options.append(opts)
    word_matrices = [evaluate_word(model, surface, w).matrix for w in words]
    n = basis.dim
    survivors = []
    n_candidates = 0
    for combo in itertools.product(*options):
        n_candidates += 1
        gate = np.zeros((n, n), dtype=np.complex128)
        angles = []
        for i, lab in enumerate(basis.labelings):
            target = list(lab)
            angle = 0.0
            for s, pmap, fmap in combo:
                angle += fmap[lab[s]]
                target[s] = pmap[lab[s]]
            gate[basis.index[tuple(target)], i] = np.exp(1j * angle)
            angles.append(angle)
        if all(is_monomial(v @ gate @ v.conj().T, tol) for v in word_matrices):
            perm = tuple(int(np.argmax(np.abs(gate[:, i]))) for i in range(n))
            phases = tuple(float(np.angle(np.exp(1j * a))) for a in angles)
            survivors.append((perm, phases))
    return survivors, n_candidates


# ---------------------------------------------------------------------------
# Abelian Pauli group by explicit closure


@dataclass(frozen=True)
class PauliElement:
    """omega^phase F_a(C1) F_b(C2) as exponent data, omega = exp(2 pi i / N)."""

    a: int
    b: int
    phase: int
    modulus: int

    def key(self):
        return (self.a, self.b, self.phase % self.modulus)


def _commutation_exponent(model) -> np.ndarray:
    """c[a, b] with F_b(C2) F_a(C1) = omega^{c[a,b]} F_a(C1) F_b(C2)."""
    n = model.n_labels
    nexp = group_coordinates(model).exponent
    f1, f2 = string_operator_matrices(model)
    c = np.zeros((n, n), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            lhs = f2[b] @ f1[a]
            rhs = f1[a] @ f2[b]
            idx = np.unravel_index(np.abs(rhs).argmax(), rhs.shape)
            ratio = lhs[idx] / rhs[idx]
            k = round(np.angle(ratio) * nexp / (2 * np.pi)) % nexp
            if abs(ratio - np.exp(2j * np.pi * k / nexp)) > COMMUTATION_TOL:
                raise RuntimeError("commutation phase is not an exponent root")
            if np.abs(lhs - np.exp(2j * np.pi * k / nexp) * rhs).max() > COMMUTATION_TOL:
                raise RuntimeError("string operators do not commute projectively")
            c[a, b] = k
    return c


def pauli_group_orders(model) -> tuple[int, int]:
    """(single-loop, full) Pauli group orders by explicit closure.

    Elements are tracked as (a, b, phase) exponent triples with phases in
    the group generated by omega = exp(2 pi i / N), N the group exponent.
    The closure is taken over products of the generators and omega itself.
    """
    mul = fusion_table(model)
    n = model.n_labels
    nexp = group_coordinates(model).exponent
    comm = _commutation_exponent(model)

    def multiply(x: PauliElement, y: PauliElement) -> PauliElement:
        # (F_a F_b)(F_a' F_b') = omega^{comm[a', b]} F_{a a'} F_{b b'}
        return PauliElement(
            a=int(mul[x.a, y.a]),
            b=int(mul[x.b, y.b]),
            phase=(x.phase + y.phase + comm[y.a, x.b]) % nexp,
            modulus=nexp,
        )

    def closure(gens: list[PauliElement]) -> int:
        ident = PauliElement(0, 0, 0, nexp)
        seen = {ident.key()}
        frontier = [ident]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = multiply(x, g)
                    if y.key() not in seen:
                        seen.add(y.key())
                        nxt.append(y)
            frontier = nxt
        return len(seen)

    omega = PauliElement(0, 0, 1, nexp)
    single_gens = [omega] + [PauliElement(a, 0, 0, nexp) for a in range(n)]
    full_gens = single_gens + [PauliElement(0, b, 0, nexp) for b in range(n)]
    return closure(single_gens), closure(full_gens)


def pauli_element_orders_divide_exponent(model) -> bool:
    """Every label's fusion power cycle closes within the group exponent."""
    mul = fusion_table(model)
    nexp = group_coordinates(model).exponent
    for a in range(model.n_labels):
        x = 0
        for _ in range(nexp):
            x = int(mul[x, a])
        if x != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Affine label maps by repeated fusion


def _pow(mul, g: int, k: int) -> int:
    out = 0
    for _ in range(k):
        out = int(mul[out, g])
    return out


def _order(mul, g: int) -> int:
    x, k = g, 1
    while x != 0:
        x = int(mul[x, g])
        k += 1
    return k


def reference_automorphisms(model) -> list[tuple[int, ...]]:
    """Fusion-group automorphisms, one fused power of a generator image at a
    time, sorted."""
    n = model.n_labels
    mul = fusion_table(model)
    gc = group_coordinates(model)
    elem_order = [_order(mul, x) for x in range(n)]
    candidates = [
        [h for h in range(n) if gc.orders[i] % elem_order[h] == 0]
        for i in range(len(gc.generators))
    ]
    out = []
    for images in itertools.product(*candidates):
        perm = []
        for x in range(n):
            y = 0
            for img, e in zip(images, gc.coords[x]):
                y = int(mul[y, _pow(mul, img, e)])
            perm.append(y)
        if len(set(perm)) == n:
            out.append(tuple(perm))
    return sorted(out)


def reference_affine_permutations(model) -> list[tuple[int, ...]]:
    """Label maps x -> c + alpha(x) as sorted tuples, from
    ``reference_automorphisms``."""
    mul = fusion_table(model)
    autos = reference_automorphisms(model)
    out = []
    for c in range(model.n_labels):
        for alpha in autos:
            out.append(tuple(int(mul[c, alpha[x]]) for x in range(model.n_labels)))
    return sorted(set(out))


# ---------------------------------------------------------------------------
# Closed-form torus families, verified one dense product per family


def dense_torus_word_families(model, words, tol=DEFAULT_TOL):
    """``torus_word_families`` with one permutation per loop turn.

    Each (word, pi, b) family is verified by its dense product V (Pi D) V^dag
    against ``VERIFY_ZERO_THRESHOLD`` and ``unit_modulus_tol(tol)``, not by
    its character and permutation factors; the cosets are built and joined
    by the same formulas, so they are equal value for value.
    """
    if isinstance(words, str):
        words = [words]
    surface = SurfaceSpec(kind="torus")
    n = model.n_labels
    suffixes, vmats = [], []
    for word in words:
        tokens = parse_word(word, surface)
        s_at = [i for i, (g, _) in enumerate(tokens) if g == "s"]
        if len(s_at) != 1:
            raise ValueError(f"word {word!r} does not contain exactly one s letter")
        suffix_diag = np.ones(n, dtype=np.complex128)
        for _, sign in tokens[s_at[0] + 1 :]:
            suffix_diag *= model.twists if sign > 0 else np.conj(model.twists)
        suffixes.append(suffix_diag)
        vmats.append(evaluate_word(model, surface, tokens).matrix)
    suffix = np.array(suffixes)
    vmat = np.array(vmats)
    vh = np.conj(vmat).transpose(0, 2, 1)[:, None]
    chi = characters(model)
    mul = fusion_table(model)
    unit_tol = unit_modulus_tol(tol)
    later = np.arange(1, len(words))[:, None]

    found = []
    for pi in reference_affine_permutations(model):
        pi_arr = np.array(pi)
        dress = suffix * np.conj(suffix[:, pi_arr])
        diags = chi[None] * dress[:, None, :]
        w = (vmat[:, None, :, pi_arr] * diags[:, :, None, :]) @ vh
        absw = np.abs(w)
        big = absw > VERIFY_ZERO_THRESHOLD
        ok = (
            (big.sum(axis=3) == 1).all(axis=2)
            & (big.sum(axis=2) == 1).all(axis=2)
            & (np.abs(np.where(big, absw, 1.0) - 1.0).max(axis=(2, 3)) < unit_tol)
        )
        if not ok.all():
            k, b = (int(i) for i in np.argwhere(~ok)[0])
            raise RuntimeError(
                f"derived family (word={words[k]!r}, pi={pi}, b={b}) "
                "failed verification"
            )
        rel = diags / diags[:, :, :1]
        q = rel[0, 0] * np.conj(rel[1:, 0])
        c = np.abs(q @ np.conj(chi).T).argmax(axis=1)
        partner = mul[:, c].T
        gap = np.abs(rel[0][None] - rel[later, partner]).max(axis=2)
        for b in np.flatnonzero((gap <= CYCLE_TOL).all(axis=0)):
            coset = PhaseCoset(components=(0,) * n, rel=tuple(rel[0, b]))
            found.append(GateFamily(perm=pi, coset=coset))
    return found


def reference_torus_word_families(model, words, tol=DEFAULT_TOL):
    """``torus_word_families`` with one permutation factor per affine map,
    as an iterator over chunks of its (perms, rel) rows.

    Each affine Pi gets its own factor V Pi diag(dress) V^dag, checked
    monomial with ``VERIFY_ZERO_THRESHOLD / 4`` (two factors per family:
    character and permutation), and each (Pi, chi_b) its own partner
    character and gap test, in chunks of (maps, words, n, n) stacks.  The
    rows are yielded chunk by chunk, so a caller need not hold them all.
    """
    if isinstance(words, str):
        words = [words]
    surface = SurfaceSpec(kind="torus")
    n = model.n_labels
    suffixes, vmats = [], []
    for word in words:
        tokens = parse_word(word, surface)
        s_at = [i for i, (g, _) in enumerate(tokens) if g == "s"]
        if len(s_at) != 1:
            raise ValueError(f"word {word!r} does not contain exactly one s letter")
        suffix_diag = np.ones(n, dtype=np.complex128)
        for _, sign in tokens[s_at[0] + 1 :]:
            suffix_diag *= model.twists if sign > 0 else np.conj(model.twists)
        suffixes.append(suffix_diag)
        vmats.append(evaluate_word(model, surface, tokens).matrix)
    suffix = np.array(suffixes)  # (word, x)
    vmat = np.array(vmats)  # (word, y, z)
    vh = np.conj(vmat).transpose(0, 2, 1)  # (word, z, x)
    chi = characters(model)
    mul = fusion_table(model)
    unit_tol = factor_unit_modulus_tol(tol)
    zero_tol = VERIFY_ZERO_THRESHOLD / 4

    ok = monomial_mask((vmat[:, None] * chi[None, :, None, :]) @ vh[:, None], unit_tol, zero_tol)
    if not ok.all():
        k, b = (int(i) for i in np.argwhere(~ok)[0])
        raise RuntimeError(f"derived character (word={words[k]!r}, b={b}) failed verification")

    perms = affine_permutations(model)
    suffix_conj = np.conj(suffix)
    later = np.arange(1, len(words))[:, None]
    chunk = 64
    for start in range(0, len(perms), chunk):
        pi = perms[start : start + chunk]  # (p, x)
        dress = suffix * suffix_conj[:, pi].transpose(1, 0, 2)  # (p, word, x)
        w = (vmat[:, :, pi].transpose(2, 0, 1, 3) * dress[:, :, None, :]) @ vh
        ok = monomial_mask(w, unit_tol, zero_tol)
        if not ok.all():
            i, k = (int(i) for i in np.argwhere(~ok)[0])
            raise RuntimeError(
                f"derived family (word={words[k]!r}, pi={tuple(pi[i].tolist())}) "
                "failed verification"
            )
        diags = chi * dress[:, :, None, :]  # [p, word, b] holds D for chi_b
        rel = diags / diags[..., :1]
        q = rel[:, :1, 0] * np.conj(rel[:, 1:, 0])  # (p, later word, x)
        c = np.abs(q @ np.conj(chi).T).argmax(axis=2)
        partner = mul[:, c].transpose(1, 2, 0)  # (p, later word, b)
        rows = np.arange(len(pi))[:, None, None]
        gap = np.abs(rel[:, :1] - rel[rows, later, partner]).max(axis=3)
        i, b = np.nonzero((gap <= CYCLE_TOL).all(axis=1))
        yield pi[i], rel[i, 0, b]


def contains_logical_paulis_by_scan(model, inter) -> bool:
    """Every string operator on either cycle lies in some family of ``inter``,
    each tested against every family."""
    f1, f2 = string_operator_matrices(model)
    fams = families(inter)
    return all(
        any(fam.contains(monomial_from_matrix(f[a])) for fam in fams)
        for a in range(model.n_labels)
        for f in (f1, f2)
    )


def reference_contains_logical_paulis(model, inter) -> bool:
    """Every string operator on either cycle lies in some family of
    ``inter``, the families grouped by permutation in a dict of GateFamily
    objects."""
    by_perm: dict[tuple[int, ...], list] = {}
    for fam in families(inter):
        by_perm.setdefault(fam.perm, []).append(fam)
    f1, f2 = string_operator_matrices(model)
    gates = (monomial_from_matrix(f[a]) for a in range(model.n_labels) for f in (f1, f2))
    return all(
        any(fam.contains(gate) for fam in by_perm.get(gate.perm, ())) for gate in gates
    )


def same_perm_pairs(perms_a: np.ndarray, perms_b: np.ndarray):
    """Index arrays (i, j) of every pair of rows with equal permutations,
    ordered by i, then by j, from a dict of row tuples instead of a join of
    row keys."""
    rows_b: dict[tuple[int, ...], list[int]] = {}
    for j, perm in enumerate(map(tuple, perms_b.tolist())):
        rows_b.setdefault(perm, []).append(j)
    pairs = [
        (i, j) for i, perm in enumerate(map(tuple, perms_a.tolist())) for j in rows_b.get(perm, ())
    ]
    return np.array(pairs, dtype=np.intp).reshape(-1, 2).T


def reference_intersect_delta(sets, tol: float = CYCLE_TOL) -> list:
    """``intersect_delta`` on GateFamily objects: every pair of families with
    equal permutation goes through ``PhaseCoset.intersect``."""
    current = families(sets[0])
    for s in sets[1:]:
        by_perm: dict[tuple[int, ...], list] = {}
        for fam_b in families(s):
            by_perm.setdefault(fam_b.perm, []).append(fam_b)
        nxt = []
        for fam_a in current:
            for fam_b in by_perm.get(fam_a.perm, ()):
                coset = fam_a.coset.intersect(fam_b.coset, tol)
                if coset is not None:
                    nxt.append(GateFamily(perm=fam_a.perm, coset=coset))
        current = nxt
    return current


def reference_clifford_star_batch(model, perms, phases, tol: float = CLIFFORD_TOL):
    """``clifford_star_batch`` with one (gates x n) pass per string
    generator, C1 generators included, each conjugated by the full Pi D."""
    perms = np.asarray(perms, dtype=np.int64)
    d = np.asarray(phases, dtype=np.complex128)
    n = model.n_labels
    f1, f2 = string_operator_matrices(model)
    gens = [monomial_from_matrix(f) for f in (*f1, *f2)]
    chi = np.array([g.phases for g in gens[:n]])
    gram = chi @ np.conj(chi).T
    c2_phases = np.array([g.phases for g in gens[n:]])
    if (
        np.abs(gram - n * np.eye(n)).max() > STRING_BASIS_TOL
        or np.abs(c2_phases - 1.0).max() > STRING_BASIS_TOL
    ):
        raise RuntimeError("string operators are not characters and permutations")
    nexp = group_coordinates(model).exponent
    rows = np.arange(len(perms))[:, None]
    member = np.ones(len(perms), dtype=bool)
    roots = np.ones(len(perms), dtype=bool)
    for gen in gens:
        g = np.array(gen.perm)
        y = np.zeros_like(d)  # phases of U G U^dag, by row
        y[rows, perms[:, g]] = np.conj(d) * np.array(gen.phases) * d[:, g]
        coeffs = y @ np.conj(chi).T / n
        absc = np.abs(coeffs)
        top = coeffs[rows[:, 0], absc.argmax(axis=1)]
        member &= ((absc > tol).sum(axis=1) == 1) & (np.abs(np.abs(top) - 1.0) <= tol)
        roots &= np.abs(top**nexp - 1.0) <= ROOT_TOL
    return member, member & roots


# ---------------------------------------------------------------------------
# Clifford-star membership by exhaustive Pauli matching


def membership_by_search(model, gate_matrix, tol=1e-8):
    """Does U map every string generator to phase * string, by direct search."""
    f1, f2 = string_operator_matrices(model)
    n = model.n_labels
    paulis = [f1[a] @ f2[b] for a in range(n) for b in range(n)]
    u = gate_matrix
    uh = u.conj().T
    for fset in (f1, f2):
        for a in range(n):
            x = u @ fset[a] @ uh
            matched = False
            for p in paulis:
                idx = np.unravel_index(np.abs(p).argmax(), p.shape)
                if abs(p[idx]) < tol:
                    continue
                phase = x[idx] / p[idx]
                if abs(abs(phase) - 1.0) < tol and np.abs(x - phase * p).max() < tol:
                    matched = True
                    break
            if not matched:
                return False
    return True


def clifford_star_membership_dense(model, gate_matrix, tol=1e-8):
    """(maps strings to strings up to phase, phases are exponent roots).

    The string operators F_a(C1) F_b(C2) are an orthogonal basis of the
    label-space matrix algebra, so U F U^dag expands with coefficients
    tr(basis^dag X) / n.  Membership in the monomial Clifford analogue
    needs exactly one unit-modulus coefficient per conjugated generator.
    """
    n = model.n_labels
    f1, f2 = string_operator_matrices(model)
    basis = np.array([f1[a] @ f2[b] for a in range(n) for b in range(n)])
    norms = np.einsum("kij,kij->k", np.conj(basis), basis).real
    if np.abs(norms - n).max() > 1e-6:
        raise RuntimeError("string basis is not orthogonal with norm sqrt(n)")
    u = gate_matrix
    uh = u.conj().T
    nexp = group_coordinates(model).exponent
    roots_ok = True
    for a in range(n):
        for gen in (f1[a], f2[a]):
            x = u @ gen @ uh
            coeffs = np.einsum("kij,ij->k", np.conj(basis), x) / n
            big = np.abs(coeffs) > tol
            if big.sum() != 1:
                return False, False
            c = coeffs[big][0]
            if abs(abs(c) - 1.0) > tol:
                return False, False
            if abs(c**nexp - 1.0) > 1e-6:
                roots_ok = False
    return True, roots_ok


# ---------------------------------------------------------------------------
# Dense state-space lattice check (smallest sizes only)


def _qudit_xz(nmod: int):
    x = np.zeros((nmod, nmod), dtype=np.complex128)
    for k in range(nmod):
        x[(k + 1) % nmod, k] = 1.0
    z = np.diag(np.exp(2j * np.pi * np.arange(nmod) / nmod))
    return x, z


def dense_lattice_operator(op) -> np.ndarray:
    """Materialize a LatticeOperator as a dense matrix (tiny lattices only)."""
    nmod = op.modulus
    n_edges = len(op.x_exp)
    if nmod**n_edges > 4096:
        raise ValueError("state space too large to materialize")
    x, z = _qudit_xz(nmod)
    out = np.array([[1.0 + 0j]])
    for xe, ze in zip(op.x_exp, op.z_exp):
        factor = np.linalg.matrix_power(x, xe) @ np.linalg.matrix_power(z, ze)
        out = np.kron(out, factor)
    return out


def compose_lattice_operators(a, b):
    """The product of two lattice operators: exponent vectors add mod N."""
    nmod = a.modulus
    return LatticeOperator(
        modulus=nmod,
        x_exp=tuple((p + q) % nmod for p, q in zip(a.x_exp, b.x_exp)),
        z_exp=tuple((p + q) % nmod for p, q in zip(a.z_exp, b.z_exp)),
    )


# ---------------------------------------------------------------------------
# Report JSON through the standard library encoder


def _round_floats(obj):
    """Every float x as round(x, 10) + 0.0, every tuple as a list."""
    if isinstance(obj, float):
        return round(obj, 10) + 0.0
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def reference_report_json(payload, indent: int | None = 2) -> str:
    """Sorted-key JSON from the standard library encoder after _round_floats."""
    return json.dumps(_round_floats(payload), sort_keys=True, indent=indent)


def reference_json_sort(items: list) -> list:
    """``items`` in the stable order of their compact sorted-key JSON text."""
    return sorted(items, key=lambda v: reference_report_json(v, indent=None))


# ---------------------------------------------------------------------------
# Class and family records, one dict per record


def reference_delta_intersection(inter) -> list[dict]:
    """The ``delta`` command's families, one dict each, in set order."""
    perms = inter.perms.tolist()
    angles = np.angle(inter.instantiate_families())
    free = inter.n_free
    return [
        {"perm": perm, "phases": ph, "free_phases": free}
        for perm, ph in zip(perms, angles.tolist())
    ]


def reference_family_classes(inter) -> list[dict]:
    """A delta set's classes, one dict each, stably sorted by their compact
    JSON text."""
    angles = np.angle(inter.instantiate_families())
    free = inter.n_free
    return reference_json_sort([
        {"basis_perm": perm, "phases": row, "free_phases": free}
        for perm, row in zip(inter.perms.tolist(), angles.tolist())
    ])


def reference_factorized_classes(perms, options, phases) -> list[dict]:
    """Factorized sphere classes, one dict each, row r of ``perms`` and
    ``phases`` in order.  ``options`` maps each curve name to (option index
    per class, the options' entry dicts); classes with the same option on a
    curve share its entry dict."""
    names = list(options)
    picks = zip(*(options[name][0].tolist() for name in names))
    return [
        {
            "basis_perm": perm,
            "curves": {name: options[name][1][k] for name, k in zip(names, row)},
            "phases": ph,
        }
        for perm, row, ph in zip(perms.tolist(), picks, phases.tolist())
    ]
