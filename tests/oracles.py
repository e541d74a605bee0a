"""Independent reference computations used to cross-check the package.

Everything here deliberately avoids the code paths under test: dimensions
come from recursions instead of the labeling enumerator, idempotents from
eigendecompositions instead of the S-matrix formula, intertwiner families
from a brute-force phase-grid search instead of graph propagation, the
phases of a permutation pair from a scalar walk over that pair's own
constraint graph instead of the batched walk over a shared forest, the
sphere word filter from dense conjugation of every product gate instead of
per-curve local blocks, Clifford-star membership from the dense expansion in the string basis instead
of gate permutations and phases, and the lattice commutation phases from
dense state-space matrices instead of exponent vectors.
"""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np


def njit(**_options):  # identity decorator: the oracles run as plain Python
    return lambda func: func


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
            iso = iso_phase_set(model, boundary, None, perm, tol)
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
# Clifford-star membership by exhaustive Pauli matching


def membership_by_search(model, gate_matrix, tol=1e-8):
    """Does U map every string generator to phase * string, by direct search."""
    from anyongates.abelian import string_operator_matrices

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
    from anyongates.abelian import group_coordinates, string_operator_matrices

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
