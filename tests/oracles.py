"""Independent reference computations used to cross-check the package.

Everything here deliberately avoids the code paths under test: gate
families are one object each (``PhaseCoset``, ``IntertwinerSolution``,
``GateFamily``, with per-object membership, intersection and
instantiation) instead of rows of a columnar ``DeltaSet``, dimensions come
from recursions instead of the labeling enumerator, idempotents from
eigendecompositions instead of the S-matrix formula, intertwiner families
from a brute-force phase-grid search instead of graph propagation, the
feasible permutation pairs from a recursive search instead of array
frontiers, the frontiers' prefix and matching states as boolean matrices
instead of packed rows, the constraint forest's cycle checks from both ends
of every edge instead of once per non-tree edge, the phases of a chunk of
pairs with one column per pair instead of one per distinct denominator
pattern, the allowed curve
permutations from one cut-dimension
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
and one gap test per translation and per automorphism, the
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
commutation phases from dense state-space matrices and from one loop pair
at a time over every edge instead of one integer product over the edges two
loop families share, the report JSON from the standard library encoder after a rounding
walk instead of the package's writer, and a ``Rows`` filled in leaf by
leaf into one ``%``-template instead of one text per distinct row, the
order of a class list by sorting on that compact text and by one rank per
leaf instead of one rank per block's distinct row, the class and family
records as one dict per record instead of a ``Rows`` of columns, and a
monomial matrix read one column at a time instead of a stack of string
operators in one array pass, the abelian doubles by per-label loops and
a walk over the fusion products instead of exponent-coordinate arrays and
the block layout, the C2 string operators by the three-operand n^5 sum
over the diagonal C1 strings instead of an n^4 product, and ``validate``'s
fusion associativity by two dense L^5 einsums instead of a join of the
channel table, its R-symbol and twist check by a walk over every label
pair's fusion products instead of one array pass, and the Verlinde fusion
by one product per label pair instead of one stacked product.

The module also holds the helpers only tests need, which the package does
not export: a delta set's rows as GateFamily objects (``families``), the
solver's accepted pairs with both sides of their phases
(``intertwiner_solutions``), the residual of an instantiated intertwiner
family, phase-coset comparison, the projective distance of two word
matrices, the Ising qubit dictionary, the abelian Pauli group by explicit
closure, lattice operators with their dyon loops, commutation exponents and
products, Deligne products of two models, the Verlinde algebra (regular
representation, idempotents from the S-matrix formula, the transported
f-basis and its coefficient matrix Lambda), the loop-label actions of a
torus gate on both cycles, and cut dimensions from the brute-force
labelings.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from anyongates.abelian import (
    affine_permutations,
    characters,
    fusion_table,
    group_coordinates,
    string_operator_matrices,
    string_operators,
)
from anyongates.budget import Budget
from anyongates.mcg import evaluate_word, parse_word
from anyongates.models import AnyonModel, CheckResult, ModelError, quantum_dimensions, zn_toric
from anyongates import solver
from anyongates import jsonwriter
from anyongates.solver import MonomialMatrix, monomial_mask
from anyongates.surfaces import SurfaceSpec, standard_dap
from anyongates.tolerances import (
    CLIFFORD_TOL,
    CYCLE_TOL,
    DEFAULT_TOL,
    LATTICE_TOL,
    MEMBERSHIP_TOL,
    MONOMIAL_READ_TOL,
    ROOT_TOL,
    STRING_BASIS_TOL,
    VERIFY_ZERO_THRESHOLD,
    ZERO_THRESHOLD,
    check_tol,
    factor_unit_modulus_tol,
    ratio_modulus_tol,
    unit_modulus_tol,
)

# Abelian string operators commute up to omega^k: the ratio of F_b(C2) F_a(C1)
# to F_a(C1) F_b(C2) is an exponent root, and the two agree entrywise after
# that phase, within this bound.
COMMUTATION_TOL = 1e-8


def njit(**_options):  # identity decorator: the oracles run as plain Python
    return lambda func: func


# ---------------------------------------------------------------------------
# Monomial matrices read one column at a time


def monomial_from_matrix(
    mat: np.ndarray, zero_tol: float = ZERO_THRESHOLD
) -> MonomialMatrix:
    """Read a MonomialMatrix off a numerically monomial array."""
    n = mat.shape[0]
    perm = [0] * n
    phases = [0j] * n
    absm = np.abs(mat)
    for l in range(n):
        col = absm[:, l]
        p = int(col.argmax())
        if col[p] <= zero_tol or (col > zero_tol).sum() != 1:
            raise ValueError(f"column {l} is not monomial")
        if abs(col[p] - 1.0) > MONOMIAL_READ_TOL:
            raise ValueError(f"column {l} entry has modulus {col[p]:.3e}, not 1")
        perm[l] = p
        phases[l] = mat[p, l] / col[p]
    if sorted(perm) != list(range(n)):
        raise ValueError("column maxima do not form a permutation")
    return MonomialMatrix(perm=tuple(perm), phases=tuple(phases))


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
# Abelian doubles label by label


def reference_abelian_double(orders: list[int], special_names: bool) -> AnyonModel:
    """The quantum double of Z_{N1} x ... x Z_{Nr} from per-label loops.

    Every S entry, twist and R-symbol is its own ``cmath.exp`` of a Python
    float sum over the factors; the F-symbols, all 1, are keyed by a walk
    over the fusion products.
    """
    pairs_per_factor = [
        [(a, b) for a in range(n) for b in range(n)] for n in orders
    ]
    coords: list[tuple[tuple[int, int], ...]] = []

    def build(idx, acc):
        if idx == len(orders):
            coords.append(tuple(acc))
            return
        for p in pairs_per_factor[idx]:
            build(idx + 1, acc + [p])

    build(0, [])
    n_lab = len(coords)
    index_of = {c: i for i, c in enumerate(coords)}

    if special_names:
        names_map = {(0, 0): "1", (0, 1): "e", (1, 0): "m", (1, 1): "eps"}
        labels = tuple(names_map[c[0]] for c in coords)
    elif len(orders) == 1:
        labels = tuple("(%d,%d)" % c[0] for c in coords)
    else:
        labels = tuple("x".join("(%d,%d)" % p for p in c) for c in coords)

    def add(c1, c2):
        return tuple(
            ((a1 + a2) % n, (b1 + b2) % n)
            for (a1, b1), (a2, b2), n in zip(c1, c2, orders)
        )

    def neg(c):
        return tuple(((-a) % n, (-b) % n) for (a, b), n in zip(c, orders))

    fusion = np.zeros((n_lab, n_lab, n_lab), dtype=np.uint8)
    for i, c1 in enumerate(coords):
        for j, c2 in enumerate(coords):
            fusion[i, j, index_of[add(c1, c2)]] = 1
    dual = tuple(index_of[neg(c)] for c in coords)

    smatrix = np.zeros((n_lab, n_lab), dtype=np.complex128)
    twists = np.zeros(n_lab, dtype=np.complex128)
    for i, c1 in enumerate(coords):
        twists[i] = cmath.exp(
            2j * math.pi * sum(a * b / n for (a, b), n in zip(c1, orders))
        )
        for j, c2 in enumerate(coords):
            expo = sum(
                (a1 * b2 + b1 * a2) / n
                for (a1, b1), (a2, b2), n in zip(c1, c2, orders)
            )
            smatrix[i, j] = cmath.exp(-2j * math.pi * expo) / n_lab ** 0.5

    def rentry(a, b):
        return cmath.exp(
            2j * math.pi
            * sum(b1 * a2 / n for (a1, b1), (a2, b2), n in zip(coords[a], coords[b], orders))
        )

    product = [[np.flatnonzero(fusion[a, b]).tolist() for b in range(n_lab)] for a in range(n_lab)]
    fsymbols = {
        (i, j, m, k, l, n): 1.0
        for i in range(n_lab) for j in range(n_lab) for m in product[i][j]
        for l in range(n_lab) for k in product[m][l] for n in product[i][l]
        if fusion[j, n, k]
    }
    return AnyonModel(
        name=(
            "zn_toric:%d" % orders[0]
            if len(orders) == 1
            else "dg_abelian:" + ",".join(str(x) for x in orders)
        ),
        labels=labels,
        dual=dual,
        fusion=fusion,
        smatrix=smatrix,
        fsymbols=fsymbols,
        rsymbols={
            (a, b, c): rentry(a, b) for a, b, c in np.argwhere(fusion).tolist()
        },
        twists=twists,
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


def cut_dimensions(model, surface, dap, curve: str) -> dict[int, int]:
    """Per label, how many brute-force labelings give ``curve`` that label.

    By the gluing axiom this is the dimension of the cut surface's space for
    each flux value; the counts sum to the total dimension.
    """
    pos = dap.curves.index(curve)
    out = {a: 0 for a in range(model.n_labels)}
    for lab in brute_force_labelings(model, surface.boundary_labels):
        out[lab[pos]] += 1
    return out


# ---------------------------------------------------------------------------
# F-blocks boundary by boundary


def fsymbol(model, i: int, j: int, m: int, k: int, l: int, n: int) -> complex:
    """F^{ijm}_{kln} read from the model's F-symbol mapping; a missing key is
    the ModelError, with the text, that the F-block store gives its boundary."""
    key = (i, j, m, k, l, n)
    try:
        return model.fsymbols[key]
    except KeyError:
        names = tuple(model.labels[x] for x in key)
        raise ModelError("missing F-symbol F^{%s,%s,%s}_{%s,%s,%s}" % names) from None


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
        [[fsymbol(model, i, j, m, k, l, n) for n in cols] for m in rows],
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
# validate's fusion, Verlinde and ribbon checks by dense arrays and walks


def reference_verlinde_fusion(model) -> np.ndarray:
    """N^c_{ab} = sum_x S_ax S_bx S*_cx / S_0x, one product per pair (a, b)."""
    s = model.smatrix
    n = model.n_labels
    out = np.empty((n, n, n), dtype=np.complex128)
    inv_s0 = 1.0 / s[0]
    for a in range(n):
        for b in range(n):
            out[a, b] = (s[a] * s[b] * inv_s0) @ s.conj().T
    return out


def reference_verlinde_check(model, tol: float) -> CheckResult:
    """``validate``'s Verlinde check on the per-pair products."""
    res = float(np.abs(reference_verlinde_fusion(model) - model.fusion).max())
    return CheckResult(res < tol, res)


def reference_fusion_axioms(model) -> CheckResult:
    """``validate``'s fusion tensor check with the associativity residual of
    the two dense int64 contractions, L^5 terms each."""
    n = model.n_labels
    details = []
    worst = float(np.abs(model.fusion[0] - np.eye(n)).max())
    if worst > 0:
        details.append("vacuum")
    nab = model.fusion.tolist()  # Python ints: differences cannot wrap
    comm = float(max(
        abs(nab[a][b][c] - nab[b][a][c]) for a in range(n) for b in range(n) for c in range(n)
    ))
    if comm > 0:
        details.append("commutativity")
    worst = max(worst, comm)
    dual_ok = all(model.dual[model.dual[a]] == a for a in range(n))
    if not dual_ok:
        details.append("dual involution")
    want = np.zeros((n, n))
    for a in range(n):
        want[a, model.dual[a]] = 1.0
    dres = float(np.abs(model.fusion[:, :, 0].astype(float) - want).max())
    if dres > 0:
        details.append("dual pairing")
    worst = max(worst, dres)
    f = model.fusion.astype(np.int64)
    assoc = np.einsum("abe,ecd->abcd", f, f) - np.einsum("bcf,afd->abcd", f, f)
    ares = float(np.abs(assoc).max())
    if ares > 0:
        details.append("associativity")
    worst = max(worst, ares)
    return CheckResult(worst == 0 and dual_ok, worst, ",".join(details))


def reference_rsymbols_ribbon(model, tol: float) -> CheckResult:
    """``validate``'s R-symbol and twist check as a walk over every label
    pair's fusion products, read from the tensor."""
    n = model.n_labels
    dims = np.real(model.smatrix[0] / model.smatrix[0, 0])
    worst = 0.0
    bad = ""
    try:
        for a in range(n):
            for b in range(n):
                for c in np.flatnonzero(model.fusion[a, b]).tolist():
                    r = abs(abs(model.rsymbol(a, b, c)) - 1.0)
                    if r > worst:
                        worst = r
                        bad = f"|R| at {(a, b, c)}"
        for a in range(n):
            acc = 0.0
            for c in np.flatnonzero(model.fusion[a, a]).tolist():
                acc += dims[c] * model.rsymbol(a, a, c)
            r = abs(acc / dims[a] - model.twists[a])
            if r > worst:
                worst = r
                bad = f"twist at {a}"
    except ModelError as exc:
        worst = float("inf")
        bad = str(exc)
    return CheckResult(worst < tol, worst, bad)


# ---------------------------------------------------------------------------
# The Verlinde algebra: the fusion rules acting on themselves give the
# regular representation (f_a)_{c,b} = N^c_{ab}, a commuting family that the
# S matrix diagonalizes.  Its rank-one idempotents p_a come from the S-matrix
# formula here and from an eigendecomposition below; a label permutation pi
# acting on the p_a transports f_b to a matrix Lambda(pi) in the f-basis.


def regular_representation(model: AnyonModel) -> np.ndarray:
    """Stack of fusion matrices f_a with (f_a)_{c,b} = N^c_{ab}, shape (n,n,n)."""
    n = model.n_labels
    out = np.zeros((n, n, n), dtype=np.complex128)
    for a in range(n):
        out[a] = model.fusion[a].T
    return out


def idempotents(model: AnyonModel) -> np.ndarray:
    """Orthogonal rank-one idempotents p_a = S_{0a} sum_b conj(S_{ba}) f_b."""
    f = regular_representation(model)
    s = model.smatrix
    n = model.n_labels
    out = np.zeros((n, n, n), dtype=np.complex128)
    for a in range(n):
        out[a] = s[0, a] * np.tensordot(s[:, a].conj(), f, axes=(0, 0))
    return out


def reconstruct_regular(model: AnyonModel, p: np.ndarray) -> np.ndarray:
    """Inverse change of basis f_b = sum_a (S_{ba}/S_{0a}) p_a."""
    s = model.smatrix
    coeff = s / s[0][None, :]
    return np.tensordot(coeff, p, axes=(1, 0))


def permutation_matrix(perm, n: int | None = None) -> np.ndarray:
    """Matrix P with P_{x,y} = delta_{x, perm(y)} (maps e_y to e_{perm(y)})."""
    perm = tuple(int(x) for x in perm)
    if n is None:
        n = len(perm)
    out = np.zeros((n, n))
    for y, x in enumerate(perm):
        out[x, y] = 1.0
    return out


def transported_regular(model: AnyonModel, perm) -> np.ndarray:
    """The f-basis images under the idempotent relabeling a -> perm(a):
    rho(f_b) = sum_a (S_{ba}/S_{0a}) p_{perm(a)}, stacked over b."""
    perm = tuple(int(x) for x in perm)
    return reconstruct_regular(model, idempotents(model)[list(perm)])


def lambda_matrix(model: AnyonModel, perm) -> np.ndarray:
    """Coefficient matrix of a label permutation acting through the idempotents.

    If a gate maps p_a to p_{perm(a)} for every a, then it maps f_b to
    sum_c Lambda_{b,c} f_c with

        Lambda = S P^{-1} D P D^{-1} P^{-1} S^{-1},

    D the diagonal of quantum dimensions and P the permutation matrix of
    ``perm``.  Inverses of the unitary factors are conjugate transposes; the
    middle product is formed entrywise so the identity permutation yields the
    identity matrix exactly.
    """
    n = model.n_labels
    perm = tuple(int(x) for x in perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of {n} labels: {perm}")
    d = quantum_dimensions(model)
    # P^{-1} D P D^{-1} P^{-1} has entries (d_{perm(a)}/d_a) at (a, perm(a)).
    inner = np.zeros((n, n), dtype=np.complex128)
    for a in range(n):
        inner[a, perm[a]] = d[perm[a]] / d[a]
    if np.array_equal(inner, np.eye(n)):
        return np.eye(n, dtype=np.complex128)
    s = model.smatrix
    return s @ inner @ s.conj().T


def idempotents_by_eigendecomposition(model, seed: int = 7) -> np.ndarray:
    """Primitive idempotents from a generic member of the fusion algebra.

    The regular representation matrices commute, so a random real
    combination has the shared eigenvectors; its eigenprojectors are the
    primitive idempotents whenever the eigenvalues are distinct.
    """
    rng = np.random.default_rng(seed)
    n = model.n_labels
    mats = regular_representation(model)
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
    for pis, pips, which, val in accepted:
        rel = val / val[:, forest.roots]
        for pi, pip, r in zip(pis.tolist(), pips.tolist(), rel[which]):
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


def reference_perm_in_compat(absv, absvo, perms, tol):
    """``compat[p, m, r]`` of explicit candidates by the dense comparison
    the solver's projection window replaced: one (candidates, n, n, n)
    float difference, O(n^3) per candidate."""
    perms = np.asarray(perms, dtype=np.intp).reshape(len(perms), absv.shape[0])
    # target[p, r, l] = |V_out[r, perms[p][l]]|
    target = absvo[:, perms].transpose(1, 0, 2)
    diff = np.abs(target[:, None, :, :] - absv[None, :, None, :])
    return (diff <= tol).all(axis=3)


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
            yield pi, reference_perm_in_compat(absv, absvo, [pi], tol)[0]
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
# Pair search on boolean states, and the forest that checked cycles twice


def unpack_rows(words: np.ndarray, n: int) -> np.ndarray:
    """The (..., n) booleans of packed rows, one bit test per column: bit r
    of row word r // B, B the word's width in bits."""
    width = 8 * words.dtype.itemsize
    out = np.zeros(words.shape[:-1] + (n,), dtype=bool)
    for r in range(n):
        out[..., r] = (words[..., r // width] >> words.dtype.type(r % width)) & 1 == 1
    return out


def bool_perm_in_frontier(absv, absvo, tol, budget):
    """Yield the wildcard (perms, compat) blocks of the perm_in frontier
    with ``compat[p, m, r]`` one boolean each: the (prefix, column, m, r)
    array and its two ``any`` reductions the solver's packed rows replaced,
    run by the solver's own ``_frontier``."""
    n = absv.shape[0]

    def agree(values, cols):
        """[c, m, r]: ``values[m]`` equals |V_out[r, cols[c]]|."""
        diff = absvo.T[cols][:, None, :] - values[None, :, None]
        return np.abs(diff, out=diff) <= tol

    def expand(depth, prefix, compat):
        vals, inv = np.unique(absv[:, depth], return_inverse=True)
        nxt = compat[:, None] & agree(vals, slice(None))[:, inv.ravel()]
        ok = nxt.any(axis=2).all(axis=2) & nxt.any(axis=3).all(axis=2)
        ok[np.arange(len(prefix))[:, None], prefix] = False
        return np.nonzero(ok)

    def narrow(depth, compat, cols):
        return compat & agree(absv[:, depth], cols)

    start = np.ones((1, n, n), dtype=bool)
    for _, perms, compat in solver._frontier(start, expand, narrow, budget, "perm_in frontier"):
        yield perms, compat


def bool_row_matchings(sub, budget):
    """The perfect row matchings of each boolean compat matrix of ``sub``,
    as the solver found them before its rows were packed: the n! table up
    to five rows, else a forced matching read off by ``argmax`` and one
    frontier on boolean ``avail`` states for the rest."""
    n = sub.shape[1]
    out = [None] * len(sub)
    if n <= 5:
        table = np.array(list(itertools.permutations(range(n))), dtype=np.intp).reshape(-1, n)
        root, which = np.nonzero(sub[:, np.arange(n), table].all(axis=2))
        roots, found = [root], [table[which]]
    else:
        forced = (sub.sum(axis=2) == 1).all(axis=1) & sub.any(axis=1).all(axis=1)
        for j in np.flatnonzero(forced).tolist():
            out[j] = sub[j].argmax(axis=1)[None]
        if forced.all():
            return out

        def expand(depth, prefix, avail):
            return np.nonzero(avail[:, depth])

        def narrow(depth, avail, cols):
            avail[np.arange(len(cols)), :, cols] = False
            return avail

        rest = np.flatnonzero(~forced)
        roots, found = [np.empty(0, dtype=np.intp)], [np.empty((0, n), dtype=np.intp)]
        for root, perms, _ in solver._frontier(sub[rest], expand, narrow, budget,
                                               "matching frontier"):
            roots.append(rest[root])
            found.append(perms)
    perms = np.concatenate(found)
    bounds = np.searchsorted(np.concatenate(roots), np.arange(len(sub) + 1))
    return [perms[bounds[j]:bounds[j + 1]] if o is None else o for j, o in enumerate(out)]


def forest_checking_every_edge_end(support: np.ndarray):
    """The solver's constraint forest with its cycle checks as they were
    first listed: every edge is checked again from each end the search pops
    after crossing it, so a tree edge once and a non-tree edge twice."""
    n = support.shape[0]
    rows, cols = np.nonzero(support)
    adj = [[] for _ in range(2 * n)]
    for e, (m, l) in enumerate(zip(rows.tolist(), cols.tolist())):
        adj[l].append((n + m, e))
        adj[n + m].append((l, e))
    comp = [-1] * (2 * n)
    depth = [0] * (2 * n)
    starts, levels, checks = [], [], []
    for start in range(2 * n):
        if comp[start] != -1:
            continue
        comp[start] = len(starts)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w, e in adj[u]:
                if comp[w] == -1:
                    comp[w] = len(starts)
                    depth[w] = depth[u] + 1
                    queue.append(w)
                    if len(levels) < depth[w]:
                        levels.append([])
                    levels[depth[w] - 1].append((w, u, e))
                else:
                    checks.append((w, u, e))
        starts.append(start)

    def steps(found):
        w, u, e = np.array(found, dtype=np.intp).reshape(-1, 3).T
        return w, u, e, np.where(u < n, -1.0, 1.0)[:, None]

    return solver._ConstraintForest(
        rows, cols, tuple(comp), np.array(starts, dtype=np.intp)[comp],
        tuple(steps(found) for found in levels), steps(checks),
    )


def per_pair_propagate_chunk(v, v_out, pis, pips, forest, tol, cycle_tol):
    """The solver's batched propagation with one column per pair, not one
    per distinct denominator pattern: the accepted rows of ``pis`` and
    ``pips`` and their own (pairs, 2n) node values."""
    f = forest
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        den = v_out[pips.T[f.rows], pis.T[f.cols]]  # (edges, pairs)
        ok = ~(den == 0).any(axis=0)
        rho = v[f.rows, f.cols][:, None] / den
        mod = np.hypot(rho.real, rho.imag)
        ok &= ~(np.abs(mod - 1.0) > ratio_modulus_tol(tol)).any(axis=0)
        rho /= mod + 0j
        val = np.ones((len(f.components), len(pis)), dtype=np.complex128)
        vr, vi = val.real, val.imag
        for level in f.levels:
            vr[level[0]], vi[level[0]] = solver._implied(rho, vr, vi, level)
        early = solver._EARLY_CHECKS
        groups = [f.checks]
        if len(pis) > early:
            groups = [tuple(a[:early] for a in f.checks), tuple(a[early:] for a in f.checks)]
        for checks in groups:
            ir, ii = solver._implied(rho, vr, vi, checks)
            w = checks[0]
            ok &= ~(np.hypot(vr[w] - ir, vi[w] - ii) > cycle_tol).any(axis=0)
            if not ok.all():
                keep = np.flatnonzero(ok)
                ok, rho, val, pis, pips = ok[keep], rho[:, keep], val[:, keep], pis[keep], pips[keep]
                vr, vi = val.real, val.imag
    return pis, pips, val.T


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


def contains_logical_paulis_loop(model, inter, tol: float = MEMBERSHIP_TOL) -> bool:
    """Every string operator on either cycle lies in some family of
    ``inter``, one string at a time: each string's families are found by
    comparing its row key with every row key of the set, and its gap is
    taken over those families alone."""
    perms, phases = string_operators(model)
    keys = solver.row_keys(inter.perms)
    first: dict[int, int] = {}
    anchor = [first.setdefault(c, i) for i, c in enumerate(inter.components)]
    for perm, d in zip(perms.tolist(), phases.tolist()):
        rows = np.flatnonzero(keys == solver.row_keys(np.asarray([perm], dtype=inter.perms.dtype)))
        ratios = np.asarray(d, dtype=np.complex128) / inter.rows[inter.codes[rows]]
        gap = np.abs(ratios - ratios[:, anchor]).max(axis=1, initial=0.0)
        if not (gap <= tol).any():
            return False
    return True


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


def reference_string_operator_matrices(model) -> tuple[np.ndarray, np.ndarray]:
    """[F_a(C1)] and [F_a(C2)] with C2 as the three-operand n^5 sum
    S F_a(C1) S^dagger over the stacked diagonal C1 strings."""
    s = np.asarray(model.smatrix, dtype=np.complex128)
    n = s.shape[0]
    dtotal = float(np.real(1.0 / s[0, 0]))
    f1 = np.zeros((n, n, n), dtype=np.complex128)
    for a in range(n):
        np.fill_diagonal(f1[a], dtotal * s[a])
    return f1, np.einsum("xy,ayz,wz->axw", s, f1, np.conj(s))


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
# Loop-label actions of a torus gate on the two cycles


def check_lambda_monomial(
    lam: np.ndarray,
) -> tuple[bool, tuple[int, ...] | None, np.ndarray | None]:
    """Monomial test for a loop-label action: (flag, perm, phases), the
    phases the entries lam[perm(x), x] themselves."""
    try:
        perm = monomial_from_matrix(lam).perm
    except ValueError:
        return False, None, None
    return True, perm, lam[list(perm), range(len(perm))]


def eq_consistency_residual(
    smatrix: np.ndarray, lam: np.ndarray, lam_other: np.ndarray
) -> float:
    """Max |Lam_{ac} Lam'_{bd} (S_{cd} - S_{ab})| over all index tuples.

    A gate acting on the two torus cycles by Lam and Lam' must relate label
    pairs with equal S entries; the residual vanishes for consistent pairs.
    """
    amp = np.abs(lam)
    amp2 = np.abs(lam_other)
    diff = np.abs(smatrix[None, None, :, :] - smatrix[:, :, None, None])
    return float(np.einsum("ac,bd,abcd->abcd", amp, amp2, diff).max())


def induced_cycle_permutations(model, gate: MonomialMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Loop-label actions (Lam for C1, Lam' for C2) of a torus gate.

    Solves U F_a(C) U^dag = sum_b Lam_{ba} F_b(C) in the orthogonal string
    basis for each cycle.
    """
    n = model.n_labels
    u = gate.matrix()
    uh = u.conj().T
    lams = []
    for f in reference_string_operator_matrices(model):
        lam = np.zeros((n, n), dtype=np.complex128)
        for a in range(n):
            x = u @ f[a] @ uh
            lam[:, a] = np.einsum("bij,ij->b", np.conj(f), x) / (
                np.einsum("bij,bij->b", np.conj(f), f).real
            )
        lams.append(lam)
    return lams[0], lams[1]


# ---------------------------------------------------------------------------
# Lattice operators one at a time, and the lattice check as a loop over pairs


@dataclass(frozen=True)
class LatticeOperator:
    """Tensor product of X^j Z^k qudit factors on the edges of an L x L torus.

    Edges are indexed 0..2 L^2 - 1: horizontal edge of plaquette (r, c) is
    2 (r L + c), the vertical edge 2 (r L + c) + 1.  Only the exponent
    vectors are stored; commutation phases follow from the symplectic form
    without building state vectors.
    """

    modulus: int
    x_exp: tuple[int, ...]
    z_exp: tuple[int, ...]


def commutation_phase_exponent(op1: LatticeOperator, op2: LatticeOperator) -> int:
    """k with op1 op2 = omega^k op2 op1, from X Z = omega^{-1} Z X per site."""
    nmod = op1.modulus
    k = 0
    for x1, z1, x2, z2 in zip(op1.x_exp, op1.z_exp, op2.x_exp, op2.z_exp):
        k += x1 * z2 - z1 * x2
    return k % nmod


def _edge(l: int, row: int, col: int, vertical: bool) -> int:
    return 2 * ((row % l) * l + (col % l)) + (1 if vertical else 0)


def dyon_loop(
    nmod: int, l: int, flux: int, charge: int, horizontal: bool, offset: int = 0
) -> LatticeOperator:
    """Closed (flux, charge) string along one lattice cycle.

    The charge part is a Z string on the edges crossed by the loop, the
    flux part an X string on the parallel edges of the dual loop.
    """
    x_exp = [0] * (2 * l * l)
    z_exp = [0] * (2 * l * l)
    for i in range(l):
        if horizontal:
            z_edge = _edge(l, offset, i, vertical=False)
            x_edge = _edge(l, offset, i, vertical=True)
        else:
            z_edge = _edge(l, i, offset, vertical=True)
            x_edge = _edge(l, i, offset, vertical=False)
        z_exp[z_edge] = (z_exp[z_edge] + charge) % nmod
        x_exp[x_edge] = (x_exp[x_edge] + flux) % nmod
    return LatticeOperator(modulus=nmod, x_exp=tuple(x_exp), z_exp=tuple(z_exp))


def reference_lattice_check(nmod: int, l: int, tol: float = LATTICE_TOL) -> dict:
    """``lattice_commutation_check`` with one pair of full-lattice loops at a
    time: every vertical loop rebuilt per horizontal one, and each
    commutation exponent a walk over all 2 L^2 edges."""
    check_tol(tol)
    s = zn_toric(nmod).smatrix
    worst = 0.0
    count = 0
    for a in range(nmod):
        for ap in range(nmod):
            h = dyon_loop(nmod, l, a, ap, horizontal=True)
            for b in range(nmod):
                for bp in range(nmod):
                    v = dyon_loop(nmod, l, b, bp, horizontal=False)
                    k = commutation_phase_exponent(h, v)
                    lattice_phase = np.exp(2j * np.pi * k / nmod)
                    model_phase = nmod * s[a * nmod + ap, b * nmod + ((-bp) % nmod)]
                    worst = max(worst, abs(lattice_phase - model_phase))
                    count += 1
    return {
        "modulus": nmod,
        "lattice_size": l,
        "pairs_checked": count,
        "max_mismatch": float(worst),
        "passed": bool(worst < tol),
    }


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


class PerLeafJsonWriter(jsonwriter.JsonWriter):
    """The package's writer with a ``Rows`` rendered leaf by leaf: one
    ``%``-template per record with a slot per array entry, every entry's
    token filled in by one ``%``-format, instead of one text per distinct
    row."""

    def _write_rows(self, rows, depth, out):
        template, fills = self._leaf_record(rows, depth + 1)
        tokens = np.concatenate(fills, axis=1).ravel().tolist() if fills else []
        out.append(jsonwriter._block("[", [template] * len(rows), "]", depth) % tuple(tokens))

    def _leaf_record(self, rows, depth):
        """The ``%``-template of one record at ``depth``, its constant text
        escaped, and its tokens: (records, slots) object arrays in slot order."""
        parts, fills = [], []
        for key, col in rows.columns.items():
            if isinstance(col, jsonwriter.DistinctRows):
                col = col.rows[col.codes]
            if isinstance(col, np.ndarray):
                text = jsonwriter._block("[", ["%s"] * col.shape[1], "]", depth + 1)
                tokens, which = jsonwriter._tokens(col)
                fills.append(np.array(tokens, dtype=object)[which])
            elif isinstance(col, jsonwriter.Category):
                text = "%s"
                rendered = [self.indented(v, depth + 1) for v in col.values]
                fills.append(np.array(rendered, dtype=object)[col.codes][:, None])
            elif isinstance(col, jsonwriter.Rows):
                text, sub = self._leaf_record(col, depth + 1)
                fills.extend(sub)
            else:
                text = self.indented(col, depth + 1).replace("%", "%%")
            parts.append(jsonwriter._string(key).replace("%", "%%") + ": " + text)
        return jsonwriter._block("{", parts, "}", depth), fills


def reference_json_order(*blocks, closers: str) -> np.ndarray:
    """``json_order`` with one sort key per leaf: each column ranked by the
    text of its token plus the character after it, the records sorted by
    all those ranks, ties by record index.  Records without leaves keep
    their order."""
    keys = [np.zeros(len(blocks[0]), dtype=np.intp)]
    for block, close in zip(blocks, closers, strict=True):
        block = np.asarray(block)
        tokens, which = jsonwriter._tokens(block)
        width = block.shape[1]
        for sep, cols in ((", ", slice(0, width - 1)), (close, slice(width - 1, width))):
            texts = [t + sep for t in tokens]
            rank = {t: r for r, t in enumerate(sorted(set(texts)))}
            keys.extend(np.array([rank[t] for t in texts])[which[:, cols].T])
    return np.lexsort(keys[::-1])


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
