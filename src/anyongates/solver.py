"""Monomial matrices and the intertwiner equation V~ Pi D = Pi' D' V.

A candidate logical gate acts on a DAP basis as a monomial matrix Pi D
(permutation times unit-modulus diagonal).  Compatibility with a basis
change or mapping-class word matrix V is the intertwiner equation above;
entrywise it forces, for every support entry (m, l) of V,

    d_l * conj(d'_m) = V[m, l] / V~[perm_out(m), perm_in(l)],

so the phases live on a bipartite constraint graph whose edges carry fixed
unit ratios.  The graph has one edge per support entry of V whatever the
pair, so one breadth-first spanning forest serves every pair of a call.
Solving is: (1) modulus/zero-pattern feasibility of the permutation pairs,
(2) phase propagation along the forest for a chunk of pairs at once, one
array operation per forest level, (3) rejection of pairs with a vanishing
denominator, an off-modulus ratio or an inconsistent cycle (non-tree edge).
Each feasible permutation pair therefore contributes at most one connected
family with one free phase per graph component.

Delta sets (all monomial gates compatible with a word) and their
intersections live here too.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .mcg import evaluate_word
from .models import AnyonModel
from .surfaces import SurfaceSpec
from .tolerances import (
    CYCLE_TOL,
    DEFAULT_TOL,
    MEMBERSHIP_TOL,
    MONOMIAL_READ_TOL,
    SUPPORT_WARNING_FACTOR,
    UNITARITY_TOL,
    ZERO_THRESHOLD,
    modulus_match_tol,
    ratio_modulus_tol,
    unit_modulus_tol,
)

_MATCHING_CAP = 20000

# Feasible permutation pairs are propagated this many at a time, which keeps
# the (edges, pairs) work arrays to a few megabytes.
_PAIR_CHUNK = 2048


@dataclass(frozen=True)
class MonomialMatrix:
    """Acts as |l> -> phases[l] * |perm[l]>."""

    perm: tuple[int, ...]
    phases: tuple[complex, ...]

    @property
    def dim(self) -> int:
        return len(self.perm)

    def matrix(self) -> np.ndarray:
        n = self.dim
        out = np.zeros((n, n), dtype=np.complex128)
        for l, p in enumerate(self.perm):
            out[p, l] = self.phases[l]
        return out

    def is_identity_perm(self) -> bool:
        return all(p == i for i, p in enumerate(self.perm))


def is_monomial(mat: np.ndarray, tol: float = DEFAULT_TOL, zero_tol: float = ZERO_THRESHOLD) -> bool:
    """One unit-modulus entry per row and column, everything else below zero_tol."""
    n = mat.shape[0]
    if mat.shape[0] != mat.shape[1]:
        return False
    absm = np.abs(mat)
    big = absm > zero_tol
    if not ((big.sum(axis=0) == 1).all() and (big.sum(axis=1) == 1).all()):
        return False
    vals = absm[big]
    return bool(np.abs(vals - 1.0).max() < unit_modulus_tol(tol))


def monomial_from_matrix(
    mat: np.ndarray, tol: float = DEFAULT_TOL, zero_tol: float = ZERO_THRESHOLD
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


def nearest_monomial(mat: np.ndarray) -> tuple[MonomialMatrix, float]:
    """Closest monomial matrix (max-norm residual) via optimal assignment."""
    n = mat.shape[0]
    rows, cols = linear_sum_assignment(-np.abs(mat))
    perm = [0] * n
    phases = [0j] * n
    for r, c in zip(rows, cols):
        perm[c] = int(r)
        v = mat[r, c]
        phases[c] = v / abs(v) if abs(v) > 0 else 1.0
    mono = MonomialMatrix(perm=tuple(perm), phases=tuple(phases))
    return mono, float(np.abs(mat - mono.matrix()).max())


# ---------------------------------------------------------------------------
# Phase cosets


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

    def is_subset_of(self, other: "PhaseCoset", tol: float = MEMBERSHIP_TOL) -> bool:
        """Every constraint of ``other`` is implied by this coset."""
        for c in range(other.n_free):
            idx = [i for i in range(other.dim) if other.components[i] == c]
            j0 = idx[0]
            for i in idx[1:]:
                if self.components[i] != self.components[j0]:
                    return False
                want = other.rel[i] / other.rel[j0]
                have = self.rel[i] / self.rel[j0]
                if abs(want - have) > tol:
                    return False
        return True

    def same_as(self, other: "PhaseCoset", tol: float = MEMBERSHIP_TOL) -> bool:
        return self.is_subset_of(other, tol) and other.is_subset_of(self, tol)


def free_coset(n: int) -> PhaseCoset:
    return PhaseCoset(components=tuple(range(n)), rel=(1.0 + 0j,) * n)


# ---------------------------------------------------------------------------
# Intertwiner solving


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

    def gate_coset(self) -> PhaseCoset:
        """Projection onto the gate phases d (the d' side is determined)."""
        comp_ids: dict[int, int] = {}
        components = []
        rel = []
        first_val: dict[int, complex] = {}
        for i in range(self.n):
            c = self.phase_classes[i]
            if c not in comp_ids:
                comp_ids[c] = len(comp_ids)
                first_val[c] = self.relative_phases[i]
            components.append(comp_ids[c])
            rel.append(self.relative_phases[i] / first_val[c])
        return PhaseCoset(components=tuple(components), rel=tuple(rel))


def intertwiner_residual(
    v: np.ndarray,
    sol: IntertwinerSolution,
    free=None,
    v_out: np.ndarray | None = None,
) -> float:
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


def _normalize_perm_arg(arg, n: int):
    """None (wildcard) | single permutation | iterable of permutations."""
    if arg is None:
        return None
    seq = list(arg)
    if seq and isinstance(seq[0], (int, np.integer)):
        seq = [tuple(int(x) for x in seq)]
    else:
        seq = [tuple(int(x) for x in p) for p in seq]
    for p in seq:
        if sorted(p) != list(range(n)):
            raise ValueError(f"not a permutation of {n} indices: {p}")
    return seq


def _column_perms(absv, absvo, cands_in, tol):
    """Yield (perm_in, compat) for the candidate gate permutations.

    ``compat[m, r]`` says that row m of |V| equals row r of |V_out| with its
    columns permuted by perm_in, so perm_out must map m to some r with
    ``compat[m, r]``.  An explicit candidate list costs O(n^3) per entry.
    The wildcard assigns perm_in(0), perm_in(1), ... in ascending order,
    narrowing ``compat`` one column at a time, and drops a prefix as soon as
    some row or column of ``compat`` is empty.
    """
    n = absv.shape[0]
    if cands_in is not None:
        for pi in cands_in:
            target = absvo[:, list(pi)]
            yield pi, (np.abs(target[None, :, :] - absv[:, None, :]) <= tol).all(axis=2)
        return
    # agree[l, c][m, r]: |V[m, l]| equals |V_out[r, c]|
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


def _matchings(compat):
    """Perfect matchings m -> pip[m] inside ``compat``, in lexicographic order."""
    n = compat.shape[0]
    options = [np.flatnonzero(row).tolist() for row in compat]
    found: list[tuple[int, ...]] = []
    pip: list[int] = []

    def extend():
        if len(pip) == n:
            if len(found) == _MATCHING_CAP:
                raise ValueError(
                    "too many output-permutation matchings "
                    f"(more than {_MATCHING_CAP}); restrict perm_out"
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


def _candidate_pairs(absv, absvo, cands_in, cands_out, tol):
    """Yield the feasible (perm_in, perm_out) pairs as (perm_in, perm_outs) blocks.

    ``perm_outs`` is an int array with one permutation per row, never empty:
    the perfect matchings of compat for a wildcard perm_out, else the
    explicit candidates compat admits, in list order.  Blocks come in the
    perm_in order of ``_column_perms``.
    """
    n = absv.shape[0]
    rows = np.arange(n)
    outs = None
    if cands_out is not None:
        outs = np.array(cands_out, dtype=np.intp).reshape(len(cands_out), n)
    for pi, compat in _column_perms(absv, absvo, cands_in, tol):
        if outs is None:
            found = _matchings(compat)
            pips = np.array(found, dtype=np.intp).reshape(len(found), n)
        else:
            pips = outs[compat[rows, outs].all(axis=1)]
        if len(pips):
            yield pi, pips


def _pair_chunks(blocks):
    """Regroup (perm_in, perm_outs) blocks into (perm_ins, perm_outs) arrays.

    Order is kept; every chunk but the last has ``_PAIR_CHUNK`` rows.
    """
    pis: list[np.ndarray] = []
    pips: list[np.ndarray] = []
    count = 0
    for pi, outs in blocks:
        pis.append(np.broadcast_to(np.array(pi, dtype=np.intp), outs.shape))
        pips.append(outs)
        count += len(outs)
        while count >= _PAIR_CHUNK:
            a, b = np.concatenate(pis), np.concatenate(pips)
            yield a[:_PAIR_CHUNK], b[:_PAIR_CHUNK]
            pis, pips, count = [a[_PAIR_CHUNK:]], [b[_PAIR_CHUNK:]], count - _PAIR_CHUNK
    if count:
        yield np.concatenate(pis), np.concatenate(pips)


@dataclass(frozen=True)
class _ConstraintForest:
    """Breadth-first spanning forest of the constraint graph of V.

    Node l < n is the gate phase d_l, node n + m the output phase d'_m; edge
    e joins l and n + m for the e-th support entry (m, l) of V in row-major
    order and carries d_l = rho_e d'_m.  The graph, and so the forest, is the
    same for every permutation pair.  Steps are arrays (w, u, e, sign): node
    w follows from node u across edge e, times conj(rho_e) when u is a gate
    node (sign -1) and times rho_e otherwise (sign +1).  ``levels[k]`` holds
    the steps that reach the nodes at depth k + 1, ``checks`` the steps that
    reach nodes already visited, which must agree with the value there.
    """

    rows: np.ndarray
    cols: np.ndarray
    components: tuple[int, ...]
    roots: np.ndarray
    levels: tuple[tuple[np.ndarray, ...], ...]
    checks: tuple[np.ndarray, ...]


def _constraint_forest(support: np.ndarray) -> _ConstraintForest:
    n = support.shape[0]
    rows, cols = np.nonzero(support)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(2 * n)]
    for e, (m, l) in enumerate(zip(rows.tolist(), cols.tolist())):
        adj[l].append((n + m, e))
        adj[n + m].append((l, e))
    comp = [-1] * (2 * n)
    depth = [0] * (2 * n)
    starts: list[int] = []
    levels: list[list[tuple[int, int, int]]] = []
    checks: list[tuple[int, int, int]] = []
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

    return _ConstraintForest(
        rows, cols, tuple(comp), np.array(starts, dtype=np.intp)[comp],
        tuple(steps(found) for found in levels), steps(checks),
    )


def _implied(rho, vr, vi, steps):
    """(real, imag) of the values ``steps`` carry from nodes u to nodes w."""
    _, u, e, sign = steps
    ar, ai = rho.real[e], sign * rho.imag[e]
    br, bi = vr[u], vi[u]
    return ar * br - ai * bi, ar * bi + ai * br


def _propagate_chunk(v, v_out, pis, pips, forest, tol, cycle_tol):
    """Phases of a chunk of permutation pairs on the shared forest.

    Row p of ``pis``/``pips`` is one pair.  Returns (ok, rel): ok[p] is False
    when a denominator vanishes, a ratio is off unit modulus or a cycle
    disagrees; rel[p] holds the 2n phases divided by their component's root
    value.  Products use explicit real arithmetic and moduli ``np.hypot``,
    so every float equals the one-pair scalar computation bit for bit.
    """
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
            vr[level[0]], vi[level[0]] = _implied(rho, vr, vi, level)
        ir, ii = _implied(rho, vr, vi, f.checks)
        w = f.checks[0]
        ok &= ~(np.hypot(vr[w] - ir, vi[w] - ii) > cycle_tol).any(axis=0)
    return ok, (val / val[f.roots]).T


def solve_intertwiner(
    v: np.ndarray,
    perm_in=None,
    perm_out=None,
    *,
    v_out: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
    zero_tol: float = ZERO_THRESHOLD,
    cycle_tol: float = CYCLE_TOL,
) -> list[IntertwinerSolution]:
    """All monomial-intertwiner families for the given permutation sets.

    ``perm_in``/``perm_out`` may each be a single permutation, an iterable of
    candidate permutations, or None for a full wildcard (dimension <= 8).
    A pair (perm_in, perm_out) is feasible when every row m of |V| equals
    row perm_out(m) of |V_out| with columns permuted by perm_in.  The
    wildcard perm_in search builds perm_in column by column and prunes a
    prefix once some row of |V| has no matching row of |V_out| left, or the
    reverse; a wildcard perm_out enumerates the perfect row matchings, an
    explicit list is filtered in the order given.  The constraint graph does
    not depend on the pair, so its spanning forest is built once per call
    and the feasible pairs are propagated in chunks of ``_PAIR_CHUNK``, all
    edges of a chunk at once.  Families are returned in (perm_in, perm_out)
    order: lexicographic for a wildcard, list order otherwise.  Each is the
    complete connected solution set for its pair, with one free phase per
    component of its constraint graph.
    """
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ValueError("V must be a square matrix")
    n = v.shape[0]
    if v_out is None:
        v_out = v
    else:
        v_out = np.asarray(v_out, dtype=np.complex128)
        if v_out.shape != v.shape:
            raise ValueError("V_out must match V's shape")
    for name, mat in (("V", v), ("V_out", v_out)):
        uni = np.abs(mat @ mat.conj().T - np.eye(n)).max() if n else 0.0
        if uni > UNITARITY_TOL:
            raise ValueError(f"{name} is not unitary (residual {uni:.2e})")

    absv = np.abs(v)
    nz = absv[absv > zero_tol]
    if nz.size and nz.min() < SUPPORT_WARNING_FACTOR * zero_tol:
        warnings.warn(
            "smallest nonzero |V| entry is close to the zero threshold; "
            "support detection may be unreliable",
            stacklevel=2,
        )
    forest = _constraint_forest(absv > zero_tol)

    cands_in = _normalize_perm_arg(perm_in, n)
    cands_out = _normalize_perm_arg(perm_out, n)
    if cands_in is None and n > 8:
        raise ValueError(
            "wildcard permutation search is factorial; dimension > 8 needs "
            "an explicit candidate set"
        )

    pairs = _candidate_pairs(absv, np.abs(v_out), cands_in, cands_out, modulus_match_tol(tol))
    solutions: list[IntertwinerSolution] = []
    perms_in: dict[tuple[int, ...], tuple[int, ...]] = {}  # families of a perm share it
    for pis, pips in _pair_chunks(pairs):
        ok, rel = _propagate_chunk(v, v_out, pis, pips, forest, tol, cycle_tol)
        for p in np.flatnonzero(ok):
            pi = tuple(pis[p].tolist())
            solutions.append(IntertwinerSolution(
                perms_in.setdefault(pi, pi), tuple(pips[p].tolist()),
                forest.components, tuple(rel[p]),
            ))
    return solutions


# ---------------------------------------------------------------------------
# Delta sets


@dataclass
class GateFamily:
    """Connected family of monomial gates: fixed basis permutation, phase coset."""

    perm: tuple[int, ...]
    coset: PhaseCoset
    perm_out_by_word: dict[str, tuple[int, ...]] = field(default_factory=dict)

    @property
    def n_free(self) -> int:
        return self.coset.n_free

    def gate(self, free=None) -> MonomialMatrix:
        return MonomialMatrix(perm=self.perm, phases=tuple(self.coset.instantiate(free)))

    def contains(self, gate: MonomialMatrix, tol: float = MEMBERSHIP_TOL) -> bool:
        return gate.perm == self.perm and self.coset.contains(
            np.array(gate.phases), tol
        )


@dataclass
class DeltaSet:
    """Union of gate families compatible with one or more word matrices."""

    dim: int
    words: tuple[str, ...]
    families: list[GateFamily]

    def __len__(self) -> int:
        return len(self.families)

    def contains(self, gate: MonomialMatrix, tol: float = MEMBERSHIP_TOL) -> bool:
        return any(f.contains(gate, tol) for f in self.families)


def delta_set(
    model: AnyonModel,
    surface: SurfaceSpec,
    word: str,
    restrict_perms=None,
    restrict_perms_out=None,
    *,
    tol: float = DEFAULT_TOL,
    zero_tol: float = ZERO_THRESHOLD,
    cycle_tol: float = CYCLE_TOL,
) -> DeltaSet:
    """All monomial gates G with V(word) G V(word)^dagger still monomial.

    G = Pi D lies in Delta_word iff (Pi', D') with V Pi D = Pi' D' V exist,
    which is the intertwiner equation with V_out = V.  ``restrict_perms``
    restricts the searched gate permutations (required above dimension 8);
    ``restrict_perms_out`` restricts the conjugated gate's permutation,
    which word matrices with many equal-modulus entries may need to keep
    the matching enumeration finite.
    """
    rep = evaluate_word(model, surface, word)
    sols = solve_intertwiner(
        rep.matrix,
        perm_in=restrict_perms,
        perm_out=restrict_perms_out,
        tol=tol,
        zero_tol=zero_tol,
        cycle_tol=cycle_tol,
    )
    families = [
        GateFamily(
            perm=s.perm_in,
            coset=s.gate_coset(),
            perm_out_by_word={rep.word: s.perm_out},
        )
        for s in sols
    ]
    return DeltaSet(dim=rep.basis.dim, words=(rep.word,), families=families)


def intersect_delta(sets: list[DeltaSet], tol: float = CYCLE_TOL) -> DeltaSet:
    """Families of gates lying in every input set.

    Families intersect pairwise: same gate permutation, conjoined phase
    cosets.  Within one set, families with equal permutation are disjoint
    (the output monomial is a function of the gate), so no deduplication is
    needed; empty conjunctions are dropped.
    """
    if not sets:
        raise ValueError("need at least one delta set")
    dim = sets[0].dim
    for s in sets:
        if s.dim != dim:
            raise ValueError("delta sets over different bases")
    current = sets[0].families
    words = list(sets[0].words)
    for s in sets[1:]:
        by_perm: dict[tuple[int, ...], list[GateFamily]] = {}
        for fam_b in s.families:
            by_perm.setdefault(fam_b.perm, []).append(fam_b)
        nxt: list[GateFamily] = []
        for fam_a in current:
            for fam_b in by_perm.get(fam_a.perm, ()):
                coset = fam_a.coset.intersect(fam_b.coset, tol)
                if coset is None:
                    continue
                merged = dict(fam_a.perm_out_by_word)
                merged.update(fam_b.perm_out_by_word)
                nxt.append(GateFamily(perm=fam_a.perm, coset=coset, perm_out_by_word=merged))
        current = nxt
        words.extend(s.words)
    return DeltaSet(dim=dim, words=tuple(words), families=current)
