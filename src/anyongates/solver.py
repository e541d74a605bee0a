"""Monomial matrices and the intertwiner equation V Pi D = Pi' D' V.

A candidate logical gate acts on a DAP basis as a monomial matrix Pi D
(permutation times unit-modulus diagonal).  It is compatible with a basis
change or mapping-class word matrix V when V Pi D V^dagger is monomial
again, Pi' D', which is the intertwiner equation above; entrywise it
forces, for every support entry (m, l) of V,

    d_l * conj(d'_m) = V[m, l] / V[perm_out(m), perm_in(l)],

so the phases live on a bipartite constraint graph whose edges carry fixed
unit ratios.  The graph has one edge per support entry of V whatever the
pair, so one breadth-first spanning forest serves every pair of a call.
Solving is:

(1) modulus/zero-pattern feasibility of the permutation pairs, found as int
    arrays: explicit perm_in candidates compare only the row pairs whose
    weighted modulus sums fall within a proven window of each other, a
    wildcard perm_in grows as an array frontier, every live prefix gaining
    one column per level in bounded blocks taken depth first, and each
    distinct compat matrix has its perfect matchings (the perm_outs)
    enumerated once and memoised.  Each row of a compat matrix, and of a
    matching's free columns, is one bit mask (:func:`_pack`), so a frontier
    level is an AND with a per-depth agreement table and two reductions
    over words, not over n^3 booleans;
(2) phase propagation along the forest for a chunk of pairs at once, one
    array operation per forest level and one column per distinct
    denominator pattern: a pair's phases depend only on its denominators
    V[perm_out(m), perm_in(l)], so every entry of V is coded by its bytes,
    pairs with a zero denominator are dropped, and each remaining pair's
    codes over the edges are keyed as one mixed-radix int; pairs with the
    same key share one column, and every accepted pair keeps the index of
    its pattern;
(3) rejection of patterns with a vanishing denominator, an off-modulus
    ratio or an inconsistent cycle (non-tree edge); the first few cycle
    checks run on the whole chunk and the rest on its survivors only.

Each feasible permutation pair therefore contributes at most one connected
family with one free phase per graph component.

Each call charges one byte budget (``budget.py``) before it allocates: the
word matrix and one search row, the unitarity check of V, the candidate
and frontier blocks, each block's pair arrays and the pairs held until the
search ends.  Past it, :class:`SearchBudgetError` is raised before any pair
is propagated.

Every set of gate families is a delta set, the solver's result included:
one row of a permutation array per family, relative-phase rows that
families share through one code each, and one phase-component tuple for
every row.  The solver keeps the gate side of each accepted pair (the
output side Pi' D' follows from the gate) and reads it straight off the
accepted arrays: the forest, and so the gate components and their
renumbering, is shared by every family, each pattern's phases are one row
of one array division by the component roots, and a family's code is its
pattern.
A delta set of a word (all monomial gates compatible with it) is the
solver's result on the word matrix.  Membership is one array pass over the
rows of the gate's permutation.  Two rigid sets intersect in one array pass
over the row pairs with equal permutations; other pairs are joined one at a
time by a scalar union-find.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass

import functools
import itertools
import math

import numpy as np

from .budget import Budget, chunk_rows
from .mcg import evaluate_on_basis, parse_word
from .models import AnyonModel, _join as _join_keys
from .surfaces import BasisIndex, InfeasibleSurfaceError, SurfaceSpec, enumerate_labelings
from .tolerances import (
    CYCLE_TOL,
    DEFAULT_TOL,
    MEMBERSHIP_TOL,
    SUPPORT_WARNING_FACTOR,
    UNITARITY_TOL,
    ZERO_THRESHOLD,
    check_tol,
    modulus_match_tol,
    ratio_modulus_tol,
    unit_modulus_tol,
)

# Up to this many rows, perfect matchings come from one pass over all n!
# permutations (120 at most), which is cheaper than n frontier levels.
_TABLE_MAX = 5
# This many cycle checks run on a whole chunk before it is compressed to its
# survivors; a chunk of at most this many pairs runs every check at once.
_EARLY_CHECKS = 8
# A chunk of at most this many pairs is propagated pair by pair, and a
# solve of such chunks codes no entry.  Keying a chunk of 1 to 8 pairs costs
# 25-30 us more than it saves, and coding V's entries 17-40 us per solve
# (timed on the 1-, 2- and 4-pair chunks of the benchmark's sphere and torus
# solves and on 2- to 8-pair samples of the sigma:8 and tau:7 s2 chunks);
# keying breaks even between 16 and 128 pairs.
_KEYED_MIN = 8


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


def is_monomial(mat: np.ndarray) -> bool:
    """One entry per row and column within ``unit_modulus_tol(DEFAULT_TOL)``
    of modulus 1, everything else below ``ZERO_THRESHOLD``."""
    if mat.shape[0] != mat.shape[1]:
        return False
    return bool(monomial_mask(mat[None], unit_modulus_tol(DEFAULT_TOL), ZERO_THRESHOLD)[0])


def monomial_mask(stack: np.ndarray, unit_tol: float, zero_tol: float = ZERO_THRESHOLD) -> np.ndarray:
    """Per square matrix of a stack: one entry above zero_tol per row and
    column, each within unit_tol of modulus 1."""
    absm = np.abs(stack)
    big = absm > zero_tol
    pattern = (big.sum(axis=-2) == 1).all(axis=-1) & (big.sum(axis=-1) == 1).all(axis=-1)
    off_unit = np.where(big, np.abs(absm - 1.0), 0.0).max(axis=(-2, -1))
    return pattern & (off_unit < unit_tol)


# ---------------------------------------------------------------------------
# Intertwiner solving


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


# ---------------------------------------------------------------------------
# Bit-packed rows: a row of n booleans is one mask over its columns, in the
# narrowest unsigned type that holds n bits, or ceil(n / 64) uint64 words.


def _word_type(n: int) -> tuple[np.dtype, int]:
    """The word type of a packed row of n bits and the words it takes."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if n <= 8 * np.dtype(dtype).itemsize:
            return np.dtype(dtype), 1
    return np.dtype(np.uint64), -(-n // 64)


def _pack(bits: np.ndarray) -> np.ndarray:
    """(..., n) booleans as (..., words) masks: bit r of word r // B is
    column r, B the word's width."""
    n = bits.shape[-1]
    dtype, words = _word_type(n)
    out = np.zeros(bits.shape[:-1] + (words * dtype.itemsize,), dtype=np.uint8)
    out[..., :-(-n // 8)] = np.packbits(bits, axis=-1, bitorder="little")
    return out.view(dtype.newbyteorder("<")).astype(dtype, copy=False)


def _unpack(words: np.ndarray, n: int) -> np.ndarray:
    """The (..., n) booleans of packed rows."""
    little = np.ascontiguousarray(words, dtype=words.dtype.newbyteorder("<"))
    return np.unpackbits(little.view(np.uint8), axis=-1, count=n, bitorder="little").view(bool)


def _bit_masks(r: np.ndarray, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """The word index and the one-bit mask of each column r."""
    width = 8 * dtype.itemsize
    return r // width, np.left_shift(dtype.type(1), (r % width).astype(dtype))


def _has_bit(words: np.ndarray, m, r) -> np.ndarray:
    """Whether row ``m`` of each packed matrix of ``words`` holds column
    ``r``, with m and r broadcast together."""
    word, mask = _bit_masks(r, words.dtype)
    return words[:, m, word] & mask != 0


@functools.cache
def _full_row(n: int) -> np.ndarray:
    """The packed row of n bits, all set."""
    full = _pack(np.ones(n, dtype=bool))
    full.setflags(write=False)  # shared by every call
    return full


def _covers(words: np.ndarray, axis: int) -> np.ndarray:
    """Whether the packed rows along ``axis`` together hold every column."""
    full = _full_row(words.shape[axis])
    return (np.bitwise_or.reduce(words, axis=axis) == full).all(axis=-1)


def _frontier(state, expand, narrow, budget, stage):
    """Complete permutations of a search that fixes position 0, 1, ... in turn.

    ``state`` holds one packed (n, words) matrix per root: row m of a state
    is a bit mask over r (:func:`_pack`).  ``expand(depth, prefix, state)``
    returns, for a block of partial permutations of length ``depth``, the
    parent row and the value of every viable child in row-major (parent,
    value) order; ``narrow(depth, states, values)`` returns the children's
    states from their parents' states.  Each level is one array pass over a
    block of ``chunk_rows(n**3)`` partial permutations, and blocks are
    expanded depth first, so complete permutations come in (root,
    lexicographic) order.  A block's states are built when it is taken, so
    the stack holds one parent block's states per level, not every waiting
    child's.  Yields (root, permutations, states) blocks.  Each block charges
    n^3 bytes per row to ``budget`` as ``stage``, which bounds its packed
    states and their temporaries from above.
    """
    n = state.shape[1]
    step = chunk_rows(n**3)
    stack: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []

    def push(root, prefix, states, parent):
        for lo in reversed(range(0, len(prefix), step)):
            sl = slice(lo, lo + step)
            stack.append((root[sl], prefix[sl], states, parent[sl]))

    roots = np.arange(len(state))
    push(roots, np.empty((len(state), 0), dtype=np.intp), state, roots)
    while stack:
        root, prefix, states, parent = stack.pop()
        budget.charge(stage, len(prefix), n**3)
        depth = prefix.shape[1]
        state = states[parent]
        if depth:
            state = narrow(depth - 1, state, prefix[:, -1])
        if depth == n:
            yield root, prefix, state
            continue
        parent, value = expand(depth, prefix, state)
        push(root[parent], np.column_stack((prefix[parent], value)), state, parent)


def _explicit_compat(absv, perms, tol):
    """``compat[p, m, r]`` for a block of explicit candidates ``perms``,
    packed (:func:`_pack`) once it is found.

    The pair (m, r) is compatible when ``|a_l - b_l| <= tol`` for every l,
    with a = row m of |V| and b = row r of |V| with its columns permuted by
    ``perms[p]``.  Each row is projected onto fixed weights w in [1, 2):
    one product for |V| and one for every candidate at once.

    The window is proven, not tuned.  Let u = 2^-53 and W = sum(w).  A
    compatible pair has exact projections s, t with |s - t| <= W tol /
    (1 - u), and each computed projection is within n u / (1 - n u) times
    its exact value (the terms are non-negative), whatever order the
    product sums in.  So the computed gap is at most W tol (1 + O(n u)) +
    O(n u) t, and ``delta`` = W tol (1 + eps) + eps t, eps = 4 (n + 2) u,
    covers that, the rounding of W and of the window's bounds.  Every
    compatible m therefore has its projection within ``delta`` of r's, and
    only those pairs are compared entry by entry, with the same test as
    ``compat``'s definition, ``chunk_rows(8 * n)`` pairs at a time:
    O(n^2 + window pairs * n) per candidate.  A NaN or infinite modulus
    matches nothing; its row sorts where no finite window reaches, or its
    pairs are checked and dropped.
    """
    n, block = absv.shape[0], len(perms)
    compat = np.zeros((block, n, n), dtype=bool)
    w = 1.0 + np.arange(n) * 0.6180339887498949 % 1.0
    spread = np.zeros((n, block))
    spread[perms, np.arange(block)[:, None]] = w
    proj = absv @ w
    order = np.argsort(proj, kind="stable")
    sorted_proj = proj[order]
    targets = (absv @ spread).ravel()  # [r * block + p]: row r under perms[p]
    eps = 4 * (n + 2) * 2.0**-53
    delta = w.sum() * tol * (1 + eps) + eps * targets
    first = np.searchsorted(sorted_proj, targets - delta, side="left")
    counts = np.searchsorted(sorted_proj, targets + delta, side="right") - first
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    step = chunk_rows(8 * n)
    for lo in range(0, total, step):
        k = np.arange(lo, min(lo + step, total))
        q = np.searchsorted(ends, k, side="right")
        m = order[first[q] + k - (ends[q] - counts[q])]
        r, p = np.divmod(q, block)
        gap = absv[r[:, None], perms[p]]
        gap -= absv[m]
        ok = (np.abs(gap, out=gap) <= tol).all(axis=1)
        compat[p[ok], m[ok], r[ok]] = True
    return _pack(compat)


def _perm_in_blocks(absv, cands_in, tol, budget):
    """Yield (perms, compat) blocks for the candidate gate permutations.

    ``compat[p, m]`` packs (:func:`_pack`) the r for which row m of |V|
    equals row r of |V| with its columns permuted by ``perms[p]``, so
    perm_out must map m to one of them.  An explicit candidate list is
    checked in list order by :func:`_explicit_compat`, each block charging
    its rows x n^3 bytes.  The wildcard assigns perm_in(0), perm_in(1), ...
    as an array frontier (charging likewise).  Per level it ANDs each
    prefix's ``compat`` with the packed table of where column ``depth`` of
    |V| agrees with the columns of |V|, and drops a prefix as soon as
    some row of its ``compat`` is empty or the OR of its rows misses a
    column.  The table is built for one depth at a time from the column's
    distinct values, and the last few are kept.
    """
    n = absv.shape[0]
    if cands_in is not None:
        perms = np.array(cands_in, dtype=np.intp).reshape(len(cands_in), n)
        step = chunk_rows(n**3)
        for lo in range(0, len(perms), step):
            block = perms[lo:lo + step]
            budget.charge("perm_in candidates", len(block), n**3)
            yield block, _explicit_compat(absv, block, tol)
        return

    full = _full_row(n)

    # as many depths' tables as one array pass holds, two at least
    @functools.lru_cache(maxsize=max(2, chunk_rows(n * n * full.nbytes)))
    def agree(depth):
        """[m, c]: the packed r with |V[r, c]| equal to |V[m, depth]|.
        Comparing each distinct value of the column once keeps the float
        temporary at (distinct values) x n^2, not n^3."""
        vals, inv = np.unique(absv[:, depth], return_inverse=True)
        diff = absv.T[None] - vals[:, None, None]
        return _pack(np.abs(diff, out=diff) <= tol)[inv.ravel()]

    def expand(depth, prefix, compat):
        # m leads, so both reductions over it run on whole contiguous blocks
        table = agree(depth)
        nxt = np.empty((n, len(prefix)) + table.shape[1:], dtype=table.dtype)
        np.bitwise_and(compat.transpose(1, 0, 2)[:, :, None], table[:, None], out=nxt)
        rows = nxt[..., 0] if nxt.shape[3] == 1 else np.bitwise_or.reduce(nxt, axis=3)
        ok = (rows.min(axis=0) != 0) & _covers(nxt, axis=0)  # [prefix, column]
        ok[np.arange(len(prefix))[:, None], prefix] = False
        return np.nonzero(ok)

    def narrow(depth, compat, cols):
        return compat & agree(depth)[:, cols].transpose(1, 0, 2)

    start = full[None, None].repeat(n, axis=1)
    for _, perms, compat in _frontier(start, expand, narrow, budget, "perm_in frontier"):
        yield perms, compat


def _expand_matching(depth, prefix, avail):
    """Assign row ``depth`` to every still-free column its ``avail`` row allows."""
    return np.nonzero(_unpack(avail[:, depth], avail.shape[1]))


def _narrow_matching(depth, avail, cols):
    """Take the assigned columns out of a block of (copied) ``avail`` states."""
    word, mask = _bit_masks(cols, avail.dtype)
    avail[np.arange(len(cols)), :, word] &= ~mask[:, None]
    return avail


@functools.cache
def _all_perms(n: int) -> np.ndarray:
    """The n! permutations of range(n), one per row, in lexicographic order."""
    perms = list(itertools.permutations(range(n)))
    table = np.array(perms, dtype=np.intp).reshape(len(perms), n)
    table.setflags(write=False)  # shared by every call
    return table


def _row_matchings(sub, budget):
    """The perfect row matchings of each packed compat matrix of ``sub``,
    in lexicographic order, as one (count, n) int array per matrix.

    Up to ``_TABLE_MAX`` rows one pass over all n! permutations finds them.
    Above, a matrix whose every row holds one column, and whose rows cover
    every column, has its one matching read off the rows' bits, and the
    others are enumerated together by one frontier on their packed rows,
    which charges ``budget``.
    """
    n = sub.shape[1]
    out: list[np.ndarray | None] = [None] * len(sub)
    if n <= _TABLE_MAX:
        table = _all_perms(n)
        root, which = np.nonzero(_has_bit(sub, np.arange(n), table).all(axis=2))
        roots, found = [root], [table[which]]
    else:
        held = sub != 0
        single = (held.sum(axis=2) == 1) & ((sub & (sub - sub.dtype.type(1))) == 0).all(axis=2)
        forced = single.all(axis=1) & _covers(sub, axis=1)
        if forced.any():
            # a row's one bit is 2^(e - 1) in the one word it holds, e its
            # exact float exponent; the empty words have e = 0
            offsets = 8 * sub.dtype.itemsize * np.arange(sub.shape[2])
            exps = np.frexp(sub[forced].astype(float))[1] + held[forced] * offsets
            cols = (exps.sum(axis=2) - 1).astype(np.intp)
            for j, c in zip(np.flatnonzero(forced).tolist(), cols):
                out[j] = c[None]
        if forced.all():
            return out
        rest = np.flatnonzero(~forced)
        roots, found = [np.empty(0, dtype=np.intp)], [np.empty((0, n), dtype=np.intp)]
        for root, perms, _ in _frontier(
            sub[rest], _expand_matching, _narrow_matching, budget, "matching frontier"
        ):
            roots.append(rest[root])
            found.append(perms)
    perms = np.concatenate(found)
    bounds = np.searchsorted(np.concatenate(roots), np.arange(len(sub) + 1))
    return [
        perms[bounds[j]:bounds[j + 1]] if o is None else o for j, o in enumerate(out)
    ]


def _candidate_pairs(absv, cands_in, cands_out, tol, budget, chunk):
    """Yield the feasible (perm_in, perm_out) pairs as (pis, pips) int arrays.

    Row p of a chunk is one pair; a chunk holds at most ``chunk`` rows.
    Pairs come in the perm_in order of ``_perm_in_blocks``, and for each
    perm_in, the perfect matchings of its compat in lexicographic order for
    a wildcard perm_out (found once per distinct compat matrix of the call),
    else the explicit candidates it admits, in list order.  A block's pairs
    are charged to ``budget`` when they are counted, before its pair arrays
    are built.
    """
    n = absv.shape[0]
    pair_bytes = (2 * n + 2) * 8  # both permutations and the block row, as intp
    outs = None
    if cands_out is not None:
        outs = np.array(cands_out, dtype=np.intp).reshape(len(cands_out), n)
        cols = np.arange(n)
        step = chunk_rows(len(outs) * n * _word_type(n)[0].itemsize)
    memo: dict[bytes, np.ndarray] = {}  # compat matrix -> its perm_outs
    for perms, compat in _perm_in_blocks(absv, cands_in, tol, budget):
        if outs is None:
            keys = [c.tobytes() for c in compat]
            new: dict[bytes, int] = {}
            for i, key in enumerate(keys):
                if key not in memo:
                    new.setdefault(key, i)
            if new:
                memo.update(zip(new, _row_matchings(compat[list(new.values())], budget)))
            found = [memo[key] for key in keys]
            counts = [len(f) for f in found]
            budget.charge("pair arrays", sum(counts), pair_bytes)
            rows = np.repeat(np.arange(len(keys)), counts)
            pips = np.concatenate(found)
        else:
            rows, which = [], []
            for lo in range(0, len(compat), step):
                ok = _has_bit(compat[lo:lo + step], cols, outs).all(axis=2)
                budget.charge("pair arrays", int(np.count_nonzero(ok)), pair_bytes)
                p, q = np.nonzero(ok)
                rows.append(p + lo)
                which.append(q)
            rows, pips = np.concatenate(rows), outs[np.concatenate(which)]
        pis = perms[rows]
        for lo in range(0, len(pis), chunk):
            yield pis[lo:lo + chunk], pips[lo:lo + chunk]


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
    reach nodes already visited, which must agree with the value there: one
    per non-tree edge, from the end the search pops first.
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
    crossed = [False] * len(rows)
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
                if crossed[e]:  # a tree edge back to its parent, or a checked cycle
                    continue
                crossed[e] = True
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


def _entry_codes(v):
    """Every entry of V coded by its bytes, so -0.0 and 0.0 stay apart and
    every float bit is kept: the distinct nonzero entries are 0, 1, ... in
    the order of their bytes, and an entry equal to 0 is -1.  Entries are
    flat, in row-major order."""
    flat = v.ravel()
    zero = flat == 0
    codes = np.full(flat.size, -1, dtype=np.intp)
    codes[~zero] = np.unique(row_keys(flat[~zero, None]), return_inverse=True)[1]
    return codes


def _patterns(idx, codes):
    """The denominator patterns of a chunk of pairs: (live, cols, inverse).

    Column p of ``idx`` holds the flat indices into V of pair p's
    denominators, one per edge; its pattern is their entry ``codes``
    (:func:`_entry_codes`).  ``live`` lists the pairs with no zero
    denominator, ``cols`` one live pair per distinct pattern and
    ``inverse`` each live pair's position in ``cols``.  Each pattern is
    keyed as one mixed-radix int, one digit per edge whose radix is one
    more than its largest code in the chunk.  Without ``codes``, or when
    the keys would pass 2^63, the columns are the live pairs themselves."""
    live = np.arange(idx.shape[1])
    if codes is None:
        return live, live, live
    c = codes.take(idx)
    nonzero = (c >= 0).all(axis=0)
    if not nonzero.all():
        live = np.flatnonzero(nonzero)
        c = c[:, live]
    radix = (c.max(axis=1, initial=-1) + 1).tolist()
    if math.prod(radix) >= 1 << 63:
        return live, live, np.arange(len(live))
    place = np.ones(len(radix), dtype=np.int64)
    place[:-1] = np.cumprod(radix[:0:-1])[::-1]
    _, first, inverse = np.unique(place @ c, return_index=True, return_inverse=True)
    return live, live[first], inverse


def _denominator_index(pis, pips, forest, n):
    """(edges, pairs): the flat index into an n x n V of each pair's
    denominator V[perm_out(m), perm_in(l)] on each forest edge (m, l).
    Pairs are held in a narrow unsigned type, so the product is taken in
    intp: under value-based promotion a uint8 row times n would wrap."""
    return np.multiply(pips.T[forest.rows], n, dtype=np.intp) + pis.T[forest.cols]


def _propagate_chunk(v, pis, pips, forest, tol, codes):
    """Phases of a chunk of permutation pairs on the shared forest.

    Row p of ``pis``/``pips`` is one pair.  A pair's phases depend on its
    denominators alone, so they are propagated once per distinct pattern
    (:func:`_patterns` of the entry ``codes``).  A pair is rejected when a
    denominator vanishes, a ratio is off unit modulus or a cycle disagrees
    by more than ``CYCLE_TOL``.
    With more than ``_EARLY_CHECKS`` patterns the first
    ``_EARLY_CHECKS`` cycle checks run on every pattern and the rest on the
    survivors only.  Returns the accepted rows of ``pis`` and ``pips``, the
    index of each one's pattern and the patterns' (patterns, 2n) node
    values, each component's root exactly 1.  Products use explicit real
    arithmetic and moduli ``np.hypot``, so every float equals the one-pair
    scalar computation bit for bit.
    """
    f = forest
    idx = _denominator_index(pis, pips, f, v.shape[0])
    live, cols, inverse = _patterns(idx, codes)
    alive = None  # the surviving columns, once some are rejected
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        den = v.take(idx.take(cols, axis=1))  # (edges, patterns)
        ok = ~(den == 0).any(axis=0)
        rho = v[f.rows, f.cols][:, None] / den
        mod = np.hypot(rho.real, rho.imag)
        ok &= ~(np.abs(mod - 1.0) > ratio_modulus_tol(tol)).any(axis=0)
        rho /= mod + 0j
        val = np.ones((len(f.components), len(cols)), dtype=np.complex128)
        vr, vi = val.real, val.imag
        for level in f.levels:
            vr[level[0]], vi[level[0]] = _implied(rho, vr, vi, level)
        groups = [f.checks]
        if len(cols) > _EARLY_CHECKS:
            groups = [tuple(a[:_EARLY_CHECKS] for a in f.checks),
                      tuple(a[_EARLY_CHECKS:] for a in f.checks)]
        for checks in groups:
            ir, ii = _implied(rho, vr, vi, checks)
            w = checks[0]
            ok &= ~(np.hypot(vr[w] - ir, vi[w] - ii) > CYCLE_TOL).any(axis=0)
            if not ok.all():
                keep = np.flatnonzero(ok)
                ok, rho, val = ok[keep], rho[:, keep], val[:, keep]
                alive = keep if alive is None else alive[keep]
                vr, vi = val.real, val.imag
    which = inverse  # each live pair's column among the survivors
    if alive is not None:
        which = np.full(len(cols), -1, dtype=np.intp)
        which[alive] = np.arange(len(alive))
        which = which[inverse]
        live, which = live[which >= 0], which[which >= 0]
    return pis[live], pips[live], which, val.T


def _solve(v, perm_in, perm_out, tol, budget):
    """Check the input, then return the constraint forest of V and an iterator
    over (pis, pips, which, val) chunks of the accepted pairs, as
    :func:`_propagate_chunk` returns them.  Every pair is found, and so
    charged to ``budget``, before the first is propagated; pairs are
    propagated as many at a time as one chunk of (edges, pairs) complex
    ratios holds."""
    check_tol(tol)
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ValueError("V must be a square matrix")
    n = v.shape[0]
    budget.charge("unitarity check", 4, 16 * n * n)  # the product and its temporaries
    uni = np.abs(v @ v.conj().T - np.eye(n)).max() if n else 0.0
    if not uni <= UNITARITY_TOL:  # NaN fails too
        raise ValueError(f"V is not unitary (residual {uni:.2e})")

    absv = np.abs(v)
    nz = absv[absv > ZERO_THRESHOLD]
    if nz.size and nz.min() < SUPPORT_WARNING_FACTOR * ZERO_THRESHOLD:
        warnings.warn(
            "smallest nonzero |V| entry is close to the zero threshold; "
            "support detection may be unreliable",
            stacklevel=3,
        )
    forest = _constraint_forest(absv > ZERO_THRESHOLD)

    cands_in = _normalize_perm_arg(perm_in, n)
    cands_out = _normalize_perm_arg(perm_out, n)
    # Every pair is held until the search ends, in the narrowest index type.
    small = np.min_scalar_type(n)
    pairs = []
    for pis, pips in _candidate_pairs(
        absv, cands_in, cands_out, modulus_match_tol(tol), budget,
        chunk_rows(16 * len(forest.rows)),
    ):
        budget.charge("held pairs", len(pis), 2 * n * small.itemsize)
        pairs.append((pis.astype(small), pips.astype(small)))
    # Pairs share their phases by denominator pattern, which small chunks
    # do not look for; the entries are coded once if any chunk is keyed, and
    # one chunk's pattern keys are held at a time.
    keyed = [len(pis) > _KEYED_MIN for pis, _ in pairs]
    codes = None
    if any(keyed):
        budget.charge("entry codes", n * n, 40)  # zero mask, keys, sort and codes
        budget.charge("pattern keys", max(len(pis) for pis, _ in pairs), 8 * (len(forest.rows) + 4))
        codes = _entry_codes(v)
    return forest, (
        _propagate_chunk(v, pis, pips, forest, tol, codes if k else None)
        for (pis, pips), k in zip(pairs, keyed)
    )


def solve_intertwiner(
    v: np.ndarray,
    perm_in=None,
    perm_out=None,
    *,
    tol: float = DEFAULT_TOL,
    budget: Budget | None = None,
) -> DeltaSet:
    """All monomial gates G with V G V^dagger monomial, for the given
    permutation sets, as their delta set.

    ``perm_in``/``perm_out`` may each be a single permutation, an iterable of
    candidate permutations, or None for a full wildcard: the permutations of
    G and of V G V^dagger.  A pair (perm_in, perm_out) is feasible when every
    row m of |V| equals row perm_out(m) of |V| with columns permuted by
    perm_in; the module docstring describes the search.  A call over its
    byte budget raises :class:`SearchBudgetError` naming its estimate,
    before any pair is propagated.  Row f of the result is the gate Pi D of the f-th accepted
    pair, in (perm_in, perm_out) order: lexicographic for a wildcard, list
    order otherwise.  Each row is the complete connected solution set for its
    pair, with one free phase per component of the constraint graph; the
    output side Pi' D' = V Pi D V^dagger follows from the gate.  A NaN,
    infinite or negative ``tol`` is a ValueError.  The search charges
    ``budget``, a fresh one when none is given.
    """
    if budget is None:
        budget = Budget()
    return _gate_families(*_solve(v, perm_in, perm_out, tol, budget))


# ---------------------------------------------------------------------------
# Delta sets


def row_keys(perms: np.ndarray) -> np.ndarray:
    """One raw-bytes key per row of a 2-D array: rows are equal exactly when
    their keys are, and numpy sorts and searches keys as memcmp orders them."""
    perms = np.ascontiguousarray(perms)
    if not perms.shape[1]:  # a view has no key per row for rows of no bytes
        return np.zeros(len(perms), dtype="V1")
    return perms.view(np.dtype((np.void, perms.itemsize * perms.shape[1]))).ravel()


@dataclass(eq=False)
class DeltaSet:
    """Union of gate families compatible with one or more word matrices.

    Row f is one family: the gates Pi D with Pi the permutation ``perms[f]``
    and d_i = rel[f, i] * lambda_{components[i]}, one free unit phase lambda
    per component.  Families share their relative-phase rows: family f's is
    ``rows[codes[f]]``; a set built without ``codes`` has one row per family.
    Every family of a set has the same phase components, so they are stored
    once.  Sets compare by identity.
    """

    perms: np.ndarray  # (families, dim) ints
    rows: np.ndarray  # (rows, dim) complex128
    components: tuple[int, ...]
    codes: np.ndarray | None = None  # (families,) ints into rows; None: one each

    def __post_init__(self):
        if self.codes is None:
            self.codes = np.arange(len(self.rows))

    @property
    def dim(self) -> int:
        return len(self.components)

    @property
    def n_free(self) -> int:
        return max(self.components) + 1 if self.components else 0

    def __len__(self) -> int:
        return len(self.perms)

    @property
    def rel(self) -> np.ndarray:
        """(families, dim): row f is family f's relative phases."""
        return self.rows[self.codes]

    def contains(self, gate: MonomialMatrix) -> bool:
        """Some family holds ``gate``: :meth:`contains_each` of one gate."""
        if len(gate.perm) != self.dim or len(gate.phases) != self.dim:
            return False
        perms = np.asarray([gate.perm], dtype=self.perms.dtype)
        return bool(self.contains_each(perms, [gate.phases])[0])

    def contains_each(self, perms, phases) -> np.ndarray:
        """One flag per gate U|l> = phases[g, l] |perms[g, l]> of two
        (gates, dim) arrays: some family holds it.  On a row of the gate's
        permutation, the ratios d_i / rel[f, i] of each component agree
        within ``MEMBERSHIP_TOL`` with the ratio at the component's first
        index.  One join of row keys, in the wider dtype of the two (none is
        cast when the gates come in the set's), pairs each gate with the
        families of its permutation, and one array pass tests the pairs."""
        perms = np.asarray(perms)
        d = np.asarray(phases, dtype=np.complex128)
        common = np.promote_types(self.perms.dtype, perms.dtype)
        g, f = _join_keys(
            row_keys(perms.astype(common, copy=False)),
            row_keys(self.perms.astype(common, copy=False)),
        )
        first: dict[int, int] = {}
        anchor = [first.setdefault(c, i) for i, c in enumerate(self.components)]
        ratios = d[g] / self.rows[self.codes[f]]
        gap = np.abs(ratios - ratios[:, anchor]).max(axis=1, initial=0.0)
        held = np.zeros(len(perms), dtype=bool)
        held[g[gap <= MEMBERSHIP_TOL]] = True
        return held

    def instantiate_rows(self) -> np.ndarray:
        """Each row's gate phases at free phases 1, ``rows * (1 + 0j)``.

        The product by 1 + 0j turns some -0.0 imaginary parts into +0.0,
        which decides whether an angle prints as +pi or -pi.
        """
        return self.rows * np.ones(1, dtype=np.complex128)

    def instantiate_families(self) -> np.ndarray:
        """Row f is family f's gate phases at free phases 1 (see
        :meth:`instantiate_rows`)."""
        return self.instantiate_rows()[self.codes]


def delta_set(
    model: AnyonModel,
    surface: SurfaceSpec,
    word: str,
    restrict_perms=None,
    restrict_perms_out=None,
    *,
    tol: float = DEFAULT_TOL,
    basis: BasisIndex | None = None,
) -> DeltaSet:
    """All monomial gates G with V(word) G V(word)^dagger still monomial.

    G = Pi D lies in Delta_word iff (Pi', D') with V Pi D = Pi' D' V exist,
    the intertwiner equation of :func:`solve_intertwiner`.  ``restrict_perms``
    restricts the searched gate permutations; ``restrict_perms_out``
    restricts the conjugated gate's permutation, which word matrices with
    many equal-modulus entries may need to keep the matching enumeration
    within the budget.  ``tol`` is checked as in
    :func:`solve_intertwiner`; then the search's byte budget is charged the
    n x n matrices the word's evaluation holds and one search row of n^3
    booleans, the least any search holds (charged again when taken), before
    the word is evaluated on ``basis``, the surface's enumeration of the
    labelings (made here when not given).  Families come in
    :func:`solve_intertwiner`'s order.  An empty code space is an
    :class:`InfeasibleSurfaceError`, as in :func:`classify`.
    """
    check_tol(tol)
    if basis is None:
        basis = enumerate_labelings(model, surface)
    if basis.dim == 0:
        raise InfeasibleSurfaceError(
            f"{surface.describe(model)} has an empty code space for model {model.name}"
        )
    budget = Budget()
    v = word_matrix(model, basis, parse_word(word, surface), budget)
    return _gate_families(*_solve(v, restrict_perms, restrict_perms_out, tol, budget))


def word_matrix(
    model: AnyonModel, basis: BasisIndex, tokens: list[tuple[str, int]], budget: Budget
) -> np.ndarray:
    """The matrix of a parsed word on ``basis``, evaluated after ``budget``
    is charged the n x n matrices the evaluation holds and one search row of
    n^3 booleans, the least any search of it holds."""
    # the running product, its next value, a conjugate and each generator used
    budget.charge("word matrix", 3 + len({sym for sym, _ in tokens}), 16 * basis.dim**2)
    budget.charge("search row", 1, basis.dim**3)
    return evaluate_on_basis(model, basis, tokens).matrix


def _gate_families(forest: _ConstraintForest, accepted) -> DeltaSet:
    """The gate side of the accepted pairs of one solve, as a delta set.

    The forest is shared, so every family has the same gate components,
    renumbered in first-seen order, and the same root per gate phase:
    ``perms`` stacks the accepted gate permutations, ``rows`` one array
    division of each chunk's pattern phases by their component roots
    (exactly 1 + 0j, which turns -1 - 0j into -1 + 0j as a per-family
    division would) and ``codes`` each family's pattern.
    """
    n = len(forest.components) // 2
    ids: dict[int, int] = {}
    components = tuple(ids.setdefault(c, len(ids)) for c in forest.components[:n])
    roots = forest.roots[:n]
    perms = [np.zeros((0, n), dtype=np.intp)]
    rows = [np.zeros((0, n), dtype=np.complex128)]
    codes = [np.zeros(0, dtype=np.intp)]
    held = 0
    for pis, _, which, val in accepted:
        perms.append(pis)
        rows.append(val[:, :n] / val[:, roots])
        codes.append(which + held)
        held += len(val)
    return DeltaSet(np.concatenate(perms), np.concatenate(rows), components, np.concatenate(codes))


def _join(comp_a, rel_a, comp_b, rel_b, tol):
    """The phase vectors lying in both cosets {d : d_i = rel_i *
    lambda_{comp_i}}, as (components, rel), components numbered in
    first-seen order and each rel entry relative to its component's first
    index; None when the constraints contradict (a cycle off by more than
    ``tol``).  A union-find over the indices, each tied to its parent by a
    fixed ratio, in scalar arithmetic on the entries as given.
    """
    n = len(comp_a)
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

    for comp, rel in ((comp_a, rel_a), (comp_b, rel_b)):
        first: dict[int, int] = {}
        for i in range(n):
            c = comp[i]
            if c in first:
                j = first[c]
                if not union(i, j, rel[i] / rel[j]):
                    return None
            else:
                first[c] = i
    comp_ids: dict[int, int] = {}
    components = []
    joined = []
    root_val: dict[int, complex] = {}
    for i in range(n):
        r, f = find(i)
        if r not in comp_ids:
            comp_ids[r] = len(comp_ids)
            root_val[r] = f
        components.append(comp_ids[r])
        joined.append(f / root_val[r])
    return tuple(components), tuple(joined)


def intersect_delta(sets: list[DeltaSet]) -> DeltaSet:
    """Families of gates lying in every input set.

    Families intersect pairwise: same gate permutation, conjoined phase
    cosets, in the order of the first set's families, then the second's.
    Within one set, families with equal permutation are disjoint (the output
    monomial is a function of the gate), so no deduplication is needed;
    empty conjunctions are dropped.  Two rigid sets (one free phase each)
    are compared in one array pass: a pair keeps the first family when no
    relative phase differs by more than ``CYCLE_TOL``.  Other pairs go
    through ``_join`` one by one; the join of the two partitions is the same
    for every pair, so the result keeps one ``components``.  A lone set is
    returned as it is.
    """
    if not sets:
        raise ValueError("need at least one delta set")
    dim = sets[0].dim
    for s in sets:
        if s.dim != dim:
            raise ValueError("delta sets over different bases")
    current = sets[0]
    # After a non-rigid step, ``rows`` holds the rel tuples its ``_join``
    # calls returned, row for row, and the next such step reads them: their
    # types pick the next join's scalar arithmetic, and so its bits.  They
    # are numpy complex128 scalars, and Python complex for roots seeded by
    # the union-find's 1 + 0j (exactly 1, so their values equal the array's).
    # Python's complex division differs from numpy's in the last bit on
    # about a third of unit-modulus pairs, and numpy's array products and
    # moduli from its scalar ones on as many: a vectorised join must keep
    # the bits of these scalar operations.
    rows = None
    for s in sets[1:]:
        # the row pairs with equal permutations, ordered by i, then by j
        common = np.promote_types(current.perms.dtype, s.perms.dtype)
        ia, ib = _join_keys(
            row_keys(current.perms.astype(common, copy=False)),
            row_keys(s.perms.astype(common, copy=False)),
        )
        if current.n_free == 1 and s.n_free == 1:
            keep = np.empty(len(ia), dtype=bool)
            step = chunk_rows(16 * dim)
            for lo in range(0, len(ia), step):
                pairs = slice(lo, lo + step)
                a = current.rows[current.codes[ia[pairs]]]
                gap = np.abs(a - s.rows[s.codes[ib[pairs]]])
                keep[pairs] = gap.max(axis=1, initial=0.0) <= CYCLE_TOL
            ia = ia[keep]
            current, rows = DeltaSet(
                current.perms[ia], current.rows, current.components, current.codes[ia]
            ), None
            continue
        if rows is None:
            rows = [tuple(r) for r in current.rel]
        kept, rel, components = [], [], None
        for i, j in zip(ia.tolist(), s.codes[ib].tolist()):
            joined = _join(current.components, rows[i], s.components, tuple(s.rows[j]), CYCLE_TOL)
            if joined is not None:
                kept.append(i)
                components, r = joined
                rel.append(r)
        if components is None:  # nothing kept: the join of the partitions
            ones = (1.0 + 0j,) * dim
            components = _join(current.components, ones, s.components, ones, CYCLE_TOL)[0]
        current, rows = DeltaSet(
            current.perms[kept],
            np.array(rel, dtype=np.complex128).reshape(len(kept), dim),
            components,
        ), rel
    return current
