"""Abelian-model structure: fusion group, affine symmetries, string operators.

When every quantum dimension is 1 the labels form a finite abelian group
under fusion and the torus representation is built from group characters.
That gives three things the generic solver cannot:

* a complete closed form for the monomial gates compatible with any set of
  torus words that each contain a single s letter (affine label
  permutation, character diagonal, twist dressing), valid at dimensions far
  beyond the reach of the wildcard search;
* string (Wilson loop) operators along the two torus cycles and a batched
  membership test for the generalized Clifford hierarchy's second level
  restricted to monomial representatives;
* the same string operators as X and Z exponents on the edges of an L x L
  qudit lattice, for cross-checking commutation phases against the S matrix
  without building 2^(2 L^2)-dimensional state vectors.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .budget import Budget, chunk_rows
from .mcg import evaluate_word, parse_word
from .models import AnyonModel, _join, abelian_smatrix, fusion_channels, quantum_dimensions
from .solver import (
    DeltaSet,
    row_keys,
    is_monomial,
    monomial_mask,
)
from .surfaces import SurfaceSpec
from .tolerances import (
    CLIFFORD_TOL,
    CYCLE_TOL,
    DEFAULT_TOL,
    FACTOR_ZERO_THRESHOLD,
    LATTICE_TOL,
    MONOMIAL_READ_TOL,
    QDIM_TOL,
    ROOT_TOL,
    STRING_BASIS_TOL,
    ZERO_THRESHOLD,
    check_tol,
    factor_unit_modulus_tol,
)


def is_abelian(model: AnyonModel, tol: float = QDIM_TOL) -> bool:
    return bool(np.abs(quantum_dimensions(model) - 1.0).max() < tol)


# The fusion-group helpers below are memoised on the content they read (the
# fusion support, or the S matrix), not on the mutable model object: a
# mutated model then gets fresh answers, and the caches keep no model alive.


def _fusion_key(model: AnyonModel) -> tuple[int, bytes]:
    if not is_abelian(model):
        raise ValueError("fusion is multivalued for non-abelian models")
    return model.n_labels, np.asarray(model.fusion, dtype=bool).tobytes()


def fusion_table(model: AnyonModel) -> np.ndarray:
    """mul[a, b] = the unique product label, read-only; abelian models only."""
    return _fusion_table(*_fusion_key(model))


def _fusion_table(n: int, support: bytes) -> np.ndarray:
    # the support as 0/1 bytes shares the channel table of a uint8 tensor
    support = np.frombuffer(support, dtype=np.uint8).reshape(n, n, n)
    return fusion_channels(support).product_table


@dataclass(frozen=True)
class GroupCoordinates:
    """Cyclic decomposition of the fusion group.

    ``generators[i]`` has order ``orders[i]`` and the map
    (e_1, ..., e_k) -> prod generators[i]^e_i is a bijection recorded in
    ``coords`` (label index -> exponent tuple).
    """

    generators: tuple[int, ...]
    orders: tuple[int, ...]
    coords: tuple[tuple[int, ...], ...]

    @property
    def exponent(self) -> int:
        out = 1
        for m in self.orders:
            out = out * m // _gcd(out, m)
        return out


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _pow(mul: np.ndarray, g: int, k: int) -> int:
    out = 0
    for _ in range(k):
        out = int(mul[out, g])
    return out


def _order(mul: np.ndarray, g: int) -> int:
    x = g
    k = 1
    while x != 0:
        x = int(mul[x, g])
        k += 1
    return k


def group_coordinates(model: AnyonModel) -> GroupCoordinates:
    """Greedy cyclic decomposition of the fusion group, largest order first."""
    return _group_coordinates(*_fusion_key(model))


@functools.lru_cache(maxsize=None)
def _group_coordinates(n: int, support: bytes) -> GroupCoordinates:
    """Greedy cyclic decomposition, largest order first.

    Repeatedly pick the element of maximal order modulo the subgroup
    generated so far, then shift it by a subgroup element so its order in
    the full group equals its order in the quotient.  Group sizes here are
    small (<= 36 labels), so the searches are plain loops.
    """
    mul = _fusion_table(n, support)
    subgroup = {0}
    generators: list[int] = []
    orders: list[int] = []
    while len(subgroup) < n:
        best_g, best_m = -1, 0
        for g in range(n):
            if g in subgroup:
                continue
            x, m = g, 1
            while x not in subgroup:
                x = int(mul[x, g])
                m += 1
            if m > best_m:
                best_g, best_m = g, m
        g, m = best_g, best_m
        if _order(mul, g) != m:
            for h in subgroup:
                cand = int(mul[g, h])
                if _order(mul, cand) == m and _pow(mul, cand, m) == 0:
                    g = cand
                    break
            else:
                raise RuntimeError("no order-matching coset representative found")
        generators.append(g)
        orders.append(m)
        subgroup = {int(mul[a, _pow(mul, g, k)]) for a in subgroup for k in range(m)}
    coords = [None] * n
    for exps in itertools.product(*(range(m) for m in orders)):
        x = 0
        for g, e in zip(generators, exps):
            x = int(mul[x, _pow(mul, g, e)])
        coords[x] = tuple(exps)
    if any(c is None for c in coords):
        raise RuntimeError("coordinate enumeration did not cover the group")
    return GroupCoordinates(
        generators=tuple(generators), orders=tuple(orders), coords=tuple(coords)
    )


def automorphisms(model: AnyonModel) -> np.ndarray:
    """All fusion-group automorphisms as label permutations, one per row, in
    lexicographic order."""
    return _automorphisms(*_fusion_key(model))


def _lex_order(perms: np.ndarray) -> np.ndarray:
    """Stable lexicographic order of label rows.  numpy sorts raw bytes as
    memcmp does, which on big-endian unsigned entries is the order of the
    numbers."""
    big = perms.astype(np.dtype(np.min_scalar_type(perms.shape[1])).newbyteorder(">"))
    return np.argsort(row_keys(big), kind="stable")


@functools.lru_cache(maxsize=None)
def _automorphisms(n: int, support: bytes) -> np.ndarray:
    """Every choice of generator images h_i whose order divides orders[i]
    gives the homomorphism x -> prod_i h_i^(e_i(x)) on the exponent vectors
    e(x); the bijective ones are the automorphisms."""
    mul = _fusion_table(n, support)
    gc = _group_coordinates(n, support)
    coords = np.array(gc.coords, dtype=np.intp).reshape(n, len(gc.orders))
    orders = np.array(gc.orders, dtype=np.intp)
    # order of x: lcm over i of orders[i] / gcd(e_i(x), orders[i])
    elem_order = np.lcm.reduce(orders // np.gcd(coords, orders), axis=1, initial=1)
    candidates = [np.flatnonzero(m % elem_order == 0).tolist() for m in gc.orders]
    images = np.array(list(itertools.product(*candidates)), dtype=np.intp)  # (choice, i)
    top = max(gc.orders, default=1)
    powers = np.zeros((n, top), dtype=np.intp)  # powers[h, e] = h^e
    for e in range(1, top):
        powers[:, e] = mul[powers[:, e - 1], np.arange(n)]
    perms = np.zeros((len(images), n), dtype=np.intp)
    for i, e in enumerate(coords.T):
        perms = mul[perms, powers[images[:, i]][:, e]]
    perms = perms[(np.sort(perms, axis=1) == np.arange(n)).all(axis=1)]
    out = perms[_lex_order(perms)]
    out.flags.writeable = False
    return out


def affine_permutations(model: AnyonModel) -> np.ndarray:
    """Label maps x -> c + alpha(x) with alpha an automorphism, c any label,
    one per row, in lexicographic order."""
    return _affine_permutations(*_fusion_key(model))


@functools.lru_cache(maxsize=None)
def _affine_permutations(n: int, support: bytes) -> np.ndarray:
    mul = _fusion_table(n, support)
    autos = _automorphisms(n, support)
    # alpha(0) = 0, so row c + alpha starts with c: the maps are distinct
    perms = mul[:, autos].reshape(-1, n)
    out = perms[_lex_order(perms)]
    out.flags.writeable = False
    return out


def characters(model: AnyonModel) -> np.ndarray:
    """Character table chi_b(x), one row per label b.

    For an abelian model the rescaled S matrix rows sqrt(n) S_b are exactly
    the characters of the fusion group.
    """
    n = model.n_labels
    return np.sqrt(n) * model.smatrix


# ---------------------------------------------------------------------------
# Torus gate families in closed form


def _single_s_split(tokens: list[tuple[str, int]]):
    """(prefix, s_sign, suffix) if the word has exactly one s letter."""
    s_positions = [i for i, (g, _) in enumerate(tokens) if g == "s"]
    if len(s_positions) != 1:
        return None
    i = s_positions[0]
    return tokens[:i], tokens[i][1], tokens[i + 1 :]


def _automorphism_parts(mul: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """alpha = T_{pi(0)}^-1 pi of each affine row pi, in ``mul``'s dtype."""
    inverse = np.argmin(mul, axis=1)  # mul[c, inverse[c]] = 0
    return mul[inverse[perms[:, 0]][:, None], perms]


def affine_maps(model: AnyonModel, budget: Budget) -> np.ndarray:
    """``affine_permutations(model)``, charged to ``budget`` before it is built."""
    n = model.n_labels
    budget.charge("affine maps", n * len(automorphisms(model)), 2 * 8 * n)  # gathered, sorted
    return affine_permutations(model)


def torus_word_families(
    model: AnyonModel,
    words: str | list[str],
    *,
    tol: float = DEFAULT_TOL,
) -> DeltaSet:
    """Complete gate family set for one or several single-s torus words.

    Abelian models only; the set has one phase component, its length is
    the family count, and its permutation rows are held in
    ``np.min_scalar_type(n)``, as the solver holds every set it builds.
    Write V = A S^{+-1} B with A, B diagonal twist products.  V Pi D V^dag
    is monomial iff Pi is affine and B (Pi D) B^dag has a character
    diagonal: the vacuum row of S (Pi D~) S^dag is the
    Fourier transform of the diagonal, so a unit-modulus diagonal must be a
    single character, and nondegeneracy of the pairing then forces Pi
    affine.  Hence, for one word,

        D(x) = chi_b(x) * dress_pi(x),   dress_pi(x) = suffix(x) * conj(suffix(pi(x)))

    over all affine pi and all characters chi_b, each family one free phase,
    ordered by pi, then b.

    Every family of every word is verified by factors rather than products,
    and the permutation part only on the group's generators.  Write
    P(pi) = Pi diag(dress_pi).  As |suffix| = 1,
    dress_{pi1 pi2}(x) = dress_{pi2}(x) dress_{pi1}(pi2(x)), so
    P(pi1 pi2) = P(pi1) P(pi2).  Every affine pi is T_c alpha: the
    translation T_c(x) = c x by c = pi(0) after the automorphism
    alpha = T_c^-1 pi.  So

        V (Pi D) V^dag = (V P(T_c) V^dag) (V P(alpha) V^dag) (V diag(chi_b) V^dag).

    The character factor is checked monomial once per word and b, the
    translation factor once per word and c, and the automorphism factor once
    per word and alpha: n + |Aut| permutation factors per word instead of
    one per affine map, n |Aut|.  Each check uses the tightened bounds
    ``FACTOR_ZERO_THRESHOLD`` and ``factor_unit_modulus_tol(tol)``; three
    passing factors provably make a product that passes the per-family test
    with ``VERIFY_ZERO_THRESHOLD`` and ``unit_modulus_tol(tol)`` (the
    derivation is in ``tolerances.py``).  Each listed map is split with an
    integer row-key lookup of alpha among the automorphisms.  A failing
    factor, or a map that does not split, is a RuntimeError.

    Several words return the gate families lying in every word's list: the
    same families, in the same order and with the first word's cosets, as
    ``intersect_delta`` of the per-word lists, without building those lists.
    Rigid cosets of one pi agree only if the ratio q of the two words'
    dressings is a character chi_c; then (pi, chi_b) of the first word can
    only meet (pi, chi_{b c}) of the other, and that pair is kept when it
    passes ``intersect_delta``'s test of two rigid families: no relative
    phase differs by more than ``CYCLE_TOL``.  The two relative phases
    differ by chi_b(x) (rel_0(x) - rel'_c(x)), and |chi_b| = 1, so the gap is
    the same for every b: q, c and the gap are computed at b = 0, and a map
    keeps all n characters or none.

    The gap is also the same for every map of one automorphism.  As
    dress_alpha(0) = 1, the product rule above gives the relative phases
    rel_{T_c alpha}(x) = rel_alpha(x) rel_{T_c}(alpha(x)), so
    q(T_c alpha) = q(alpha) (q(T_c) o alpha).  When q(T_c) is a character,
    so is q(T_c) o alpha, and it moves the partner of T_c alpha by itself:
    the gap of T_c alpha is that of alpha.  So the join runs once per
    (automorphism, later word), and on the n translations, whose gap is
    zero exactly when q(T_c) is a character; a translation that fails it is
    a RuntimeError.  Each affine map keeps what its automorphism keeps,
    read off the row-key lookup that splits it.

    The translations and automorphisms run in chunks of ``chunk_rows``
    (factor, dressings, partner character and gap), the affine maps in
    chunks of their split.  Only the kept (pi, b) rows get relative phases,
    with the elementwise arithmetic one family would get, so the cosets are
    bit-identical to a pass per family.  Character factors, affine maps and
    found rows are charged to a byte budget before they are built.
    """
    check_tol(tol)
    if isinstance(words, str):
        words = [words]
    surface = SurfaceSpec(kind="torus")
    n = model.n_labels
    suffixes, vmats = [], []
    for word in words:
        tokens = parse_word(word, surface)
        split = _single_s_split(tokens)
        if split is None:
            raise ValueError(f"word {word!r} does not contain exactly one s letter")
        suffix_diag = np.ones(n, dtype=np.complex128)
        for _, sign in split[2]:
            suffix_diag *= model.twists if sign > 0 else np.conj(model.twists)
        suffixes.append(suffix_diag)
        vmats.append(evaluate_word(model, surface, tokens).matrix)
    budget = Budget()
    budget.charge("character factors", len(words) * n, 2 * 16 * n * n)  # and their products
    suffix = np.array(suffixes)  # (word, x)
    suffix_conj = np.conj(suffix)
    vmat = np.array(vmats)  # (word, y, z)
    vh = np.conj(vmat).transpose(0, 2, 1)  # (word, z, x)
    chi = characters(model)
    mul = fusion_table(model)
    unit_tol = factor_unit_modulus_tol(tol)

    def dressings(pi):  # (p, word, x)
        return suffix * suffix_conj[:, pi].transpose(1, 0, 2)

    # (word, b, y, z): the character factor V_w diag(chi_b) V_w^dag
    ok = monomial_mask(
        (vmat[:, None] * chi[None, :, None, :]) @ vh[:, None],
        unit_tol,
        FACTOR_ZERO_THRESHOLD,
    )
    if not ok.all():
        k, b = (int(i) for i in np.argwhere(~ok)[0])
        raise RuntimeError(
            f"derived character (word={words[k]!r}, b={b}) failed verification"
        )

    def joined(pi):  # (p,): every later word's partner of chi_0 within CYCLE_TOL
        if len(words) == 1:
            return np.ones(len(pi), dtype=bool)
        dress = dressings(pi)
        diag0 = chi[0] * dress
        rel = diag0 / diag0[..., :1]  # (p, word, x): each word's coset at b = 0
        # its ratio to word 0's picks the nearest character chi_c, the partner of b = 0
        q = rel[:, :1] * np.conj(rel[:, 1:])  # (p, later word, x)
        c = np.abs(q @ np.conj(chi).T).argmax(axis=2)
        partner = chi[c] * dress[:, 1:]
        gap = np.abs(rel[:, :1] - partner / partner[..., :1]).max(axis=2)
        return (gap <= CYCLE_TOL).all(axis=1)

    perms = affine_maps(model, budget)
    autos = automorphisms(model)
    gens = np.concatenate([mul, autos])  # row c < n is T_c, then the automorphisms
    gen_keep = np.empty(len(gens), dtype=bool)
    step = chunk_rows(16 * len(words) * n * n)
    for lo in range(0, len(gens), step):
        pi = gens[lo : lo + step]
        # (p, word, y, z): the permutation factor V_w P(pi) V_w^dag
        w = (vmat[:, :, pi].transpose(2, 0, 1, 3) * dressings(pi)[:, :, None, :]) @ vh
        ok = monomial_mask(w, unit_tol, FACTOR_ZERO_THRESHOLD)
        if not ok.all():
            i, k = (int(i) for i in np.argwhere(~ok)[0])
            kind = "translation" if lo + i < n else "automorphism"
            raise RuntimeError(
                f"derived {kind} (word={words[k]!r}, pi={tuple(pi[i].tolist())}) "
                "failed verification"
            )
        gen_keep[lo : lo + step] = joined(pi)
    if not gen_keep[:n].all():
        c = int(np.argmin(gen_keep[:n]))
        raise RuntimeError(
            f"derived translation (words={words!r}, pi={tuple(mul[c].tolist())}) "
            "failed the join"
        )
    auto_keep = gen_keep[n:]

    keys = row_keys(autos)
    by_key = np.argsort(keys)
    keep = [np.zeros(0, dtype=bool)]
    step = chunk_rows(3 * 8 * n)  # alpha, the automorphism it looks up, their comparison
    for lo in range(0, len(perms), step):
        pi = perms[lo : lo + step]
        alpha = _automorphism_parts(mul, pi)
        at = np.searchsorted(keys, row_keys(alpha), sorter=by_key)
        at = by_key[np.minimum(at, len(autos) - 1)]
        splits = (autos[at] == alpha).all(axis=1)
        if not splits.all():
            i = int(np.argmin(splits))
            raise RuntimeError(
                f"derived family (word={words[0]!r}, pi={tuple(pi[i].tolist())}) "
                "failed verification"
            )
        keep.append(auto_keep[at])
    kept = perms[np.concatenate(keep)]
    budget.charge("found rows", len(kept) * n, 2 * 24 * n)  # int and complex, and temporaries
    diags = chi * dressings(kept)[:, :1]  # [p, b] holds D for chi_b
    rel = np.divide(diags, diags[..., :1], out=diags)
    kept = kept.astype(np.min_scalar_type(n))
    return DeltaSet(np.repeat(kept, n, axis=0), rel.reshape(-1, n), (0,) * n)


def torus_word_supported(model: AnyonModel, word: str) -> bool:
    tokens = parse_word(word, SurfaceSpec(kind="torus"))
    return _single_s_split(tokens) is not None


def word_is_unconstraining(model: AnyonModel, word: str) -> bool:
    """True when V(word) is itself monomial, so conjugation keeps everything."""
    v = evaluate_word(model, SurfaceSpec(kind="torus"), word).matrix
    return is_monomial(v)


# ---------------------------------------------------------------------------
# String operators and Clifford-star membership


def string_operator_matrices(model: AnyonModel) -> tuple[np.ndarray, np.ndarray]:
    """[F_a(C1)] and [F_a(C2)] in the C1 fusion-tree basis, stacked over a.

    F_a(C1) is diagonal with entries D S_{a x}; C2 strings are the S
    conjugates of the same diagonals.
    """
    s = np.asarray(model.smatrix, dtype=np.complex128)
    return _string_operator_matrices(s.shape[0], s.tobytes())


@functools.lru_cache(maxsize=None)
def _string_operator_matrices(n: int, smatrix: bytes) -> tuple[np.ndarray, np.ndarray]:
    s = np.frombuffer(smatrix, dtype=np.complex128).reshape(n, n)
    chi = float(np.real(1.0 / s[0, 0])) * s  # F_a(C1) = diag(chi[a])
    f1 = np.zeros((n, n, n), dtype=np.complex128)
    f1[:, np.arange(n), np.arange(n)] = chi
    f2 = np.einsum("xy,ay,wy->axw", s, chi, np.conj(s))
    return f1, f2


def string_operators(model: AnyonModel) -> tuple[np.ndarray, np.ndarray]:
    """The 2n string operators read as monomials: (perms, phases), F_a(C1)
    at row a and F_a(C2) at row n + a, with F|l> = phases[r, l] |perms[r, l]>.

    Each column's largest entry gives its image and phase.  A column with
    no entry or several above ``ZERO_THRESHOLD``, an image entry off modulus
    1 by more than ``MONOMIAL_READ_TOL``, or images that are no permutation
    is a ValueError.
    """
    s = np.asarray(model.smatrix, dtype=np.complex128)
    return _string_operators(s.shape[0], s.tobytes())


@functools.lru_cache(maxsize=None)
def _string_operators(n: int, smatrix: bytes) -> tuple[np.ndarray, np.ndarray]:
    f = np.concatenate(_string_operator_matrices(n, smatrix))
    absf = np.abs(f)
    perms = absf.argmax(axis=1)
    top = np.take_along_axis(absf, perms[:, None], axis=1)[:, 0]
    loose = (top <= ZERO_THRESHOLD) | ((absf > ZERO_THRESHOLD).sum(axis=1) != 1)
    failed = np.argwhere(loose | (np.abs(top - 1.0) > MONOMIAL_READ_TOL))
    if len(failed):
        r, l = failed[0]
        if loose[r, l]:
            raise ValueError(f"column {l} is not monomial")
        raise ValueError(f"column {l} entry has modulus {top[r, l]:.3e}, not 1")
    if (np.sort(perms, axis=1) != np.arange(n)).any():
        raise ValueError("column maxima do not form a permutation")
    phases = np.take_along_axis(f, perms[:, None], axis=1)[:, 0] / top
    perms.flags.writeable = phases.flags.writeable = False
    return perms, phases


def clifford_star_batch(
    model: AnyonModel,
    perms,
    phases,
    tol: float = CLIFFORD_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Clifford-star membership of many monomial gates at once.

    Gate k is U = Pi D with U|l> = phases[k][l] |perms[k][l]>.  Returns two
    boolean arrays: U maps every string generator to a string up to a
    phase, and those phases are roots of unity of the group exponent.

    The strings F_a(C1) F_b(C2) are an orthogonal basis of the label-space
    matrices, with F_a(C1) = diag(chi_a) and F_b(C2) a fusion permutation.
    U conjugates a monomial generator G = (g, e_G) to the monomial sending
    column pi(w) to row pi(g(w)) with phase conj(d_w) e_G(w) d_{g(w)}.  Its
    string coefficients are zero off that permutation's strings and, on
    them, the character projection of the phases placed on their rows.  U
    is a member when, for every generator, exactly one coefficient exceeds
    ``tol`` and it has modulus 1 within ``tol``, as in the dense expansion.
    Reading perms and phases suffices: if Pi is not affine, some
    chi_a o Pi^-1 is no multiple of a character, nor then is some
    generator's (below), and a C1 generator fails; an affine Pi conjugates
    each fusion permutation to another one.

    Only the group's generators are conjugated.  Conjugation by a unitary U
    is a homomorphism, and each cycle's strings multiply like the group:
    F_a = prod_i F_{g_i}^{e_i(a)} for the generators g_i and exponents e_i of
    ``group_coordinates``.  If U F_{g_i} U^dag = lambda_i F_i' for every i,
    with F_i' a string, then U F_a U^dag is prod_i lambda_i^{e_i(a)} times a
    product of strings.  Such a product is a string times a character value,
    a root of the exponent.  So F_a maps to a string with a unit phase, an
    exponent root when every lambda_i is one; the converse holds as the
    generators are strings too.  The C1 half therefore reads the k generator
    characters and the C2 half the k generator strings, plus the vacuum
    string F_0(C2) = 1: its conjugate diag(|d|^2) passes only when every
    |d| = 1 within ``tol``, which makes U unitary, so the argument applies.

    A C1 generator is diagonal, so D cancels from its conjugate,
    Pi D F_a(C1) D^dag Pi^dag = Pi F_a(C1) Pi^dag, once |d| = 1; the C1 half
    is therefore checked once per distinct permutation, all generators in
    one product.  The C2 half is checked per gate, in blocks of gates with
    every generator in one product.  Each block of (gates, k + 1, n) complex
    coefficients takes ``chunk_rows`` gates.  For the classes of closed-form
    torus families, ``clifford_star_by_automorphism`` calls it on one class
    per automorphism and one per translation only.
    """
    perms = np.asarray(perms)
    d = np.asarray(phases, dtype=np.complex128)
    n = model.n_labels
    string_perms, string_phases = string_operators(model)
    chi = string_phases[:n]
    gram = chi @ np.conj(chi).T
    c2_phases = string_phases[n:]
    if (
        np.abs(gram - n * np.eye(n)).max() > STRING_BASIS_TOL
        or np.abs(c2_phases - 1.0).max() > STRING_BASIS_TOL
    ):
        raise RuntimeError("string operators are not characters and permutations")
    gc = group_coordinates(model)
    nexp = gc.exponent
    strings = [0, *gc.generators]

    def passes(y):
        """Per phase vector of a (gates, generators, n) stack: (one unit
        coefficient in the character basis, and it is an exponent root)."""
        coeffs = (y.reshape(-1, n) @ np.conj(chi).T / n).reshape(y.shape)
        absc = np.abs(coeffs)
        top = np.take_along_axis(coeffs, absc.argmax(axis=-1)[..., None], -1)[..., 0]
        member = ((absc > tol).sum(axis=-1) == 1) & (np.abs(np.abs(top) - 1.0) <= tol)
        return member, np.abs(top**nexp - 1.0) <= ROOT_TOL

    # C1 half: row r of Pi F_g(C1) Pi^dag holds chi_g(Pi^-1(r)).
    distinct, which = np.unique(row_keys(perms), return_inverse=True)
    pis = distinct.view(perms.dtype).reshape(-1, n)
    chi_gens = chi[list(gc.generators)]
    c1 = np.empty((2, len(pis)), dtype=bool)
    step = chunk_rows(16 * len(strings) * n)
    for lo in range(0, len(pis), step):
        inverse = np.argsort(pis[lo : lo + step], axis=1)
        y = chi_gens[:, inverse].transpose(1, 0, 2)  # (pi, generator, row)
        c1[:, lo : lo + step] = [x.all(axis=1) for x in passes(y)]
    member, roots = c1[:, which.ravel()]

    # C2 half, per gate: row pi(g(w)) of U F_g(C2) U^dag holds
    # conj(d_w) e_g(w) d_{g(w)}; the vacuum and the generators at once.
    g2 = string_perms[n:][strings]  # (string, w)
    e2 = c2_phases[strings]
    for lo in range(0, len(perms), step):
        pi, dd = perms[lo : lo + step], d[lo : lo + step]
        y = np.zeros((len(pi), len(strings), n), dtype=np.complex128)  # (gate, string, row)
        y[np.arange(len(pi))[:, None, None], np.arange(len(strings))[:, None], pi[:, g2]] = (
            np.conj(dd)[:, None, :] * e2 * dd[:, g2]
        )
        ok, root = passes(y)
        member[lo : lo + step] &= ok.all(axis=1)
        roots[lo : lo + step] &= root.all(axis=1)
    return member, member & roots


def clifford_star_by_automorphism(model: AnyonModel, perms, phases) -> np.ndarray:
    """``clifford_star_batch``'s membership of gates from closed-form torus
    families, decided once per automorphism.

    Every gate is P(T_c) P(alpha) diag(chi_b) up to a phase
    (``torus_word_families``), with alpha = T_{pi(0)}^-1 pi.  As P is a
    homomorphism, two gates of one alpha differ by P(T_c' c^-1) on the left
    and a character diagonal, a C1 string, on the right.  The Clifford-star
    set contains the strings and is closed under products and inverses, and
    P(T_d) is a member exactly when a gate of permutation T_d is.  So once
    one gate of each translation passes, one gate decides every gate of its
    alpha: the first gate of each alpha is checked, with one gate of each
    translation, and every gate takes its alpha's flag.  When some
    translation has no gate, or a translation's gate fails, every gate is
    checked.  Gates whose phases match the closed form's only within a
    coset tolerance get the flags of the exact ones up to that tolerance.
    """
    perms = np.asarray(perms)
    phases = np.asarray(phases)
    n = model.n_labels
    alpha = _automorphism_parts(fusion_table(model).astype(perms.dtype), perms)
    _, first, which = np.unique(row_keys(alpha), return_index=True, return_inverse=True)
    shift = np.flatnonzero((alpha == np.arange(n)).all(axis=1))  # the translations' gates
    _, at = np.unique(perms[shift, 0], return_index=True)
    reps = np.concatenate([first, shift[at]])
    member, _ = clifford_star_batch(model, perms[reps], phases[reps])
    if len(at) < n or not member[len(first) :].all():
        return clifford_star_batch(model, perms, phases)[0]
    return member[which.ravel()]


# ---------------------------------------------------------------------------
# Lattice cross-check


def _loops(nmod: int, l: int, horizontal: bool):
    """The N^2 closed (flux, charge) strings along one cycle of an L x L
    torus, row flux * N + charge: (X edges, Z edges, X exponents, Z exponents).

    Edge 2 (r L + c) is the horizontal edge of plaquette (r, c), edge
    2 (r L + c) + 1 its vertical one.  The charge is a Z string on the L
    edges the loop crosses (through row 0 or column 0), the flux an X string
    on the L parallel edges of the dual loop.  Off them a loop is the
    identity, so it is held on them alone: (L,) edge and (N^2, L) exponent
    arrays.
    """
    i = np.arange(l)
    cross = 2 * i if horizontal else 2 * i * l + 1
    dual = cross + 1 if horizontal else cross - 1
    flux, charge = np.divmod(np.arange(nmod * nmod), nmod)
    return dual, cross, np.repeat(flux[:, None], l, axis=1), np.repeat(charge[:, None], l, axis=1)


def lattice_commutation_check(nmod: int, l: int, tol: float = LATTICE_TOL) -> dict:
    """Compare crossing-loop commutation phases against the Z_N torus S matrix.

    For dyons (a, a') on a horizontal cycle and (b, b') on a vertical one the
    lattice symplectic form gives omega^{a b' - a' b}; the model S matrix
    carries omega^{-(a b' + a' b)} / N.  The two agree after conjugating the
    charge of the crossing dyon, which is the orientation choice for how the
    second loop pierces the first.  Returns a report dict with the worst
    mismatch.

    Each cycle's N^2 loops are built once (``_loops``).  As X Z =
    omega^{-1} Z X per site, h v = omega^k v h with k = sum_e x_h(e) z_v(e)
    - z_h(e) x_v(e) mod N over the edges both loops touch, which a join of
    their edge arrays finds: all N^4 exponents are one integer product.
    omega^k comes from a table of the N scalars ``np.exp(2j * np.pi * k /
    N)`` and each mismatch from ``np.hypot``, as a complex ``abs`` would
    give: numpy's array division and array ``abs`` can each change a last
    bit.  The worst mismatch is one array pass.  The loops, S and the N^4 pair
    arrays are charged to a byte budget before they are built; no model is.
    """
    check_tol(tol)
    budget = Budget()
    budget.charge("lattice loops", 4 * nmod * nmod, 8 * l)  # X and Z exponents per cycle
    # S's exponents, their two products, its flat index and its entries
    budget.charge("S matrix", nmod**4, 4 * 8 + 16)
    # exponents, both phases, their difference and its modulus
    budget.charge("commutation phases", nmod**4, 2 * 8 + 4 * 16 + 8)
    s = abelian_smatrix([nmod])
    hx_edges, hz_edges, hx, hz = _loops(nmod, l, horizontal=True)
    vx_edges, vz_edges, vx, vz = _loops(nmod, l, horizontal=False)
    xz = _join(hx_edges, vz_edges)  # edges where h has X and v has Z
    zx = _join(hz_edges, vx_edges)
    h = np.concatenate([hx[:, xz[0]], hz[:, zx[0]]], axis=1)
    v = np.concatenate([vz[:, xz[1]], -vx[:, zx[1]]], axis=1)
    k = (h @ v.T) % nmod  # (horizontal loop, vertical loop)
    omega = np.array([np.exp(2j * np.pi * e / nmod) for e in range(nmod)])
    # vertical loop (b, b') meets the model's label (b, -b')
    b, bp = np.divmod(np.arange(nmod * nmod), nmod)
    gap = omega[k] - nmod * s[:, b * nmod + (-bp) % nmod]
    worst = np.hypot(gap.real, gap.imag).max()  # the scalar abs; np.abs can differ
    return {
        "modulus": nmod,
        "lattice_size": l,
        "pairs_checked": k.size,
        "max_mismatch": float(worst),
        "passed": bool(worst < tol),
    }
