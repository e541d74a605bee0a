"""Mapping class group matrices on torus and punctured-sphere bases.

Torus: V(s) = S and V(t) = diag(theta_a) on the flux basis.

Sphere S^2(z^M): the braid sigma_k exchanges punctures k and k+1.  On the
standard basis (x_1..x_N), N = M-3:

* sigma_1 is diagonal with phases R^{zz}_{x_1} (the channel of the first
  two punctures);
* sigma_{M-1} is diagonal with phases R^{zz}_{dual(x_N)} (the channel of the
  last two punctures);
* interior sigma_k (2 <= k <= M-2) mixes slot x_{k-1} inside its 4-punctured
  sphere with context (a, b) = (x_{k-2}, x_k), via B(a,b) = F~^{-1} R~ F~
  where F~_{x',x} = F^{zax}_{bzx'} and R~ = diag(R^{zz}_c) over the channels
  c of the two exchanged punctures.  The conventions x_0 = z and
  x_{N+1} = dual(z) close the chain; docs/conventions.md derives the index
  placement.

Words multiply left to right; an inverse generator contributes the conjugate
transpose.  The representation is projective: two words for the same
mapping class give matrices that agree up to a global phase.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .models import AnyonModel
from .surfaces import BasisIndex, SurfaceSpec, enumerate_labelings


@dataclass
class RepMatrix:
    """The matrix of a mapping class word on its surface's basis."""

    matrix: np.ndarray


def torus_generators(model: AnyonModel) -> tuple[RepMatrix, RepMatrix]:
    """S and T on the torus basis, the label set."""
    return RepMatrix(model.smatrix.copy()), RepMatrix(np.diag(model.twists))


def braid_block(model: AnyonModel, z: int, a: int, b: int):
    """B(a,b) on the slot values between neighbors a and b.

    Returns (slot_values, B) with B[x_new, x_old] = (F~^{-1} R~ F~)_{x_new, x_old}.
    """
    rows, cols, block = model.fmove_block(z, a, b, z)
    # block[slot, channel]; the footnote matrix F~[channel, slot] is its
    # transpose, and F~ is unitary because the full F-block is.
    ftilde = block.T
    rtilde = np.diag([model.rsymbol(z, z, c) for c in cols])
    bmat = ftilde.conj().T @ rtilde @ ftilde
    return rows, bmat


def braid_slot(M: int, k: int) -> int:
    """Array position of the slot sigma_k acts on, for M >= 4 punctures."""
    return max(0, min(k - 2, M - 4))


def local_braid_block(model: AnyonModel, z: int, M: int, k: int, a: int, b: int):
    """sigma_k on the values of its slot, between neighbor labels a and b.

    Returns (slot_values, matrix): B(a, b) for an interior generator, the
    diagonal R-phases R^{zz}_{x_1} for sigma_1 and R^{zz}_{dual(x_N)} for
    sigma_{M-1} (the channel of the exchanged pair; the charge of punctures
    1..M-2 is x_N, so the last two fuse to its dual).  The braid relations
    pin this down; see docs/conventions.md.  Neighbors past either end of
    the slot chain are z and dual(z).  Each block is built once per model,
    keyed by z, a, b and which end of the chain k acts on, if any, and kept
    read-only in ``model.braid_blocks``.
    """
    end = 1 if k == 1 else -1 if k == M - 1 else 0
    block = model.braid_blocks.get((z, a, b, end))
    if block is None:
        rows, bmat = braid_block(model, z, a, b)
        if end == 1:
            bmat = np.diag([model.rsymbol(z, z, x) for x in rows])
        elif end == -1:
            bmat = np.diag([model.rsymbol(z, z, model.dual[x]) for x in rows])
        bmat.setflags(write=False)
        block = model.braid_blocks[(z, a, b, end)] = (rows, bmat)
    return block


def _generator_matrix(model: AnyonModel, z: int, M: int, k: int, basis: BasisIndex):
    """sigma_k on ``basis``, the standard basis of S^2(z^M), for 1 <= k < M."""
    if M < 3:
        raise ValueError("braid generators need at least 3 punctures")
    if basis.dim == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    if M == 3:
        # Single basis state; the pair channel of either exchange is forced
        # to dual(z) because the three punctures carry total vacuum charge.
        return np.array([[model.rsymbol(z, z, model.dual[z])]], dtype=np.complex128)
    return braid_matrix(model, z, M, k, basis.labelings)


def braid_matrix(model: AnyonModel, z: int, M: int, k: int, labelings) -> np.ndarray:
    """sigma_k on the span of ``labelings`` (the basis, or any part of it closed under sigma_k).

    sigma_k is the identity off one slot: labelings that agree elsewhere form
    a group, and the local block of their context acts inside it.
    """
    pos = braid_slot(M, k)
    mat = np.zeros((len(labelings), len(labelings)), dtype=np.complex128)
    groups: dict[tuple, list[int]] = {}
    for i, lab in enumerate(labelings):
        groups.setdefault(lab[:pos] + lab[pos + 1 :], []).append(i)
    for members in groups.values():
        lab = labelings[members[0]]
        a = lab[pos - 1] if pos >= 1 else z
        b = lab[pos + 1] if pos + 1 < len(lab) else model.dual[z]
        slot_values, bmat = local_braid_block(model, z, M, k, a, b)
        present = {labelings[i][pos]: i for i in members}
        if sorted(present) != sorted(slot_values):
            raise AssertionError(
                "basis slot values disagree with F-block admissibility "
                f"(context {(a, b)}: basis {sorted(present)}, block {sorted(slot_values)})"
            )
        val_pos = {v: p for p, v in enumerate(slot_values)}
        for i in members:
            x_old = labelings[i][pos]
            for x_new, j in present.items():
                mat[j, i] = bmat[val_pos[x_new], val_pos[x_old]]
    return mat


_TORUS_TOKEN = re.compile(r"\s*([st])(')?\s*,?")
_SPHERE_TOKEN = re.compile(r"\s*s(\d+)(')?\s*,?")


def parse_word(word: str, surface: SurfaceSpec) -> list[tuple[str, int]]:
    """Split a word string into (generator, +1/-1) pairs.

    Torus words are strings over {s, t} with an optional trailing apostrophe
    per letter for the inverse ("st", "s't").  Sphere words are sequences of
    s<k> tokens, comma or space separated ("s1,s2'", "s1 s2").
    """
    word = word.strip()
    out: list[tuple[str, int]] = []
    pattern = _TORUS_TOKEN if surface.kind == "torus" else _SPHERE_TOKEN
    pos = 0
    while pos < len(word):
        m = pattern.match(word, pos)
        if not m:
            raise ValueError(f"cannot parse word {word!r} at position {pos}")
        if surface.kind == "torus":
            out.append((m.group(1), -1 if m.group(2) else 1))
        else:
            out.append((f"s{m.group(1)}", -1 if m.group(2) else 1))
        pos = m.end()
    return out


def _check_generator(m: int, k: int) -> None:
    if not 1 <= k <= m - 1:
        raise ValueError(f"generator index {k} out of range for M={m}")


def braid_letters(
    surface: SurfaceSpec, word: str | list[tuple[str, int]]
) -> list[tuple[int, int]]:
    """(k, +1/-1) per letter of a sphere braid word, checked against the surface.

    Every puncture must carry the same label and every generator index must
    satisfy 1 <= k < M; no matrix is built.
    """
    tokens = parse_word(word, surface) if isinstance(word, str) else list(word)
    if len(set(surface.boundary_labels)) > 1:
        raise ValueError("braid words need equal boundary labels")
    letters = [(int(sym[1:]), exp) for sym, exp in tokens]
    for k, _ in letters:
        _check_generator(surface.punctures, k)
    return letters


def evaluate_word(
    model: AnyonModel,
    surface: SurfaceSpec,
    word: str | list[tuple[str, int]],
) -> RepMatrix:
    """Ordered product of generator matrices for ``word`` on ``surface``."""
    return evaluate_on_basis(model, enumerate_labelings(model, surface), word)


def evaluate_on_basis(
    model: AnyonModel,
    basis: BasisIndex,
    word: str | list[tuple[str, int]],
) -> RepMatrix:
    """:func:`evaluate_word` on ``basis``, the enumerated labelings of its
    surface; braid generators are built on it."""
    surface = basis.surface
    tokens = parse_word(word, surface) if isinstance(word, str) else list(word)
    if surface.kind == "torus":
        s, t = torus_generators(model)
        gens = {"s": s.matrix, "t": t.matrix}
    else:
        braid_letters(surface, tokens)
        m = surface.punctures
        z = surface.boundary_labels[0]
        gens = {}
        for sym, _ in tokens:
            if sym not in gens:
                k = int(sym[1:])
                gens[sym] = _generator_matrix(model, z, m, k, basis)
    mat = None  # the empty word is the identity
    for sym, exp in tokens:
        if sym not in gens:
            raise ValueError(f"generator {sym!r} not valid for {surface.kind}")
        g = gens[sym] if exp == 1 else gens[sym].conj().T
        mat = g.copy() if mat is None else mat @ g
    if mat is None:
        mat = np.eye(basis.dim, dtype=np.complex128)
    return RepMatrix(mat)
