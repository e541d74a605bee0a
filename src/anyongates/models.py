"""Anyon model data: labels, fusion, S-matrix, F- and R-symbols, twists.

A model is the finite data of a 2D anyon theory with multiplicity-free
fusion: label set with the vacuum first, an involutive dual map, fusion
coefficients N^c_{ab} in {0,1}, a unitary S-matrix, six-index F-symbols,
R-symbols and twists.

F-symbol convention.  The stored symbol F^{ijm}_{kln} (key ``(i,j,m,k,l,n)``
of :class:`FSymbols`) is the coefficient in the basis change on a
4-punctured sphere with boundary (i,j,k,l): |m> on one cut equals
sum_n F^{ijm}_{kln} |n> on the crossed cut.  In the four-upper-index
convention used by most fusion category references this is
(F^{jil}_k)_{mn}.  ``fmove_block`` returns the whole block as a matrix
together with its row and column label sets; see docs/conventions.md for
the derivation fixing these index placements.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import json
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .budget import Budget
from .tolerances import DEFAULT_TOL, check_tol


class ModelError(ValueError):
    """Schema violation in model input (missing field, bad index, multiplicity)."""


class FSymbols(Mapping):
    """A model's F-symbols, read-only: key (i,j,m,k,l,n) -> complex.

    Held as two columns: ``codes``, each key's row-major index over
    ``(n,) * 6`` for n labels, sorted, and ``entries``, their complex128
    values.  Built from key codes and values in any order; a key given
    twice keeps its last value, as a dict filled in that order would.  Keys
    are read back as tuples of ints in sorted order.
    """

    def __init__(self, n: int, codes: np.ndarray, values):
        values = np.broadcast_to(np.asarray(values, dtype=np.complex128), len(codes))
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        last = np.ones(codes.size, dtype=bool)
        last[:-1] = codes[1:] != codes[:-1]
        self.n = n
        self.codes = codes[last]
        self.entries = values[order][last]
        self.codes.flags.writeable = self.entries.flags.writeable = False

    @classmethod
    def from_rows(cls, n: int, rows, values) -> FSymbols:
        """The columns of key rows (i, j, m, k, l, n), each index below n."""
        rows = np.asarray(rows, dtype=np.intp).reshape(-1, 6)
        return cls(n, np.ravel_multi_index(tuple(rows.T), (n,) * 6), values)

    @classmethod
    def from_mapping(cls, symbols, n: int) -> FSymbols:
        """The columns of a mapping from 6-tuples of label indices below n."""
        keys = list(symbols)
        try:
            rows = np.array(keys, dtype=np.intp).reshape(len(keys), 6)
        except (TypeError, ValueError) as exc:
            raise ModelError("fsymbol keys must be six label indices") from exc
        bad = ((rows < 0) | (rows >= n)).any(axis=1)
        if bad.any():
            raise ModelError(f"fsymbol key {keys[bad.argmax()]} out of range")
        return cls.from_rows(n, rows, list(symbols.values()))

    def _position(self, key) -> int:
        """Where a key's value sits in ``entries``, or -1 if it is absent."""
        try:
            if len(key) != 6:
                return -1
            code = 0
            for x in map(operator.index, key):
                if not 0 <= x < self.n:
                    return -1
                code = code * self.n + x
        except TypeError:
            return -1
        pos = int(np.searchsorted(self.codes, code))
        return pos if pos < self.codes.size and self.codes[pos] == code else -1

    def __getitem__(self, key) -> complex:
        pos = self._position(key)
        if pos < 0:
            raise KeyError(key)
        return complex(self.entries[pos])

    def __len__(self) -> int:
        return self.codes.size

    def __iter__(self):
        digits = np.unravel_index(self.codes, (self.n,) * 6)
        return map(tuple, np.column_stack(digits).tolist())


@dataclass(eq=False)
class AnyonModel:
    """One anyon model's data; see the module docstring for the conventions.

    ``fsymbols`` is an :class:`FSymbols`, a read-only mapping over two
    columns; any other mapping a caller passes, such as a dict, is
    converted to one on construction, its keys range-checked as
    :func:`parse_model` checks them.  A model is treated as immutable once
    an F-block has been read: the blocks are built once, on the first read,
    into :attr:`fblocks`, and are not rebuilt when the fusion tensor
    changes afterwards; the local braid blocks are kept likewise in
    :attr:`braid_blocks`.  A tampered model is a new instance
    (``dataclasses.replace``).
    """

    name: str
    labels: tuple[str, ...]
    dual: tuple[int, ...]
    fusion: np.ndarray  # (n, n, n) uint8, fusion[a, b, c] = N^c_{ab}
    smatrix: np.ndarray  # (n, n) complex
    fsymbols: FSymbols
    rsymbols: dict[tuple[int, int, int], complex]
    twists: np.ndarray  # (n,) complex

    def __post_init__(self):
        if not (isinstance(self.fsymbols, FSymbols) and self.fsymbols.n == self.n_labels):
            self.fsymbols = FSymbols.from_mapping(self.fsymbols, self.n_labels)

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    def label_index(self, label: int | str) -> int:
        if isinstance(label, str):
            try:
                return self.labels.index(label)
            except ValueError:
                raise ModelError(f"unknown label {label!r} for model {self.name}") from None
        idx = int(label)
        if not 0 <= idx < self.n_labels:
            raise ModelError(f"label index {idx} out of range for model {self.name}")
        return idx

    def rsymbol(self, a: int, b: int, c: int) -> complex:
        try:
            return self.rsymbols[(a, b, c)]
        except KeyError:
            raise ModelError(
                f"missing R-symbol ({self.labels[a]},{self.labels[b]};{self.labels[c]})"
            ) from None

    @cached_property
    def fblocks(self) -> FBlockStore:
        """Every admissible F-block, built once on the first read."""
        return FBlockStore(self)

    @cached_property
    def braid_blocks(self) -> dict:
        """The local braid blocks :func:`mcg.local_braid_block` has built for
        this model, by context; filled on first use, like :attr:`fblocks`."""
        return {}

    def fmove_block(self, i: int, j: int, k: int, l: int):
        """F-move block for boundary (i,j,k,l).

        Returns ``(rows, cols, block)`` where ``rows`` are the labels m with
        N^m_{ij} N^k_{ml} = 1, ``cols`` the labels n with N^n_{il} N^k_{jn} = 1,
        and ``block[r, c] = F^{ij rows[r]}_{kl cols[c]}``.  Associativity
        guarantees len(rows) == len(cols).  A boundary that is not admissible
        gives empty label tuples and a 0x0 block.  The block is a read-only
        view into one of the stacks of :attr:`fblocks`.
        """
        return self.fblocks.block(i, j, k, l)


def _missing_fsymbol(labels, key) -> str:
    return "missing F-symbol F^{%s,%s,%s}_{%s,%s,%s}" % tuple(labels[x] for x in key)


def _join(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (a, b) with left[a] == right[b], ordered by a, then by b."""
    order = np.argsort(right, kind="stable")
    ordered = right[order]
    lo = np.searchsorted(ordered, left, "left")
    counts = np.searchsorted(ordered, left, "right") - lo
    a = np.repeat(np.arange(left.size), counts)
    shift = np.repeat(np.cumsum(counts) - counts - lo, counts)
    return a, order[np.arange(a.size) - shift]


class FusionChannels:
    """The nonzero entries of one fusion tensor: its channels (a, b) -> c.

    One row per nonzero N^c_{ab}, in the order of the row-major codes
    (a n + b) n + c for n labels: ``a``, ``b`` and ``c`` hold the digits and
    ``mult`` the coefficient, as int64.  The products of (a, b) are
    ``c[starts[a n + b]:starts[a n + b + 1]]``.  Every array is read-only.
    Get a table from :func:`fusion_channels`, which builds one per tensor
    content; what the table derives (product tuples, the abelian product
    table, the F-block layout) is built on the first read and kept.
    """

    def __init__(self, fusion: np.ndarray):
        n = fusion.shape[0]
        self.n = n
        codes = np.flatnonzero(fusion)
        self.mult = fusion.ravel()[codes].astype(np.int64)
        pair, self.c = np.divmod(codes, n)
        self.a, self.b = np.divmod(pair, n)
        self.starts = np.searchsorted(pair, np.arange(n * n + 1))
        for x in (self.mult, self.a, self.b, self.c, self.starts):
            x.flags.writeable = False
        self._layout = None

    @cached_property
    def _products(self) -> list[tuple[int, ...]]:
        c, s = self.c.tolist(), self.starts.tolist()
        return [tuple(c[lo:hi]) for lo, hi in zip(s, s[1:])]

    def product(self, a: int, b: int) -> tuple[int, ...]:
        """The labels c with N^c_{ab} != 0, in index order."""
        labels = range(self.n)
        return self._products[labels[a] * self.n + labels[b]]

    @cached_property
    def product_table(self) -> np.ndarray:
        """mul[a, b] = the one product of a and b; a ValueError unless every
        pair has exactly one."""
        if (np.diff(self.starts) != 1).any():
            raise ValueError("abelian model has a multivalued product")
        return self.c.reshape(self.n, self.n)

    def fblock_layout(self, budget: Budget):
        """Every admissible boundary, its channels and F-symbol keys.

        A row channel m of boundary (i,j,k,l) pairs the fusion triples
        (i,j,m) and (m,l,k), a column channel n pairs (i,l,n) and (j,n,k);
        both come from joining the table's triples, the keys from joining
        the rows and columns of each boundary.  Returns four read-only
        integer arrays: ``bounds`` (B, 4), the boundaries (i,j,k,l) with a
        row or a column channel, in (i, j, l, k) order; ``rows`` (R, 2) and
        ``cols`` (C, 2), the pairs (boundary position, channel), sorted;
        ``keys`` (K,), the codes of the keys (i, j, m, k, l, n), row-major
        over n^6 for n labels, in boundary order, each block in row-major
        order.  The channels, counted from the coefficient sums, are charged
        to ``budget`` before they are joined, at eight ints each, and the
        keys before they are built, at 14 ints and 300 bytes more each.  The
        300 bytes over-count: they stand for Python objects per key, and
        every caller keeps the keys in arrays.  The layout is built once;
        a later call charges the same counts and returns it again.
        """
        n = self.n
        made, first, second = (
            np.bincount(x, weights=self.mult, minlength=n) for x in (self.c, self.a, self.b)
        )
        budget.charge("F-block channels", int(made @ (first + second)), 8 * 8)
        if self._layout is not None:
            budget.charge("F-symbols", self._layout[3].size, 14 * 8 + 300)
            return self._layout
        a, b, c = self.a, self.b, self.c
        # each channel as one code (i, j, l, k, channel), row-major over n^5
        x, y = _join(c, a)
        row_key = (((a[x] * n + b[x]) * n + b[y]) * n + c[y]) * n + c[x]
        x, y = _join(c, b)
        col_key = (((a[x] * n + a[y]) * n + b[x]) * n + c[y]) * n + c[x]
        row_key.sort()
        col_key.sort()

        # The distinct boundary codes in order; np.union1d would import numpy.ma.
        codes = np.concatenate((row_key, col_key)) // n
        codes.sort(kind="stable")  # merges the two sorted runs
        codes = codes[np.diff(codes, prepend=-1) > 0]
        bounds = np.column_stack(np.unravel_index(codes, (n,) * 4))[:, [0, 1, 3, 2]]
        rows = np.column_stack((np.searchsorted(codes, row_key // n), row_key % n))
        cols = np.column_stack((np.searchsorted(codes, col_key // n), col_key % n))
        n_rows, n_cols = (np.bincount(x[:, 0], minlength=len(bounds)) for x in (rows, cols))
        budget.charge("F-symbols", int(n_rows @ n_cols), 14 * 8 + 300)
        # A row channel's keys are its (i, j, m, k, l) code times n plus each
        # column channel of its boundary; rows and columns are both in boundary
        # order, so each column is found by offsets, not by a search.
        m = row_key % n
        l, k = np.divmod(row_key // n % (n * n), n)
        head = (((row_key // n**3 * n + m) * n + k) * n + l) * n
        per_row = n_cols[rows[:, 0]]
        col_start = (np.cumsum(n_cols) - n_cols)[rows[:, 0]]
        col = np.repeat(col_start - np.cumsum(per_row) + per_row, per_row)
        col += np.arange(col.size)
        keys = np.repeat(head, per_row)
        keys += cols[col, 1]
        for x in (bounds, rows, cols, keys):
            x.flags.writeable = False
        self._layout = bounds, rows, cols, keys
        return self._layout


def fusion_channels(fusion: np.ndarray) -> FusionChannels:
    """The channel table of a fusion tensor, memoised on its content.

    The memo is keyed on the tensor's bytes, not on a model, so a model
    whose tensor changes, or a model built from parts of another, gets the
    table of its own tensor.  It holds the last few tables only, layouts
    included.
    """
    fusion = np.ascontiguousarray(fusion)
    return _fusion_channels(fusion.shape, fusion.dtype.str, fusion.tobytes())


@functools.lru_cache(maxsize=4)
def _fusion_channels(shape: tuple, dtype: str, content: bytes) -> FusionChannels:
    return FusionChannels(np.frombuffer(content, dtype=dtype).reshape(shape))


_NO_BLOCK = ((), (), np.zeros((0, 0), dtype=np.complex128))
_NO_BLOCK[2].flags.writeable = False


class FBlockStore:
    """Every admissible F-block of one model, built once, held in arrays.

    ``boundaries`` (B, 4) lists the admissible boundaries (i,j,k,l) in
    (i, j, l, k) order, and ``stacks`` pairs, per block shape, the positions
    of its boundaries in that list with the read-only stack of their
    blocks.  The blocks read the model's F-symbols through one join of the
    layout's key codes with :class:`FSymbols`' sorted codes.  ``missing``
    maps a boundary (a tuple) whose block reads an absent F-symbol to the
    error text for the first one in row-major order, in boundary order; the
    symbol's entry in the stack is NaN.  :meth:`block` serves one boundary.
    """

    def __init__(self, model: AnyonModel):
        budget = Budget()
        bounds, rows, cols, keys = fusion_channels(model.fusion).fblock_layout(budget)
        budget.charge("F-blocks", len(bounds), 400)  # an over-count: arrays only
        n = model.n_labels
        symbols = model.fsymbols
        at = np.searchsorted(symbols.codes, keys)  # len(symbols) marks an absent key
        at[np.append(symbols.codes, -1)[at] != keys] = len(symbols)
        values = np.append(symbols.entries, np.nan)[at]
        self.missing: dict[tuple[int, int, int, int], str] = {}
        absent = keys[at == len(symbols)]
        for key in np.column_stack(np.unravel_index(absent, (n,) * 6)).tolist():
            boundary = (key[0], key[1], key[3], key[4])
            self.missing.setdefault(boundary, _missing_fsymbol(model.labels, key))

        n_bound = len(bounds)
        n_rows = np.bincount(rows[:, 0], minlength=n_bound)
        n_cols = np.bincount(cols[:, 0], minlength=n_bound)
        entry_off = np.cumsum(n_rows * n_cols) - n_rows * n_cols
        self.boundaries = bounds
        self._n = n
        self._codes = np.ravel_multi_index(tuple(bounds[:, [0, 1, 3, 2]].T), (n,) * 4)
        self._rows, self._cols = rows[:, 1], cols[:, 1]
        # one stack per block shape, in (rows, cols) order
        shape = n_rows * (n_cols.max(initial=0) + 1) + n_cols
        order = np.argsort(shape, kind="stable")
        starts = np.flatnonzero(np.diff(shape[order], prepend=-1)).tolist()
        stack_of, index = np.empty_like(n_rows), np.empty_like(n_rows)
        self.stacks: list[tuple[np.ndarray, np.ndarray]] = []
        for s, (lo, hi) in enumerate(zip(starts, starts[1:] + [n_bound])):
            pos = order[lo:hi]
            r, c = int(n_rows[pos[0]]), int(n_cols[pos[0]])
            stack = values[(entry_off[pos, None] + np.arange(r * c)).ravel()]
            stack = stack.reshape(pos.size, r, c)
            stack.flags.writeable = False
            self.stacks.append((pos, stack))
            stack_of[pos] = s
            index[pos] = np.arange(pos.size)
        # per boundary: its row and column channel spans, its stack, its place there
        row_end, col_end = np.cumsum(n_rows), np.cumsum(n_cols)
        self._where = np.column_stack(
            (row_end - n_rows, row_end, col_end - n_cols, col_end, stack_of, index)
        )

    def block(self, i: int, j: int, k: int, l: int):
        """What :meth:`AnyonModel.fmove_block` returns for (i,j,k,l)."""
        key = (i, j, k, l)
        if key in self.missing:
            raise ModelError(self.missing[key])
        n = self._n
        i, j, k, l = map(operator.index, key)
        if not (0 <= i < n and 0 <= j < n and 0 <= k < n and 0 <= l < n):
            return _NO_BLOCK
        code = ((i * n + j) * n + l) * n + k
        p = self._codes.searchsorted(code)
        if p == self._codes.size or self._codes[p] != code:
            return _NO_BLOCK
        row, row_end, col, col_end, stack, index = self._where[p].tolist()
        rows = tuple(self._rows[row:row_end].tolist())
        cols = tuple(self._cols[col:col_end].tolist())
        return rows, cols, self.stacks[stack][1][index]


def quantum_dimensions(model: AnyonModel) -> np.ndarray:
    """Quantum dimensions d_a = S_{0a} / S_{00} as a real array."""
    s0 = model.smatrix[0]
    return np.real(s0 / s0[0])


# ---------------------------------------------------------------------------
# Builtins


def _fill_fsymbols(fusion: np.ndarray, entry=None) -> FSymbols:
    """The F-symbols of every admissible boundary, from ``entry`` or all 1.

    ``entry(i, j, m, k, l, n)`` gets the six key columns as int arrays and
    returns the values, an array or a scalar for all; admissibility is read
    off the fusion tensor; the keys are charged to a budget of their own.
    """
    n = fusion.shape[0]
    keys = fusion_channels(fusion).fblock_layout(Budget())[3]
    values = 1.0 if entry is None else entry(*np.unravel_index(keys, (n,) * 6))
    return FSymbols(n, keys, values)


def _fill_rsymbols(fusion: np.ndarray, entry) -> dict:
    ch = fusion_channels(fusion)
    triples = zip(ch.a.tolist(), ch.b.tolist(), ch.c.tolist())
    return {(a, b, c): complex(entry(a, b, c)) for a, b, c in triples}


def fibonacci() -> AnyonModel:
    """Fibonacci model: labels (1, tau), tau x tau = 1 + tau."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    fusion = np.zeros((2, 2, 2), dtype=np.uint8)
    fusion[0, 0, 0] = 1
    fusion[0, 1, 1] = fusion[1, 0, 1] = 1
    fusion[1, 1, 0] = fusion[1, 1, 1] = 1
    smatrix = np.array([[1.0, phi], [phi, -1.0]], dtype=np.complex128) / math.sqrt(
        phi + 2.0
    )
    twists = np.array([1.0, cmath.exp(4j * math.pi / 5.0)], dtype=np.complex128)

    fdense = np.array(
        [[1.0 / phi, 1.0 / math.sqrt(phi)], [1.0 / math.sqrt(phi), -1.0 / phi]]
    )

    def fentry(i, j, m, k, l, n):
        values = np.ones(len(i))
        dense = (i == 1) & (j == 1) & (k == 1) & (l == 1)
        values[dense] = fdense[m[dense], n[dense]]
        return values

    rvals = {
        (1, 1, 0): cmath.exp(-4j * math.pi / 5.0),
        (1, 1, 1): cmath.exp(3j * math.pi / 5.0),
    }

    return AnyonModel(
        name="fibonacci",
        labels=("1", "tau"),
        dual=(0, 1),
        fusion=fusion,
        smatrix=smatrix,
        fsymbols=_fill_fsymbols(fusion, fentry),
        rsymbols=_fill_rsymbols(fusion, lambda a, b, c: rvals.get((a, b, c), 1.0)),
        twists=twists,
    )


def ising() -> AnyonModel:
    """Ising model: labels (1, psi, sigma), sigma x sigma = 1 + psi."""
    fusion = np.zeros((3, 3, 3), dtype=np.uint8)
    for a in range(3):
        fusion[0, a, a] = fusion[a, 0, a] = 1
    fusion[1, 1, 0] = 1
    fusion[1, 2, 2] = fusion[2, 1, 2] = 1
    fusion[2, 2, 0] = fusion[2, 2, 1] = 1
    r2 = math.sqrt(2.0)
    smatrix = 0.5 * np.array(
        [[1.0, 1.0, r2], [1.0, 1.0, -r2], [r2, -r2, 0.0]], dtype=np.complex128
    )
    twists = np.array([1.0, -1.0, cmath.exp(1j * math.pi / 8.0)], dtype=np.complex128)

    # In the four-upper-index convention the only non-scalar block is
    # (F^{sss}_s) = H/sqrt2 over channels (1, psi); the scalar exceptions are
    # (F^{psp}_s) = (F^{sps}_p) = -1.  Translate through (i,j,k,l) -> (j,i,l,k).
    fdense = np.array([[1.0, 1.0], [1.0, -1.0]]) / r2  # over channels (1, psi)

    def fentry(i, j, m, k, l, n):
        std = np.column_stack((j, i, l, k))
        flip = (std == (1, 2, 1, 2)).all(axis=1) | (std == (2, 1, 2, 1)).all(axis=1)
        values = np.where(flip, -1.0, 1.0)
        dense = (std == 2).all(axis=1)
        values[dense] = fdense[m[dense], n[dense]]
        return values

    rvals = {
        (2, 2, 0): cmath.exp(-1j * math.pi / 8.0),
        (2, 2, 1): cmath.exp(3j * math.pi / 8.0),
        (1, 1, 0): -1.0,
        (1, 2, 2): -1j,
        (2, 1, 2): -1j,
    }

    return AnyonModel(
        name="ising",
        labels=("1", "psi", "sigma"),
        dual=(0, 1, 2),
        fusion=fusion,
        smatrix=smatrix,
        fsymbols=_fill_fsymbols(fusion, fentry),
        rsymbols=_fill_rsymbols(fusion, lambda a, b, c: rvals.get((a, b, c), 1.0)),
        twists=twists,
    )


def zn_toric(n: int) -> AnyonModel:
    """Z_N toric code model (quantum double of Z_N).

    Labels are pairs (a, a') of flux and charge, indexed a*N + a'.  For
    N = 2 the labels carry their traditional names 1, e, m, eps with
    e = (0,1) (pure charge) and m = (1,0) (pure flux).
    """
    if n < 2:
        raise ModelError("zn_toric requires N >= 2")
    return _abelian_double([n], special_names=(n == 2))


def dg_abelian(orders) -> AnyonModel:
    """Quantum double of a product of cyclic groups Z_{N1} x ... x Z_{Nr}."""
    orders = [int(x) for x in orders]
    if not orders or any(x < 2 for x in orders):
        raise ModelError("dg_abelian requires a nonempty list of orders >= 2")
    return _abelian_double(orders, special_names=False)


def _abelian_double(orders: list[int], special_names: bool) -> AnyonModel:
    # Each factor contributes a (flux, charge) pair in Z_N x Z_N; the label
    # group is the direct product over factors.  Label i has the exponent
    # coordinates x[i] = (flux_1, charge_1, flux_2, charge_2, ...), in
    # row-major order over those radices.
    radices = tuple(n for n in orders for _ in range(2))
    n_lab = math.prod(radices)
    # Charged to the build's own budget before any array exists (the F-symbol
    # layout charges its own): per label pair, 32 bytes per coordinate for the
    # summed coordinates and the S and R exponents, and 400 for the index,
    # grids, phases, channel table and R-symbol dict; then the tensor and the
    # copy of its bytes that its channel table is memoised on.
    budget = Budget()
    budget.charge("label pairs", n_lab * n_lab, 32 * len(radices) + 400)
    budget.charge("fusion tensor", n_lab**3, 2)
    x = np.indices(radices).reshape(len(radices), -1).T
    flux, charge = x[:, 0::2], x[:, 1::2]

    if special_names:
        names = [("1", "e", "m", "eps")]
    else:
        names = [["(%d,%d)" % p for p in itertools.product(range(n), repeat=2)] for n in orders]
    labels = tuple(map("x".join, itertools.product(*names)))

    # a x b is the label at the sum of their coordinates, a's dual at the negation
    summed = (x[:, None] + x[None, :]) % radices
    total = np.ravel_multi_index(tuple(np.moveaxis(summed, -1, 0)), radices)
    fusion = np.zeros((n_lab, n_lab, n_lab), dtype=np.uint8)
    a, b = np.indices((n_lab, n_lab))
    fusion[a, b, total] = 1
    dual = tuple(np.ravel_multi_index(tuple((-x % radices).T), radices).tolist())
    fsymbols = _fill_fsymbols(fusion)

    smatrix = abelian_smatrix(orders)
    twists = _exponent_phases(orders, flux * charge, lambda expo: cmath.exp(2j * math.pi * expo))
    rvalues = _exponent_phases(
        orders, charge[:, None] * flux[None, :], lambda expo: cmath.exp(2j * math.pi * expo)
    )

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
        rsymbols=dict(
            zip(
                zip(a.ravel().tolist(), b.ravel().tolist(), total.ravel().tolist()),
                rvalues.ravel().tolist(),
            )
        ),
        twists=twists,
    )


def abelian_smatrix(orders: list[int]) -> np.ndarray:
    """S of the quantum double of Z_{N1} x ... x Z_{Nr}, built from the
    labels' exponent coordinates alone, as ``_abelian_double`` orders them.

    The sign pairing S and the twists matters: with theta_{(a,b)} =
    exp(2 pi i ab/N), only the conjugated flux-charge pairing below makes
    (S T)^3 proportional to S^2, i.e. makes (s, t) a projective torus
    representation.  The opposite sign satisfies every single-matrix
    invariant (unitary, symmetric, Verlinde) but breaks that relation for
    N >= 3.
    """
    radices = tuple(n for n in orders for _ in range(2))
    x = np.indices(radices).reshape(len(radices), -1).T
    flux, charge = x[:, 0::2], x[:, 1::2]
    root = math.prod(radices) ** 0.5
    return _exponent_phases(
        orders,
        flux[:, None] * charge[None, :] + charge[:, None] * flux[None, :],
        lambda expo: cmath.exp(-2j * math.pi * expo) / root,
    )


def _exponent_phases(orders: list[int], numerators: np.ndarray, phase) -> np.ndarray:
    """``phase(sum(t_f / N_f))`` for each row t of per-factor numerators.

    ``numerators`` holds non-negative ints, one per factor on its last
    axis.  ``phase`` runs once per tuple in the box the numerators span,
    on the same Python float sum the per-label formula takes, and the
    results are read off that table, so every value is the one the formula
    gives for its row.
    """
    spans = tuple(int(t) + 1 for t in numerators.reshape(-1, len(orders)).max(axis=0))
    table = np.array(
        [
            phase(sum(t / n for t, n in zip(tup, orders)))
            for tup in itertools.product(*map(range, spans))
        ],
        dtype=np.complex128,
    )
    return table[np.ravel_multi_index(tuple(np.moveaxis(numerators, -1, 0)), spans)]


_BUILTINS = {"fibonacci": fibonacci, "ising": ising}


def load_builtin(name: str) -> AnyonModel:
    """Load a builtin model by name.

    Accepted names: ``fibonacci``, ``ising``, ``zn_toric:N``,
    ``dg_abelian:N1,N2,...``.
    """
    base, _, arg = name.partition(":")
    base = base.strip()
    if base in _BUILTINS:
        if arg:
            raise ModelError(f"model {base} takes no parameter")
        return _BUILTINS[base]()
    if base == "zn_toric":
        if not arg:
            raise ModelError("zn_toric requires a parameter, e.g. zn_toric:2")
        try:
            order = int(arg)
        except ValueError as exc:
            raise ModelError(f"bad zn_toric parameter {arg!r}") from exc
        return zn_toric(order)
    if base == "dg_abelian":
        if not arg:
            raise ModelError("dg_abelian requires parameters, e.g. dg_abelian:2,3")
        try:
            orders = [int(x) for x in arg.split(",")]
        except ValueError as exc:
            raise ModelError(f"bad dg_abelian parameters {arg!r}") from exc
        return dg_abelian(orders)
    raise ModelError(f"unknown builtin model {name!r}")


# ---------------------------------------------------------------------------
# Serialization


def serialize_model(model: AnyonModel) -> str:
    """Serialize to the JSON interchange schema (deterministic output)."""
    n = model.n_labels
    doc = {
        "name": model.name,
        "labels": list(model.labels),
        "dual": list(model.dual),
        "fusion": np.argwhere(model.fusion).tolist(),
        "smatrix": [
            [float(model.smatrix[a, b].real), float(model.smatrix[a, b].imag)]
            for a in range(n)
            for b in range(n)
        ],
        "fsymbols": [
            {
                "a": k[0], "b": k[1], "c": k[2], "d": k[3], "e": k[4], "f": k[5],
                "re": float(v.real), "im": float(v.imag),
            }
            for k, v in zip(model.fsymbols, model.fsymbols.entries.tolist())
        ],
        "rsymbols": [
            {"a": k[0], "b": k[1], "c": k[2], "re": float(v.real), "im": float(v.imag)}
            for k, v in sorted(model.rsymbols.items())
        ],
        "twists": [[float(t.real), float(t.imag)] for t in model.twists],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1)


def parse_model(document: str | dict) -> AnyonModel:
    """Parse the JSON interchange schema into a model without validating it.

    Only schema-level problems raise (missing fields, out-of-range indices,
    repeated fusion triples); semantic checks live in :func:`validate`.
    """
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ModelError(f"invalid JSON: {exc}") from exc
    else:
        doc = document
    if not isinstance(doc, dict):
        raise ModelError("model document must be a JSON object")

    for key in ("labels", "dual", "fusion", "smatrix", "fsymbols", "rsymbols", "twists"):
        if key not in doc:
            raise ModelError(f"missing field {key!r}")

    labels = tuple(str(x) for x in doc["labels"])
    n = len(labels)
    if n == 0:
        raise ModelError("empty label list")

    dual = tuple(int(x) for x in doc["dual"])
    if len(dual) != n or any(not 0 <= d < n for d in dual):
        raise ModelError("dual must list one in-range index per label")

    fusion = np.zeros((n, n, n), dtype=np.uint8)
    for triple in doc["fusion"]:
        a, b, c = (int(x) for x in triple)
        if not (0 <= a < n and 0 <= b < n and 0 <= c < n):
            raise ModelError(f"fusion triple {triple} out of range")
        if fusion[a, b, c]:
            raise ModelError(
                f"fusion triple {triple} repeated: multiplicities above 1 are unsupported"
            )
        fusion[a, b, c] = 1

    sm_raw = doc["smatrix"]
    if len(sm_raw) == n * n:
        flat = [complex(p[0], p[1]) for p in sm_raw]
        smatrix = np.array(flat, dtype=np.complex128).reshape(n, n)
    elif len(sm_raw) == n and all(len(row) == n for row in sm_raw):
        smatrix = np.array(
            [[complex(p[0], p[1]) for p in row] for row in sm_raw],
            dtype=np.complex128,
        )
    else:
        raise ModelError("smatrix must hold n*n [re,im] pairs (flat or nested)")

    fkeys, fvalues = [], []
    for ent in doc["fsymbols"]:
        try:
            key = tuple(int(ent[x]) for x in ("a", "b", "c", "d", "e", "f"))
            val = complex(float(ent["re"]), float(ent["im"]))
        except (KeyError, TypeError) as exc:
            raise ModelError(f"malformed fsymbol entry {ent}") from exc
        if any(not 0 <= k < n for k in key):
            raise ModelError(f"fsymbol entry {ent} out of range")
        fkeys.append(key)
        fvalues.append(val)

    rsymbols = {}
    for ent in doc["rsymbols"]:
        try:
            key = tuple(int(ent[x]) for x in ("a", "b", "c"))
            val = complex(float(ent["re"]), float(ent["im"]))
        except (KeyError, TypeError) as exc:
            raise ModelError(f"malformed rsymbol entry {ent}") from exc
        if any(not 0 <= k < n for k in key):
            raise ModelError(f"rsymbol entry {ent} out of range")
        rsymbols[key] = val

    twists_raw = doc["twists"]
    if len(twists_raw) != n:
        raise ModelError("twists must list one [re,im] pair per label")
    twists = np.array([complex(p[0], p[1]) for p in twists_raw], dtype=np.complex128)

    return AnyonModel(
        name=str(doc.get("name", "custom")),
        labels=labels,
        dual=dual,
        fusion=fusion,
        smatrix=smatrix,
        fsymbols=FSymbols.from_rows(n, fkeys, fvalues),
        rsymbols=rsymbols,
        twists=twists,
    )


# ---------------------------------------------------------------------------
# Validation


@dataclass
class CheckResult:
    passed: bool
    residual: float
    detail: str = ""

    def __post_init__(self):
        # numpy scalars sneak in from the residual comparisons; keep the
        # report JSON-serializable
        self.passed = bool(self.passed)
        self.residual = float(self.residual)


@dataclass
class ModelValidationReport:
    model_name: str
    checks: dict[str, CheckResult] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def lines(self) -> list[str]:
        out = []
        for name, res in self.checks.items():
            mark = "pass" if res.passed else "FAIL"
            line = f"[{mark}] {name}: residual {res.residual:.3e}"
            if res.detail:
                line += f" ({res.detail})"
            out.append(line)
        return out


def verlinde_fusion(model: AnyonModel) -> np.ndarray:
    """Fusion coefficients from the S-matrix: N^c_{ab} = sum_x S_ax S_bx S*_cx / S_0x.

    One stacked product of (1, n) rows with S^dagger: each row is summed as
    a vector-matrix product of its own, so the values are bit for bit those
    of one product per pair (a, b).
    """
    s = model.smatrix
    n = model.n_labels
    rows = s[:, None, None, :] * s[None, :, None, :] * (1.0 / s[0])
    return (rows @ s.conj().T).reshape(n, n, n)


def validate(model: AnyonModel, tol: float = DEFAULT_TOL) -> ModelValidationReport:
    """Semantic consistency checks; failures are reported, never raised.

    A NaN, infinite or negative ``tol`` is a ValueError.  The fusion
    checks read the model's channel table (:func:`fusion_channels`): the
    associativity check joins it with itself, and its fusion paths are
    charged to a byte budget first, so past it ``validate`` raises a
    SearchBudgetError before joining.  The F-block store charges its own.
    """
    check_tol(tol)
    rep = ModelValidationReport(model_name=model.name)
    n = model.n_labels
    s = model.smatrix

    res = float(np.abs(s @ s.conj().T - np.eye(n)).max())
    rep.checks["smatrix_unitary"] = CheckResult(res < tol, res)

    res = float(np.abs(s - s.T).max())
    rep.checks["smatrix_symmetric"] = CheckResult(res < tol, res)

    res = float(np.abs(verlinde_fusion(model) - model.fusion).max())
    rep.checks["verlinde_matches_fusion"] = CheckResult(res < tol, res)

    # Fusion tensor axioms: vacuum acts trivially, commutativity, duals pair
    # to the vacuum uniquely, associativity.
    worst = 0.0
    details = []
    eye = np.eye(n)
    worst = max(worst, float(np.abs(model.fusion[0] - eye).max()))
    if worst > 0:
        details.append("vacuum")
    signed = model.fusion.astype(np.int16)  # uint8 differences would wrap
    comm = float(np.abs(signed - signed.transpose(1, 0, 2)).max())
    if comm > 0:
        details.append("commutativity")
    worst = max(worst, comm)
    dual_ok = all(model.dual[model.dual[a]] == a for a in range(n))
    if not dual_ok:
        details.append("dual involution")
    vac = model.fusion[:, :, 0].astype(float)
    want = np.zeros((n, n))
    for a in range(n):
        want[a, model.dual[a]] = 1.0
    dres = float(np.abs(vac - want).max())
    if dres > 0:
        details.append("dual pairing")
    worst = max(worst, dres)
    channels = fusion_channels(model.fusion)
    ares = _associativity_residual(channels)
    if ares > 0:
        details.append("associativity")
    worst = max(worst, ares)
    rep.checks["fusion_axioms"] = CheckResult(
        worst == 0 and dual_ok, float(worst), ",".join(details)
    )

    dims = np.real(s[0] / s[0, 0])
    res = float(max(0.0, 1.0 - dims.min()))
    rep.checks["dims_at_least_one"] = CheckResult(res < tol, res)

    res = float(np.abs(s[list(model.dual)] - s.conj()).max())
    rep.checks["dual_rows_conjugate"] = CheckResult(res < tol, res)

    # Every admissible F-block must be unitary (square by associativity).
    # The residuals come from one batched B B^dagger - I per block shape.  In
    # (i, j, l, k) order of the boundaries, a non-square block counts 1.0 and
    # the detail names the last such block or the last residual >= tol that
    # raised the running maximum (a NaN residual raises nothing).
    store = model.fblocks
    res = np.empty(len(store.boundaries))
    for pos, stack in store.stacks:
        r, c = stack.shape[1:]
        if r != c:
            res[pos] = -1.0
        else:
            gram = stack @ stack.conj().transpose(0, 2, 1)
            res[pos] = np.abs(gram - np.eye(r)).max(axis=(1, 2))
    nonsquare = res < 0
    running = np.maximum.accumulate(np.where(nonsquare, 1.0, np.where(np.isnan(res), 0.0, res)))
    before = np.concatenate(([0.0], running[:-1]))
    flagged = np.flatnonzero(nonsquare | (res > before) & (res >= tol))
    worst, bad = float(running[-1]) if len(res) else 0.0, ""
    if len(flagged):
        p = flagged[-1]
        where = tuple(store.boundaries[p].tolist())
        bad = f"non-square block at {where}" if nonsquare[p] else f"block {where}"
    if store.missing:
        worst, bad = float("inf"), next(iter(store.missing.values()))
    rep.checks["fblocks_unitary"] = CheckResult(worst < tol, worst, bad)

    worst, bad = _ribbon_residual(model, channels, dims)
    rep.checks["rsymbols_ribbon"] = CheckResult(worst < tol, worst, bad)

    return rep


def _associativity_residual(channels: FusionChannels) -> int:
    """max |sum_e N^e_{ab} N^d_{ec} - sum_f N^f_{bc} N^d_{af}| over (a,b,c,d).

    Each sum counts the fusion paths ((a,b)->e, (e,c)->d), or
    ((b,c)->f, (a,f)->d), weighted by their coefficients: the join of the
    channel table with itself on the middle label lists them.  Both sides'
    paths are coded (a,b,c,d) row-major, sorted together with weights +w
    and -w, and summed per code; a code on neither side differs by 0.  The
    paths are charged to a byte budget, at eight ints each, before they are
    joined.
    """
    n = channels.n
    a, b, c, w = channels.a, channels.b, channels.c, channels.mult
    made = np.bincount(c, minlength=n)
    paths = int(made @ (np.bincount(a, minlength=n) + np.bincount(b, minlength=n)))
    Budget().charge("fusion associativity", paths, 8 * 8)
    x, y = _join(c, a)  # (a,b)->e at x, (e,c)->d at y
    left = ((a[x] * n + b[x]) * n + b[y]) * n + c[y]
    left_w = w[x] * w[y]
    x, y = _join(c, b)  # (b,c)->f at x, (a,f)->d at y
    right = ((a[y] * n + a[x]) * n + b[x]) * n + c[y]
    codes = np.concatenate((left, right))
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    weights = np.concatenate((left_w, -(w[x] * w[y])))[order]
    if not codes.size:
        return 0
    sums = np.add.reduceat(weights, np.flatnonzero(np.diff(codes, prepend=-1)))
    return int(np.abs(sums).max())


def _ribbon_residual(
    model: AnyonModel, channels: FusionChannels, dims: np.ndarray
) -> tuple[float, str]:
    """The worst residual of |R^{ab}_c| = 1 and of the twist consistency
    theta_a = (1/d_a) sum_c d_c R^{aa}_c, and where it is.

    The R-symbols are read once per channel, in table order; the first
    channel without one makes the residual infinite and names it.  The
    place reported is the first channel, then the first label, whose
    residual is the largest, a NaN residual counting as none, as a walk
    over the channels and then the labels would pick it.  |R| is
    ``np.hypot`` of its parts, bit for bit Python's ``abs`` of a complex;
    each twist sum adds its terms in channel order, as such a walk would.
    """
    keys = list(zip(channels.a.tolist(), channels.b.tolist(), channels.c.tolist()))
    try:
        r = np.array([model.rsymbol(*key) for key in keys], dtype=np.complex128)
    except ModelError as exc:
        return float("inf"), str(exc)
    modulus = np.abs(np.hypot(r.real, r.imag) - 1.0)
    # the channels (a, a) -> c, one column per position among a's channels
    n = channels.n
    diag = np.arange(n) * (n + 1)
    lo, hi = channels.starts[diag], channels.starts[diag + 1]
    terms = dims[channels.c] * r
    acc = np.zeros(n, dtype=np.complex128)
    for k in range(int((hi - lo).max(initial=0))):
        has = lo + k < hi
        acc[has] += terms[lo[has] + k]
    twist = np.abs(acc / dims - model.twists)
    worst, bad = 0.0, ""
    for res, place in ((modulus, lambda i: f"|R| at {keys[i]}"), (twist, "twist at {}".format)):
        above = np.flatnonzero(res > worst)
        if above.size:
            i = int(above[np.argmax(res[above])])
            worst, bad = float(res[i]), place(i)
    return worst, bad
