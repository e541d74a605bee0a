"""Anyon model data: labels, fusion, S-matrix, F- and R-symbols, twists.

A model is the finite data of a 2D anyon theory with multiplicity-free
fusion: label set with the vacuum first, an involutive dual map, fusion
coefficients N^c_{ab} in {0,1}, a unitary S-matrix, six-index F-symbols,
R-symbols and twists.

F-symbol convention.  The stored symbol F^{ijm}_{kln} (dict key
``(i,j,m,k,l,n)``) is the coefficient in the basis change on a 4-punctured
sphere with boundary (i,j,k,l): |m> on one cut equals sum_n F^{ijm}_{kln} |n>
on the crossed cut.  In the four-upper-index convention used by most fusion
category references this is (F^{jil}_k)_{mn}.  ``fmove_block`` returns the
whole block as a matrix together with its row and column label sets; see
docs/conventions.md for the derivation fixing these index placements.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .budget import Budget
from .tolerances import DEFAULT_TOL, check_tol


class ModelError(ValueError):
    """Schema violation in model input (missing field, bad index, multiplicity)."""


@dataclass(eq=False)
class AnyonModel:
    """One anyon model's data; see the module docstring for the conventions.

    A model is treated as immutable once an F-block has been read: the
    blocks are built once, on the first read, into :attr:`fblocks`, and are
    not rebuilt when the fusion tensor or the F dict changes afterwards.  A
    tampered model is a new instance (``dataclasses.replace``).
    """

    name: str
    labels: tuple[str, ...]
    dual: tuple[int, ...]
    fusion: np.ndarray  # (n, n, n) uint8, fusion[a, b, c] = N^c_{ab}
    smatrix: np.ndarray  # (n, n) complex
    fsymbols: dict[tuple[int, int, int, int, int, int], complex]
    rsymbols: dict[tuple[int, int, int], complex]
    twists: np.ndarray  # (n,) complex

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

    def fusion_product(self, a: int, b: int) -> tuple[int, ...]:
        """Labels c with N^c_{ab} = 1, in index order."""
        return tuple(int(c) for c in np.nonzero(self.fusion[a, b])[0])

    def rsymbol(self, a: int, b: int, c: int) -> complex:
        try:
            return self.rsymbols[(a, b, c)]
        except KeyError:
            raise ModelError(
                f"missing R-symbol ({self.labels[a]},{self.labels[b]};{self.labels[c]})"
            ) from None

    def fsymbol(self, i: int, j: int, m: int, k: int, l: int, n: int) -> complex:
        try:
            return self.fsymbols[(i, j, m, k, l, n)]
        except KeyError:
            raise ModelError(_missing_fsymbol(self.labels, (i, j, m, k, l, n))) from None

    @cached_property
    def fblocks(self) -> FBlockStore:
        """Every admissible F-block, built once on the first read."""
        return FBlockStore(self)

    def fmove_block(self, i: int, j: int, k: int, l: int):
        """F-move block for boundary (i,j,k,l).

        Returns ``(rows, cols, block)`` where ``rows`` are the labels m with
        N^m_{ij} N^k_{ml} = 1, ``cols`` the labels n with N^n_{il} N^k_{jn} = 1,
        and ``block[r, c] = F^{ij rows[r]}_{kl cols[c]}``.  Associativity
        guarantees len(rows) == len(cols).  A boundary that is not admissible
        gives empty label tuples and a 0x0 block.  The block is a read-only
        view into :attr:`fblocks`.
        """
        store = self.fblocks
        key = (i, j, k, l)
        if key in store.missing:
            raise ModelError(store.missing[key])
        return store.blocks.get(key, _NO_BLOCK)


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


def _fblock_layout(fusion: np.ndarray, budget: Budget):
    """Every admissible boundary of a fusion tensor, its channels and F-symbol keys.

    A row channel m of boundary (i,j,k,l) pairs the fusion triples (i,j,m)
    and (m,l,k), a column channel n pairs (i,l,n) and (j,n,k); both come
    from joining the nonzero triples of the fusion tensor, the keys from
    joining the rows and columns of each boundary.  Returns four integer
    arrays: ``bounds`` (B, 4), the boundaries (i,j,k,l) with a row or a
    column channel, in (i, j, l, k) order; ``rows`` (R, 2) and ``cols``
    (C, 2), the pairs (boundary position, channel), sorted; ``keys`` (K, 7),
    the rows (boundary position, i, j, m, k, l, n) in boundary order, each
    block in row-major order.  The channels, counted from the fusion
    tensor's sums, are charged before they are joined, at eight ints each,
    and the keys before they are built, at 14 ints and the about 300 bytes
    of Python objects a caller makes of each.
    """
    n = fusion.shape[0]
    shape = (n, n, n, n)
    made, first, second = (fusion.sum(axis=a, dtype=np.intp) for a in ((0, 1), (1, 2), (0, 2)))
    budget.charge("F-block channels", int(made @ (first + second)), 8 * 8)
    t = np.argwhere(fusion)  # (a, b, c) with N^c_{ab} = 1
    a, b = _join(t[:, 2], t[:, 0])
    row_code = np.ravel_multi_index((t[a, 0], t[a, 1], t[b, 1], t[b, 2]), shape)
    row_m = t[a, 2]
    a, b = _join(t[:, 2], t[:, 1])
    col_code = np.ravel_multi_index((t[a, 0], t[b, 0], t[a, 1], t[b, 2]), shape)
    col_n = t[a, 2]

    # The distinct codes in order; np.union1d would import numpy.ma.
    codes = np.sort(np.concatenate((row_code, col_code)))
    codes = codes[np.diff(codes, prepend=-1) > 0]
    bounds = np.column_stack(np.unravel_index(codes, shape))[:, [0, 1, 3, 2]]
    rows = np.column_stack((np.searchsorted(codes, row_code), row_m))
    rows = rows[np.lexsort(rows.T[::-1])]
    cols = np.column_stack((np.searchsorted(codes, col_code), col_n))
    cols = cols[np.lexsort(cols.T[::-1])]
    n_rows, n_cols = (np.bincount(x[:, 0], minlength=len(bounds)) for x in (rows, cols))
    budget.charge("F-symbols", int(n_rows @ n_cols), 14 * 8 + 300)
    a, b = _join(rows[:, 0], cols[:, 0])
    i, j, k, l = bounds[rows[a, 0]].T
    keys = np.column_stack((rows[a, 0], i, j, rows[a, 1], k, l, cols[b, 1]))
    return bounds, rows, cols, keys


_NO_BLOCK = ((), (), np.zeros((0, 0), dtype=np.complex128))
_NO_BLOCK[2].flags.writeable = False


class FBlockStore:
    """Every admissible F-block of one model, built once.

    ``blocks`` maps each admissible boundary (i,j,k,l) to what
    :meth:`AnyonModel.fmove_block` returns for it; ``missing`` maps a
    boundary whose block reads an absent F-symbol to the error text for the
    first one in row-major order.  ``boundaries`` lists the admissible
    boundaries in (i, j, l, k) order, the order of ``missing`` too, and
    ``stacks`` pairs, per block shape, the positions of its boundaries in
    that list with the read-only stack of their blocks.
    """

    def __init__(self, model: AnyonModel):
        budget = Budget()
        bounds, rows, cols, keys = _fblock_layout(model.fusion, budget)
        budget.charge("F-blocks", len(bounds), 400)  # per block its tuples, view and slot
        self.boundaries = list(map(tuple, bounds.tolist()))
        fkeys = list(map(tuple, keys[:, 1:].tolist()))
        values = list(map(model.fsymbols.get, fkeys))
        self.missing: dict[tuple[int, int, int, int], str] = {}
        if None in values:
            for e in [e for e, v in enumerate(values) if v is None]:
                self.missing.setdefault(
                    self.boundaries[keys[e, 0]], _missing_fsymbol(model.labels, fkeys[e])
                )
                values[e] = math.nan
        values = np.array(values, dtype=np.complex128)

        n_bound = len(self.boundaries)
        n_rows = np.bincount(rows[:, 0], minlength=n_bound)
        n_cols = np.bincount(cols[:, 0], minlength=n_bound)
        row_off = np.cumsum(n_rows) - n_rows
        col_off = np.cumsum(n_cols) - n_cols
        entry_off = np.cumsum(n_rows * n_cols) - n_rows * n_cols
        self.blocks = {}
        self.stacks: list[tuple[np.ndarray, np.ndarray]] = []
        for r, c in sorted(set(zip(n_rows.tolist(), n_cols.tolist()))):
            pos = np.flatnonzero((n_rows == r) & (n_cols == c))
            stack = values[(entry_off[pos, None] + np.arange(r * c)).ravel()]
            stack = stack.reshape(pos.size, r, c)
            stack.flags.writeable = False
            self.stacks.append((pos, stack))
            row_sets = map(tuple, rows[row_off[pos, None] + np.arange(r), 1].tolist())
            col_sets = map(tuple, cols[col_off[pos, None] + np.arange(c), 1].tolist())
            self.blocks.update(
                zip([self.boundaries[p] for p in pos.tolist()], zip(row_sets, col_sets, stack))
            )


def quantum_dimensions(model: AnyonModel) -> np.ndarray:
    """Quantum dimensions d_a = S_{0a} / S_{00} as a real array."""
    s0 = model.smatrix[0]
    return np.real(s0 / s0[0])


def total_quantum_dimension(model: AnyonModel) -> float:
    """D = sqrt(sum_a d_a^2) = 1 / S_{00}."""
    return float(np.real(1.0 / model.smatrix[0, 0]))


# ---------------------------------------------------------------------------
# Builtins


def _fill_fsymbols(fusion: np.ndarray, entry) -> dict:
    """Populate the F dict over all admissible boundaries from ``entry``.

    ``entry(i, j, m, k, l, n)`` supplies the value; admissibility is read
    off the fusion tensor; the keys are charged to a budget of its own.
    """
    keys = _fblock_layout(fusion, Budget())[3][:, 1:]
    return {key: complex(entry(*key)) for key in map(tuple, keys.tolist())}


def _fill_rsymbols(fusion: np.ndarray, entry) -> dict:
    return {
        (a, b, c): complex(entry(a, b, c)) for a, b, c in np.argwhere(fusion).tolist()
    }


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
        if (i, j, k, l) == (1, 1, 1, 1):
            return fdense[m, n]
        return 1.0

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
    fdense = np.array([[1.0, 1.0], [1.0, -1.0]]) / r2
    chan_pos = {0: 0, 1: 1}

    def fentry(i, j, m, k, l, n):
        std = (j, i, l, k)
        if std == (2, 2, 2, 2):
            return fdense[chan_pos[m], chan_pos[n]]
        if std in ((1, 2, 1, 2), (2, 1, 2, 1)):
            return -1.0
        return 1.0

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
    # group is the direct product over factors.
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

    # The sign pairing S and the twists matters: with theta_{(a,b)} =
    # exp(2 pi i ab/N), only the conjugated flux-charge pairing below makes
    # (S T)^3 proportional to S^2, i.e. makes (s, t) a projective torus
    # representation.  The opposite sign satisfies every single-matrix
    # invariant (unitary, symmetric, Verlinde) but breaks that relation for
    # N >= 3.
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

    def rentry(a, b, c):
        return cmath.exp(
            2j * math.pi
            * sum(b1 * a2 / n for (a1, b1), (a2, b2), n in zip(coords[a], coords[b], orders))
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
        fsymbols=_fill_fsymbols(fusion, lambda *k: 1.0),
        rsymbols=_fill_rsymbols(fusion, rentry),
        twists=twists,
    )


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
            for k, v in sorted(model.fsymbols.items())
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

    fsymbols = {}
    for ent in doc["fsymbols"]:
        try:
            key = tuple(int(ent[x]) for x in ("a", "b", "c", "d", "e", "f"))
            val = complex(float(ent["re"]), float(ent["im"]))
        except (KeyError, TypeError) as exc:
            raise ModelError(f"malformed fsymbol entry {ent}") from exc
        if any(not 0 <= k < n for k in key):
            raise ModelError(f"fsymbol entry {ent} out of range")
        fsymbols[key] = val

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
        fsymbols=fsymbols,
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
    """Fusion coefficients from the S-matrix: N^c_{ab} = sum_x S_ax S_bx S*_cx / S_0x."""
    s = model.smatrix
    n = model.n_labels
    out = np.empty((n, n, n), dtype=np.complex128)
    inv_s0 = 1.0 / s[0]
    for a in range(n):
        for b in range(n):
            out[a, b] = (s[a] * s[b] * inv_s0) @ s.conj().T
    return out


def validate(model: AnyonModel, tol: float = DEFAULT_TOL) -> ModelValidationReport:
    """Semantic consistency checks; failures are reported, never raised.

    A NaN, infinite or negative ``tol`` is a ValueError.  The fusion
    associativity check holds two L^4 int64 arrays for L labels; they are
    charged to a byte budget first, so past it ``validate`` raises a
    SearchBudgetError before building them.
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
    comm = float(np.abs(model.fusion - model.fusion.transpose(1, 0, 2)).max())
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
    Budget().charge("fusion associativity", n**4, 2 * 8)  # both int64 sides
    f = model.fusion.astype(np.int64)
    assoc = np.einsum("abe,ecd->abcd", f, f)
    assoc -= np.einsum("bcf,afd->abcd", f, f)
    ares = float(np.abs(assoc, out=assoc).max())
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
    # The residuals come from one batched B B^dagger - I per block shape, the
    # detail from a walk over the boundaries in (i, j, l, k) order.
    store = model.fblocks
    res = np.empty(len(store.boundaries))
    for pos, stack in store.stacks:
        r, c = stack.shape[1:]
        if r != c:
            res[pos] = -1.0
        else:
            gram = stack @ stack.conj().transpose(0, 2, 1)
            res[pos] = np.abs(gram - np.eye(r)).max(axis=(1, 2))
    worst, bad = 0.0, ""
    for boundary, r in zip(store.boundaries, res.tolist()):
        if r < 0:
            worst = max(worst, 1.0)
            bad = f"non-square block at {boundary}"
        elif r > worst:
            worst = r
            if r >= tol:
                bad = f"block {boundary}"
    if store.missing:
        worst, bad = float("inf"), next(iter(store.missing.values()))
    rep.checks["fblocks_unitary"] = CheckResult(worst < tol, worst, bad)

    # R completeness/unit modulus plus the twist consistency
    # theta_a = (1/d_a) sum_c d_c R^{aa}_c.
    worst = 0.0
    bad = ""
    try:
        for a in range(n):
            for b in range(n):
                for c in model.fusion_product(a, b):
                    r = abs(abs(model.rsymbol(a, b, c)) - 1.0)
                    if r > worst:
                        worst = r
                        bad = f"|R| at {(a, b, c)}"
        for a in range(n):
            acc = 0.0
            for c in model.fusion_product(a, a):
                acc += dims[c] * model.rsymbol(a, a, c)
            r = abs(acc / dims[a] - model.twists[a])
            if r > worst:
                worst = r
                bad = f"twist at {a}"
    except ModelError as exc:
        worst = float("inf")
        bad = str(exc)
    rep.checks["rsymbols_ribbon"] = CheckResult(worst < tol, worst, bad)

    return rep
