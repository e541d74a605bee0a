"""Sorted-key JSON text of reports, with every float rounded to 10 places.

``JsonWriter().indented(value)`` is ``json.dumps(r(value), sort_keys=True,
indent=2)``, byte for byte, where ``r`` turns every tuple into a list, every
``Rows`` into ``list(rows)``, and every float x into ``round(x, 10) + 0.0``
(so -0.0 and -1e-12 print as 0.0).  Dict keys must be strings.

Class and family lists are long, so their producers hand the writer a
``Rows``: records with the same keys, held by column.  A class list holds a
group's elements, so its permutation and phase columns repeat a few rows
many times.  The writer renders a ``Rows`` from its arrays without making a
dict per record: it finds the distinct rows of each array column, unless
the column comes as its distinct rows already, formats each distinct number
in them once and renders each distinct row once, renders each value of a
categorical column once, and lays every record out as a row of a table of
texts: the text the records share between columns, and one rendered text
per column.  Everything else is walked recursively.  All texts go into one
list, joined once into the output.

A class list is ordered by the compact text of its classes,
``json.dumps(r(c), sort_keys=True)``, without writing that text:
``json_order`` ranks each block's distinct rows by their leaves' texts and
sorts the records by one rank per block.  It returns each block as its
distinct rows in that order too, for the writer to render.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Sequence
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _string

import numpy as np

_INF = float("inf")


def _float_text(x: float) -> str:
    x = round(x, 10) + 0.0
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


# The JSON token of a leaf, by the kind of its array.
_TOKEN = {"i": int.__repr__, "u": int.__repr__, "f": _float_text, "U": _string}


@dataclass(frozen=True)
class Category:
    """A categorical column: record r holds ``values[codes[r]]``, the same
    object for every record with the same code."""

    codes: np.ndarray  # (records,) ints
    values: Sequence


@dataclass(frozen=True)
class DistinctRows:
    """A 2-D array column held by its distinct rows: record r holds
    ``rows[codes[r]].tolist()``."""

    codes: np.ndarray  # (records,) ints
    rows: np.ndarray  # (distinct rows, width) ints or floats


class Rows(Sequence):
    """A read-only sequence of records with the same keys, held by column.

    ``columns`` maps each key to one of:

    * a 2-D int or float array: record r holds ``array[r].tolist()``;
    * a ``DistinctRows``: record r holds ``rows[codes[r]].tolist()``;
    * a ``Category``: record r holds ``values[codes[r]]``;
    * a ``Rows`` of the same length: record r holds its record r;
    * any other value, which every record holds.

    Item r is the record's dict, built when it is read; ``list(rows)`` gives
    them all.  Keys are kept sorted.
    """

    def __init__(self, length: int, columns: dict):
        self._length = length
        self.columns = dict(sorted(columns.items()))
        for key, col in self.columns.items():
            array = col.rows if isinstance(col, DistinctRows) else col
            if isinstance(array, np.ndarray) and (
                array.ndim != 2 or array.dtype.kind not in "iuf"
            ):
                raise TypeError(f"column {key!r}: expected a 2-D int or float array")
            rows = col.codes if isinstance(col, (Category, DistinctRows)) else col
            if isinstance(rows, (np.ndarray, Rows)) and len(rows) != length:
                raise ValueError(f"column {key!r} has {len(rows)} rows, expected {length}")

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._records(index)
        r = range(self._length)[index]
        return self._records(slice(r, r + 1))[0]

    def __iter__(self):
        return iter(self._records(slice(None)))

    def _records(self, index: slice) -> list[dict]:
        keys = list(self.columns)
        cols = [_values(col, index) for col in self.columns.values()]
        return [dict(zip(keys, v)) for _, *v in zip(range(self._length)[index], *cols)]


def _values(col, index: slice):
    """The values a column gives the records of ``index``."""
    if isinstance(col, np.ndarray):
        return col[index].tolist()
    if isinstance(col, DistinctRows):
        return col.rows[col.codes[index]].tolist()
    if isinstance(col, Category):
        return map(col.values.__getitem__, col.codes[index].tolist())
    if isinstance(col, Rows):
        return col[index]
    return itertools.repeat(col)


class JsonWriter:
    """Renders the values of one report; see the module docstring."""

    def indented(self, value, depth: int = 0) -> str:
        """``json.dumps(r(value), sort_keys=True, indent=2)``, its inner
        lines ``depth`` levels deeper."""
        out = []
        self._write(value, depth, out)
        return "".join(out)

    def _write(self, value, depth: int, out: list) -> None:
        """Append the texts of ``value`` at ``depth`` to ``out``."""
        if isinstance(value, dict):
            items = [(_string(k) + ": ", v) for k, v in sorted(value.items())]
            self._write_items("{", items, "}", depth, out)
        elif isinstance(value, (list, tuple)):
            self._write_items("[", [("", v) for v in value], "]", depth, out)
        elif isinstance(value, Rows):
            self._write_rows(value, depth, out)
        else:
            out.append(_scalar(value))

    def _write_items(self, open_: str, items: list, close: str, depth: int, out: list) -> None:
        """(head, value) items one per line at ``depth + 1``, the closing
        bracket at ``depth``."""
        if not items:
            out.append(open_ + close)
            return
        outer = "\n" + "  " * depth
        sep = open_ + outer + "  "
        for head, v in items:
            out.append(sep + head)
            self._write(v, depth + 1, out)
            sep = "," + outer + "  "
        out.append(outer + close)

    def _write_rows(self, rows: Rows, depth: int, out: list) -> None:
        """``list(rows)`` at ``depth``: a table of every record's texts and
        the separator after it, appended row by row."""
        if not len(rows):
            out.append("[]")
            return
        texts = self._record(rows, depth + 1)
        outer = "\n" + "  " * depth
        table = np.empty((len(rows), len(texts) + 1), dtype=object)
        for j, text in enumerate(texts):
            table[:, j] = text
        table[:, -1] = "," + outer + "  "
        table[-1, -1] = outer + "]"
        out.append("[" + outer + "  ")
        out += table.ravel().tolist()

    def _record(self, rows: Rows, depth: int) -> list:
        """One record at ``depth`` as its texts in order: strings every
        record shares, and for each array, categorical or nested column a
        (records,) object array of each record's text.

        An array column is rendered as a categorical one over its distinct
        rows, so each distinct row is rendered once."""
        outer = "\n" + "  " * depth
        texts = []
        for key, col in rows.columns.items():
            head = ("," if texts else "{") + outer + "  " + _string(key) + ": "
            if isinstance(col, Rows):
                texts += [head, *self._record(col, depth + 1)]
            elif isinstance(col, (np.ndarray, DistinctRows, Category)):
                if isinstance(col, Category):
                    rendered = [self.indented(v, depth + 1) for v in col.values]
                else:
                    if isinstance(col, np.ndarray):
                        col = _distinct_rows(col)
                    tokens, which = _tokens(col.rows)
                    leaves = np.array(tokens, dtype=object)[which].tolist()
                    rendered = [_block("[", row, "]", depth + 1) for row in leaves]
                texts += [head, np.array(rendered, dtype=object)[col.codes]]
            else:
                texts.append(head + self.indented(col, depth + 1))
        texts.append(outer + "}" if texts else "{}")
        return texts


def _distinct_rows(block: np.ndarray) -> DistinctRows:
    """A 2-D array as its distinct rows.  Rows are told apart by their
    bytes, so -0.0 and 0.0 are two rows that print the same; the distinct
    rows come in the order of their bytes."""
    block = np.ascontiguousarray(block)
    records, width = block.shape
    if not records or not width:
        return DistinctRows(np.zeros(records, dtype=np.intp), block[:1])
    keys = block.view(np.dtype((np.void, block.itemsize * width))).ravel()
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    return DistinctRows(which, block[first])


def _tokens(block: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The distinct JSON tokens of a 2-D array, each formatted once, and
    the index of every entry's token, in the order of the values.

    Small non-negative ints are ranked through a table indexed by value
    instead of a sort; the result is the one ``np.unique`` gives.
    """
    if block.dtype.kind in "iu" and block.size and block.min() >= 0:
        top = int(block.max())
        if top < max(block.size, 1024):
            present = np.zeros(top + 1, dtype=bool)
            present[block] = True
            rank = np.cumsum(present, dtype=np.intp) - 1
            return list(map(int.__repr__, np.flatnonzero(present).tolist())), rank[block]
    values, which = np.unique(block, return_inverse=True)
    return list(map(_TOKEN[block.dtype.kind], values.tolist())), which.reshape(block.shape)


def _scalar(value) -> str:
    # A float subclass rounds by its own __round__; json.dumps raises
    # TypeError for what it cannot encode.
    if isinstance(value, float):
        return _float_text(value)
    return json.dumps(value)


def _block(open_: str, items: list[str], close: str, depth: int) -> str:
    """Items one per line at ``depth + 1``, the closing bracket at ``depth``."""
    if not items:
        return open_ + close
    outer = "\n" + "  " * depth
    return f"{open_}{outer}  {(',' + outer + '  ').join(items)}{outer}{close}"


def dumps(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` with rounded floats."""
    return JsonWriter().indented(value)


def json_order(*blocks, closers: str) -> tuple[np.ndarray, list[DistinctRows]]:
    """Row order of records by their compact sorted-key JSON, and each block
    in that order as its distinct rows.

    Every record has the same keys at every depth, and its leaves, in the
    order of its compact text, are the rows ``blocks[0][r]``,
    ``blocks[1][r]``, ...: each block is a 2-D array of ints, floats or
    strings with one row per record, the values of one list or dict, closed
    by its character in ``closers`` ("]" or "}").  The text between the
    leaves is then the same for every record, and a token plus the
    character after it (", " inside a block, its closer at its end) is
    never a prefix of another, so the first column whose
    token-plus-character differs decides the order.  Each column of a
    block's distinct rows is ranked by the text of those strings, the
    distinct rows are ranked by their columns' ranks (rows that print the
    same, such as -0.0 and 0.0, tie), and the records are sorted by one such
    rank per block, ties by record index: the order is the stable sort by
    the compact text.
    """
    keys, columns = [], []
    for block, close in zip(blocks, closers, strict=True):
        col = _distinct_rows(np.asarray(block))
        tokens, which = _tokens(col.rows)
        width = col.rows.shape[1]
        ranks = np.empty(which.shape, dtype=np.intp)
        for sep, cols in ((", ", slice(0, width - 1)), (close, slice(width - 1, width))):
            texts = [t + sep for t in tokens]
            rank = {t: r for r, t in enumerate(sorted(set(texts)))}
            ranks[:, cols] = np.array([rank[t] for t in texts], dtype=np.intp)[which[:, cols]]
        keys.append(_dense_rank(ranks)[col.codes])
        columns.append(col)
    order = np.lexsort(keys[::-1])
    return order, [DistinctRows(col.codes[order], col.rows) for col in columns]


def _dense_rank(rows: np.ndarray) -> np.ndarray:
    """Rank of every row of a 2-D int array in the lexicographic order of
    the distinct rows; equal rows share a rank."""
    if not rows.size:
        return np.zeros(len(rows), dtype=np.intp)
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    rank = np.empty(len(rows), dtype=np.intp)
    rank[order[0]] = 0
    rank[order[1:]] = np.cumsum(np.any(ordered[1:] != ordered[:-1], axis=1))
    return rank
