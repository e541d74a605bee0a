"""Sorted-key JSON text of reports, with every float rounded to 10 places.

``JsonWriter().indented(value)`` is ``json.dumps(r(value), sort_keys=True,
indent=2)``, byte for byte, where ``r`` turns every tuple into a list, every
``Rows`` into ``list(rows)``, and every float x into ``round(x, 10) + 0.0``
(so -0.0 and -1e-12 print as 0.0).  Dict keys must be strings.

Class and family lists are long, so their producers hand the writer a
``Rows``: records with the same keys, held by column.  The writer renders a
``Rows`` from its arrays without making a dict per record: it formats each
distinct number of a column once, renders each value of a categorical
column once, builds one record template from the keys and the depth, and
fills every record's tokens into it with one ``%``-format.  Everything else
is walked recursively.

A class list is ordered by the compact text of its classes,
``json.dumps(r(c), sort_keys=True)``, without writing that text:
``json_order`` ranks each leaf's token plus the character after it per
column and sorts the rows by those ranks.
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


class Rows(Sequence):
    """A read-only sequence of records with the same keys, held by column.

    ``columns`` maps each key to one of:

    * a 2-D int or float array: record r holds ``array[r].tolist()``;
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
            if isinstance(col, np.ndarray) and (col.ndim != 2 or col.dtype.kind not in "iuf"):
                raise TypeError(f"column {key!r}: expected a 2-D int or float array")
            rows = col.codes if isinstance(col, Category) else col
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
        if isinstance(value, dict):
            items = [
                _string(k) + ": " + self.indented(v, depth + 1)
                for k, v in sorted(value.items())
            ]
            return _block("{", items, "}", depth)
        if isinstance(value, (list, tuple)):
            return _block("[", [self.indented(v, depth + 1) for v in value], "]", depth)
        if isinstance(value, Rows):
            template, fills = self._record(value, depth + 1)
            tokens = np.concatenate(fills, axis=1).ravel().tolist() if fills else []
            return _block("[", [template] * len(value), "]", depth) % tuple(tokens)
        return _scalar(value)

    def _record(self, rows: Rows, depth: int) -> tuple[str, list[np.ndarray]]:
        """The ``%``-template of one record at ``depth``, its constant text
        escaped, and its tokens: (records, slots) object arrays in slot order."""
        parts, fills = [], []
        for key, col in rows.columns.items():
            if isinstance(col, np.ndarray):
                text = _block("[", ["%s"] * col.shape[1], "]", depth + 1)
                tokens, which = _tokens(col)
                fills.append(np.array(tokens, dtype=object)[which])
            elif isinstance(col, Category):
                text = "%s"
                rendered = [self.indented(v, depth + 1) for v in col.values]
                fills.append(np.array(rendered, dtype=object)[col.codes][:, None])
            elif isinstance(col, Rows):
                text, sub = self._record(col, depth + 1)
                fills.extend(sub)
            else:
                text = self.indented(col, depth + 1).replace("%", "%%")
            parts.append(_string(key).replace("%", "%%") + ": " + text)
        return _block("{", parts, "}", depth), fills


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


def json_order(*blocks, closers: str) -> np.ndarray:
    """Row order of records by their compact sorted-key JSON.

    Every record has the same keys at every depth, and its leaves, in the
    order of its compact text, are the rows ``blocks[0][r]``,
    ``blocks[1][r]``, ...: each block is a 2-D array of ints, floats or
    strings with one row per record, the values of one list or dict, closed
    by its character in ``closers`` ("]" or "}").  The text between the
    leaves is then the same for every record, and a token plus the
    character after it (", " inside a block, its closer at its end) is
    never a prefix of another, so the first column whose
    token-plus-character differs decides the order.  Each column is ranked
    by the text of those strings, ties by record index: the result is the
    stable sort by the compact text.
    """
    keys = []
    for block, close in zip(blocks, closers, strict=True):
        block = np.asarray(block)
        tokens, which = _tokens(block)
        width = block.shape[1]
        for sep, cols in ((", ", slice(0, width - 1)), (close, slice(width - 1, width))):
            texts = [t + sep for t in tokens]
            rank = {t: r for r, t in enumerate(sorted(set(texts)))}
            keys.extend(np.array([rank[t] for t in texts])[which[:, cols].T])
    return np.lexsort(keys[::-1])
