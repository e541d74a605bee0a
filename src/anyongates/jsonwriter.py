"""Sorted-key JSON text of reports, with every float rounded to 10 places.

``JsonWriter().indented(value)`` is ``json.dumps(r(value), sort_keys=True,
indent=2)``, byte for byte, where ``r`` turns every tuple into a list and
every float x into ``round(x, 10) + 0.0`` (so -0.0 and -1e-12 print as
0.0).  Dict keys must be strings.

Class lists are long and repetitive, so one writer formats each distinct
int and float once, joins a list of only ints or only floats in C, and
renders a dict held by a dict once however often it recurs (the sphere
classes share their curve options' dicts).  A writer lives for one report; nothing is
kept between calls.

A class list is ordered by the compact text of its classes,
``json.dumps(r(c), sort_keys=True)``, without writing that text:
``json_order`` ranks each leaf's token plus the character after it per
column and sorts the rows by those ranks.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string

import numpy as np

_INF = float("inf")
_INT = frozenset([int])
_FLOAT = frozenset([float])


def _float_text(x: float) -> str:
    x = round(x, 10) + 0.0
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


class JsonWriter:
    """Renders the values of one report; see the module docstring."""

    def __init__(self):
        # Texts of exact ints and floats, one table each: 1 == 1.0 == True
        # would share one entry.
        self._ints: dict[int, str] = {}
        self._floats: dict[float, str] = {}
        # id -> (dict, depth, text) of the dicts held by a dict, such as the
        # curve options the sphere classes share.  A dict in a list is a
        # record met once (a class, a family) and is not kept.  The dict is
        # kept so its id stays its own while the writer lives.
        self._indented: dict[int, tuple] = {}

    def indented(self, value, depth: int = 0) -> str:
        """``json.dumps(r(value), sort_keys=True, indent=2)``, its inner
        lines ``depth`` levels deeper."""
        if isinstance(value, dict):
            hit = self._indented.get(id(value))
            if hit is None or hit[1] != depth:
                text = self._indented_dict(value, depth)
                hit = self._indented[id(value)] = (value, depth, text)
            return hit[2]
        if isinstance(value, (list, tuple)):
            parts = self._numbers(value)
            if parts is None:
                parts = [
                    self._indented_dict(v, depth + 1) if type(v) is dict
                    else self.indented(v, depth + 1)
                    for v in value
                ]
            return _block("[", parts, "]", depth)
        return self._scalar(value)

    def _indented_dict(self, value: dict, depth: int) -> str:
        items = [
            _string(k) + ": " + self.indented(v, depth + 1)
            for k, v in sorted(value.items())
        ]
        return _block("{", items, "}", depth)

    def _scalar(self, value) -> str:
        # Exact ints and floats first, as they are most values; then json's
        # order of checks, where a bool is an int, and a float subclass
        # rounds by its own __round__.
        if type(value) is int:
            return int.__repr__(value)
        if type(value) is float:
            text = self._floats.get(value)
            if text is None:
                text = self._floats[value] = _float_text(value)
            return text
        if isinstance(value, str):
            return _string(value)
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, int):
            return int.__repr__(value)
        if isinstance(value, float):
            return _float_text(value)
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable"
        )

    def _numbers(self, items) -> list[str] | None:
        """The texts of a list of only ints or only floats, looked up in C."""
        kinds = set(map(type, items))
        if kinds == _INT:
            table, text = self._ints, int.__repr__
        elif kinds == _FLOAT:
            table, text = self._floats, _float_text
        else:
            return None
        try:
            return list(map(table.__getitem__, items))
        except KeyError:
            for x in items:
                if x not in table:
                    table[x] = text(x)
            return list(map(table.__getitem__, items))


def _block(open_: str, items: list[str], close: str, depth: int) -> str:
    """Items one per line at ``depth + 1``, the closing bracket at ``depth``."""
    if not items:
        return open_ + close
    outer = "\n" + "  " * depth
    return f"{open_}{outer}  {(',' + outer + '  ').join(items)}{outer}{close}"


def dumps(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` with rounded floats."""
    return JsonWriter().indented(value)


# The JSON token of a leaf, by the kind of its array.
_TOKEN = {"i": int.__repr__, "u": int.__repr__, "f": _float_text, "U": _string}


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
        values, which = np.unique(block, return_inverse=True)
        which = which.reshape(block.shape)
        tokens = list(map(_TOKEN[block.dtype.kind], values.tolist()))
        width = block.shape[1]
        for sep, cols in ((", ", slice(0, width - 1)), (close, slice(width - 1, width))):
            texts = [t + sep for t in tokens]
            rank = {t: r for r, t in enumerate(sorted(set(texts)))}
            keys.extend(np.array([rank[t] for t in texts])[which[:, cols].T])
    return np.lexsort(keys[::-1])
