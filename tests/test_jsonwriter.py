import dataclasses
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyongates import (
    classify_punctured_sphere,
    classify_torus,
    delta_set,
    intersect_delta,
    jsonwriter,
    load_builtin,
    sphere_surface,
)
from anyongates.jsonwriter import Category, DistinctRows, JsonWriter, Rows, dumps, json_order

from oracles import PerLeafJsonWriter, reference_json_order, reference_report_json


def assert_same_text(value):
    writer = JsonWriter()
    assert writer.indented(value) == reference_report_json(value)
    assert dumps(value) == reference_report_json(value)


leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
payloads = st.recursive(
    leaves,
    lambda children: (
        st.lists(children, max_size=6)
        | st.lists(children, max_size=6).map(tuple)
        | st.dictionaries(st.text(max_size=6), children, max_size=6)
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_writer_matches_the_standard_encoder(value):
    assert_same_text(value)


# Floats whose 10-place texts tie or nearly tie: +-pi, signed and tiny
# zeros, pairs that round to the same text, and 1.5 before 1.5e-05 under
# "]" but after it under "}".
SPECIAL_FLOATS = [
    math.pi, -math.pi, 0.0, -0.0, -1e-12, 1e-12, 0.1, 0.12, 0.12345678904, 0.123456789041,
    1.00000000001, 1.0, 1.5707963268, math.pi / 2, -2.0000000000100002, -2.0,
    1e-05, 1.5, 1.5e-05, math.pi + 1e-13, 0.1 + 1e-13,
]
# Label names that are prefixes of each other, hold commas or quotes, or
# escape to \u sequences.
SPECIAL_STRINGS = ["e", "eps", "(0,1)", "(0,10)", "1", "1e-05", "psi", "", 'a"b', "a\\", "σ"]


def _twin(x):
    """A float with other bytes than x that prints the same, unless x is
    not finite or lies within 1e-13 of a 10-place rounding tie: -0.0 for
    0.0, 1e-12 for -0.0, x + 1e-13 otherwise."""
    if x == 0.0:
        return 1e-12 if math.copysign(1.0, x) < 0 else -0.0
    return x + 1e-13


def _twin_rows(draw, rows, kinds):
    """Some of ``rows`` again with every float replaced by its twin."""
    picked = draw(st.lists(st.sampled_from(rows), max_size=4)) if rows else []
    return [
        tuple([_twin(x) for x in block] if kind == "float" else block
              for block, kind in zip(row, kinds))
        for row in picked
    ]


@st.composite
def flat_records(draw):
    """Up to 26 rows of blocks of width 0-3 of ints 0-30, floats or
    strings, some rows repeated and some twinned: each block the values of a
    list or a dict of a record, each row a record; with the blocks' widths
    and closers."""
    kinds = draw(st.lists(st.sampled_from(["int", "float", "str"]), min_size=1, max_size=3))
    widths = [draw(st.integers(0, 3)) for _ in kinds]
    closers = "".join(draw(st.sampled_from("]}")) for _ in kinds)
    value = {
        # 1 and 10 make both "1, " < "10, " and "1]" > "10]" likely to meet
        "int": st.sampled_from([1, 10, 2, 20, 3, 30]) | st.integers(0, 30),
        "float": st.sampled_from(SPECIAL_FLOATS) | st.floats(-4.0, 4.0),
        "str": st.sampled_from(SPECIAL_STRINGS),
    }
    row = st.tuples(*(st.lists(value[k], min_size=w, max_size=w)
                      for k, w in zip(kinds, widths)))
    rows = draw(st.lists(row, max_size=16))
    repeats = draw(st.lists(st.sampled_from(rows), max_size=6)) if rows else []
    order = draw(st.permutations(rows + repeats + _twin_rows(draw, rows, kinds)))
    return kinds, widths, closers, order


DTYPES = {"int": np.int64, "float": np.float64, "str": np.str_}


def _records(rows, closers):
    """Record r holds block j of row r as a list under "]" and as a dict with
    keys in column order under "}"."""
    return [
        {f"k{j}": list(block) if close == "]" else {f"v{i}": x for i, x in enumerate(block)}
         for j, (block, close) in enumerate(zip(r, closers))}
        for r in rows
    ]


def _reference_order(records):
    return sorted(range(len(records)),
                  key=lambda i: reference_report_json(records[i], indent=None))


@settings(max_examples=300, deadline=None)
@given(flat_records())
def test_json_order_equals_the_sorted_reference_text(case):
    kinds, widths, closers, rows = case
    blocks = [
        np.array([r[j] for r in rows], dtype=DTYPES[k]).reshape(len(rows), w)
        for j, (k, w) in enumerate(zip(kinds, widths))
    ]
    want = _reference_order(_records(rows, closers))
    order, columns = json_order(*blocks, closers=closers)
    assert order.tolist() == want
    assert reference_json_order(*blocks, closers=closers).tolist() == want
    # each block in that order, as its distinct rows, byte for byte
    for block, col in zip(blocks, columns, strict=True):
        assert len(np.unique(col.codes)) == len(col.rows)
        assert col.rows[col.codes].tobytes() == block[order].tobytes()


@pytest.mark.parametrize("close", "]}")
def test_rows_that_print_the_same_tie_in_index_order(close):
    """-0.0, 0.0 and 1e-12 are three rows of bytes but one text, and so
    are x and x + 1e-13: each such group keeps its index order."""
    x = 0.3
    block = np.array([[x + 1e-13, 0.0], [1e-12, 1.0], [-0.0, 1.0], [x, 0.0], [0.0, 1.0],
                      [x, -0.0], [0.0, -1e-12]])
    assert len(jsonwriter._distinct_rows(block).rows) == 7  # by bytes, every row differs
    want = [6, 1, 2, 4, 0, 3, 5]
    assert json_order(block, closers=close)[0].tolist() == want
    assert _reference_order(_records([(row,) for row in block.tolist()], close)) == want


def test_json_order_of_no_records_and_of_empty_blocks():
    none = np.zeros((0, 0), dtype=np.intp)
    assert json_order(np.zeros((0, 3)), none, closers="]}")[0].tolist() == []
    empty = np.zeros((3, 0), dtype=np.intp)
    assert json_order(empty, closers="]")[0].tolist() == [0, 1, 2]
    ints = np.array([[2], [1], [2]])
    assert json_order(empty, ints, empty, closers="]}]")[0].tolist() == [1, 0, 2]


def test_json_order_separates_list_ends_from_list_entries():
    """"1, " sorts before "10, " but "1]" after "10]", unlike the numbers."""
    ints = np.array([[1, 10], [10, 1], [1, 1], [10, 10]])
    assert json_order(ints, closers="]")[0].tolist() == [0, 2, 3, 1]
    assert np.lexsort(ints.T[::-1]).tolist() == [2, 0, 1, 3]


@pytest.mark.parametrize("close", "]}")
@pytest.mark.parametrize("block, want", [
    # "1.0" and "1e-05" part at "." < "e" under either closer
    ([[1.0], [1e-05]], {"]": [0, 1], "}": [0, 1]}),
    # "1.5]" < "1.5e-05]" but "1.5}" > "1.5e-05}"
    ([[1.5], [1.5e-05]], {"]": [0, 1], "}": [1, 0]}),
    ([[1.5, 0.0], [1.5e-05, 0.0]], {"]": [0, 1], "}": [0, 1]}),
    # the closing quote ends a label: '"e"' < '"eps"' under either closer
    ([["eps"], ["e"]], {"]": [1, 0], "}": [1, 0]}),
    ([["(0,10)", "e"], ["(0,1)", "e"]], {"]": [1, 0], "}": [1, 0]}),
])
def test_json_order_closers(block, want, close):
    block = np.array(block)
    assert json_order(block, closers=close)[0].tolist() == want[close]
    records = _records([(row,) for row in block.tolist()], close)
    assert _reference_order(records) == want[close]


# Text that a %-template would read as a format, or a str.format template.
FORMAT_STRINGS = ["%", "%s", "{}"]
TEXTS = st.sampled_from(SPECIAL_STRINGS + FORMAT_STRINGS)
FLOATS = st.sampled_from(SPECIAL_FLOATS + [math.nan, math.inf, -math.inf]) | st.floats()
INTS = st.sampled_from([1, 10, 2, 20, -3]) | st.integers(-(2**63), 2**63 - 1)
SCALARS = st.none() | st.booleans() | INTS | FLOATS | TEXTS
SHARED = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(TEXTS, children, max_size=3),
    max_leaves=8,
)


@st.composite
def rows_of(draw, n, nested=True):
    """A ``Rows`` of n records under keys drawn from ``TEXTS``: int and float
    arrays of width 0-3, each drawing its rows from a pool of at most four
    (and, for floats, their twins) and held whole or as ``DistinctRows``
    over that pool, shared values, categorical columns of shared dicts, and
    one nested ``Rows``."""
    kinds = ["int", "float", "shared", "category"] + (["rows"] if nested else [])
    columns = {}
    for key in draw(st.lists(TEXTS, unique=True, max_size=4)):
        kind = draw(st.sampled_from(kinds))
        if kind in ("int", "float"):
            width = draw(st.integers(0, 3))
            entry = INTS if kind == "int" else FLOATS
            pool = draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                                 min_size=1, max_size=4))
            if kind == "float":
                pool += [[_twin(x) for x in row] for row in pool]
            pool = np.array(pool, dtype=DTYPES[kind]).reshape(len(pool), width)
            codes = np.array(draw(st.lists(st.integers(0, len(pool) - 1), min_size=n,
                                           max_size=n)), dtype=np.intp)
            columns[key] = DistinctRows(codes, pool) if draw(st.booleans()) else pool[codes]
        elif kind == "shared":
            columns[key] = draw(SHARED)
        elif kind == "category":
            values = draw(st.lists(st.dictionaries(TEXTS, SHARED, max_size=3),
                                   min_size=1, max_size=3))
            codes = draw(st.lists(st.integers(0, len(values) - 1), min_size=n, max_size=n))
            columns[key] = Category(np.array(codes, dtype=np.intp), values)
        else:
            columns[key] = draw(rows_of(n, nested=False))
    return Rows(n, columns)


@st.composite
def payloads_with_rows(draw):
    """A ``Rows`` at depth 0, or two levels deep beside other values; and
    the same payload with ``list(rows)`` in its place."""
    rows = draw(st.integers(0, 16).flatmap(rows_of))
    if draw(st.booleans()):
        return rows, list(rows)
    outer, inner = draw(TEXTS), draw(TEXTS)
    other = draw(SHARED)
    return {outer: [{inner: rows}, other]}, {outer: [{inner: list(rows)}, other]}


@settings(max_examples=300, deadline=None)
@given(payloads_with_rows())
def test_rows_render_like_their_records(case):
    payload, reference = case
    assert dumps(payload) == reference_report_json(reference)


@given(st.integers(0, 16).flatmap(rows_of))
def test_rows_items_and_shared_values(rows):
    records = list(rows)
    assert len(records) == len(rows)
    # compared as text, as NaN != NaN
    text = reference_report_json(records)
    assert reference_report_json([rows[i] for i in range(len(rows))]) == text
    assert reference_report_json(rows[:]) == text
    for key, col in rows.columns.items():
        if isinstance(col, Category):
            assert all(r[key] is col.values[c] for r, c in zip(records, col.codes.tolist()))


def test_rows_refuse_malformed_columns():
    with pytest.raises(ValueError, match="has 2 rows, expected 3"):
        Rows(3, {"a": np.zeros((2, 1))})
    with pytest.raises(ValueError, match="has 1 rows"):
        Rows(2, {"a": Category(np.zeros(1, dtype=np.intp), [{}])})
    with pytest.raises(TypeError, match="2-D int or float"):
        Rows(1, {"a": np.zeros(1)})
    with pytest.raises(TypeError, match="2-D int or float"):
        Rows(1, {"a": np.zeros((1, 1), dtype=bool)})
    with pytest.raises(ValueError, match="has 1 rows, expected 2"):
        Rows(2, {"a": DistinctRows(np.zeros(1, dtype=np.intp), np.zeros((2, 1)))})
    with pytest.raises(TypeError, match="2-D int or float"):
        Rows(1, {"a": DistinctRows(np.zeros(1, dtype=np.intp), np.zeros(1))})
    with pytest.raises(TypeError):
        dumps(Rows(1, {1: 0}))
    with pytest.raises(IndexError):
        Rows(1, {"a": 0})[1]


@pytest.mark.parametrize("x", [-0.0, -1e-12, 1e-12, -4.9e-11])
def test_negative_zero_and_tiny_values_print_as_zero(x):
    assert dumps([x]) == "[\n  0.0\n]"
    assert dumps({"a": x}) == '{\n  "a": 0.0\n}'
    assert_same_text([x, [x], {"x": x}])


def test_values_next_to_a_rounding_tie():
    ties = (5e-11, -5e-11, 1.5e-10, 0.12345678905, -2.00000000005, 3.14159265355)
    values = [
        y
        for t in ties
        for y in (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf))
    ]
    assert_same_text(values)
    assert_same_text({"v": values, "w": [[v] for v in values]})


def test_nan_and_infinities():
    value = [math.nan, math.inf, -math.inf, {"k": math.nan}, [math.inf, 1.0]]
    assert_same_text(value)
    value = [math.nan, math.inf, -math.inf]
    assert dumps(value) == reference_report_json(value) == (
        "[\n  NaN,\n  Infinity,\n  -Infinity\n]"
    )


def test_int_float_and_bool_stay_apart():
    writer = JsonWriter()
    for value in ([1.0, 1], [1, 1.0, True], [True, 1, 1.0], [1, 2], [1.0, 2.0]):
        assert writer.indented(value) == reference_report_json(value)
    assert writer.indented([1, 1.0, True]) == "[\n  1,\n  1.0,\n  true\n]"
    assert_same_text([1, 1.0, True, False, 0, 0.0, None])


def test_non_ascii_keys_and_strings():
    assert_same_text({"σ": 1, "ß": ["é", "→"], "a\nb": {"\ud83d": 2}})


def test_empty_containers():
    for value in ([], {}, (), [[]], [{}], {"a": {}, "b": [], "c": ()}, [(), [[], {}]]):
        assert_same_text(value)


def test_float_subclasses_round_by_their_own_round():
    assert_same_text([np.float64(0.1 + 0.2), {"x": np.float64(-1e-13)}])


def test_a_dict_met_twice_renders_the_same_at_every_depth():
    shared = {"perm": {"1": "1", "psi": "psi"}, "phases": {"1": 0.0, "psi": math.pi}}
    value = {
        "classes": [{"curves": {"C2": shared, "C4": shared, "C6": shared}}, shared],
        "nested": {"deeper": shared},
        "top": shared,
    }
    assert_same_text(value)


def test_unsupported_values_raise_type_error():
    with pytest.raises(TypeError):
        dumps([np.int64(3)])
    with pytest.raises(TypeError):
        dumps({1: "a key that is not a string"})


def _sorted_tokens(block):
    values, which = np.unique(block, return_inverse=True)
    return [str(v) for v in values.tolist()], which.reshape(block.shape)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 1), (1, 1), (6, 1), (40, 7), (7, 300)])
@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, np.uint64])
def test_small_int_tokens_equal_the_sorted_ones(monkeypatch, shape, dtype):
    """Small non-negative ints are ranked through a table, not a sort, and
    give np.unique's tokens and indices, dtype included."""
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    block = rng.integers(0, 12, size=shape).astype(dtype)
    block[:, ::2] *= 9  # gaps between the values present
    want = _sorted_tokens(block)
    if block.size:
        def no_sort(*args, **kwargs):
            raise AssertionError("np.unique called on a small int column")

        monkeypatch.setattr(np, "unique", no_sort)
    tokens, which = jsonwriter._tokens(block)
    monkeypatch.undo()
    assert tokens == want[0]
    assert which.dtype == want[1].dtype and np.array_equal(which, want[1])


@pytest.mark.parametrize(
    "block",
    [np.array([[-3, 0, 5]]), np.array([[0, 5000], [7, 5000]]), np.array([[2**40, 1]])],
    ids=["negative", "above-the-table", "huge"],
)
def test_other_int_tokens_still_sort(block):
    tokens, which = jsonwriter._tokens(block)
    want = _sorted_tokens(block)
    assert tokens == want[0] and np.array_equal(which, want[1])


# ---------------------------------------------------------------------------
# Class and family lists of the package against the per-leaf writer and order

classify_module = importlib.import_module("anyongates.classify")
cli = importlib.import_module("anyongates.cli")


@pytest.fixture
def checked_order(monkeypatch):
    """classify's ``json_order``, equal to the per-leaf reference on every
    call; the list of the orders' lengths."""
    lengths = []

    def checked(*blocks, closers):
        got, columns = json_order(*blocks, closers=closers)
        want = reference_json_order(*blocks, closers=closers)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        lengths.append(len(got))
        return got, columns

    monkeypatch.setattr(classify_module, "json_order", checked)
    return lengths


def _per_leaf(monkeypatch, write):
    """What ``write()`` gives with the per-leaf writer in the package's place."""
    with monkeypatch.context() as m:
        m.setattr(jsonwriter, "JsonWriter", PerLeafJsonWriter)
        return write()


def _assert_same_text(got, want):
    """``got == want``, failing with the first line that differs instead of
    a diff of megabytes."""
    if got == want:
        return
    for i, (a, b) in enumerate(zip(got.splitlines(), want.splitlines())):
        if a != b:
            pytest.fail(f"line {i}: {a!r} != {b!r}")
    pytest.fail(f"{len(got)} characters against {len(want)}")


def _rows_slice(rows, lo, hi):
    """Records lo to hi of a ``Rows``, as a ``Rows`` of the same columns."""
    columns = {}
    for key, col in rows.columns.items():
        if isinstance(col, np.ndarray):
            col = col[lo:hi]
        elif isinstance(col, (Category, DistinctRows)):
            col = dataclasses.replace(col, codes=col.codes[lo:hi])
        elif isinstance(col, Rows):
            col = _rows_slice(col, lo, hi)
        columns[key] = col
    return Rows(hi - lo, columns)


@pytest.mark.parametrize("model, surface, classes", [
    ("zn_toric:4", None, 4096),
    ("ising", ("sigma", 12), 1024),
])
def test_largest_class_lists_match_the_per_leaf_writer(monkeypatch, checked_order,
                                                       model, surface, classes):
    """The benchmark's largest classify outputs: the same order and bytes."""
    m = load_builtin(model)
    if surface is None:
        report = classify_torus(m)
    else:
        report = classify_punctured_sphere(m, sphere_surface(m, *surface))
    assert checked_order == [classes] == [report.n_classes]
    _assert_same_text(report.to_json(), _per_leaf(monkeypatch, report.to_json))


def test_largest_family_list_matches_the_per_leaf_writer(monkeypatch, capsys):
    """``delta ising sphere:sigma:8 --words s2``: 6,144 families over 384
    distinct permutation rows and 16 distinct phase rows."""
    argv = ["delta", "--model", "ising", "--surface", "sphere:sigma:8", "--words", "s2",
            "--format", "json"]
    assert cli.main(argv) == 0
    text = capsys.readouterr().out
    assert _per_leaf(monkeypatch, lambda: cli.main(argv)) == 0
    _assert_same_text(capsys.readouterr().out, text)
    ising = load_builtin("ising")
    inter = intersect_delta([delta_set(ising, sphere_surface(ising, "sigma", 8), "s2")])
    perms, angles = inter.perms, np.angle(inter.instantiate_families())
    assert len(perms) == 6144
    assert [len(jsonwriter._distinct_rows(b).rows) for b in (perms, angles)] == [384, 16]


@pytest.mark.parametrize("model, classes", [("zn_toric:5", 5000), ("dg_abelian:2,3", 31104)])
def test_large_torus_class_lists_match_chunk_by_chunk(checked_order, model, classes):
    """The class list written 1,024 records at a time, so that the per-leaf
    writer never holds more than one chunk's tokens."""
    rows = classify_torus(load_builtin(model)).classes
    assert checked_order == [classes] == [len(rows)]
    for lo in range(0, len(rows), 1024):
        part = _rows_slice(rows, lo, min(lo + 1024, len(rows)))
        _assert_same_text(JsonWriter().indented(part, 1), PerLeafJsonWriter().indented(part, 1))
