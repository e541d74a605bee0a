import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyongates import jsonwriter
from anyongates.jsonwriter import Category, JsonWriter, Rows, dumps, json_order

from oracles import reference_report_json


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
    1e-05, 1.5, 1.5e-05,
]
# Label names that are prefixes of each other, hold commas or quotes, or
# escape to \u sequences.
SPECIAL_STRINGS = ["e", "eps", "(0,1)", "(0,10)", "1", "1e-05", "psi", "", 'a"b', "a\\", "σ"]


@st.composite
def flat_records(draw):
    """Rows of blocks of ints 0-30, floats or strings, some rows repeated:
    each block the values of a list or a dict of a record, each row a
    record; with the blocks' closers."""
    kinds = draw(st.lists(st.sampled_from(["int", "float", "str"]), min_size=1, max_size=3))
    widths = [draw(st.integers(1, 3)) for _ in kinds]
    closers = "".join(draw(st.sampled_from("]}")) for _ in kinds)
    value = {
        # 1 and 10 make both "1, " < "10, " and "1]" > "10]" likely to meet
        "int": st.sampled_from([1, 10, 2, 20, 3, 30]) | st.integers(0, 30),
        "float": st.sampled_from(SPECIAL_FLOATS) | st.floats(-4.0, 4.0),
        "str": st.sampled_from(SPECIAL_STRINGS),
    }
    row = st.tuples(*(st.lists(value[k], min_size=w, max_size=w)
                      for k, w in zip(kinds, widths)))
    rows = draw(st.lists(row, min_size=1, max_size=16))
    repeats = draw(st.lists(st.sampled_from(rows), max_size=6))
    order = draw(st.permutations(rows + repeats))
    return kinds, closers, order


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
    kinds, closers, rows = case
    blocks = [
        np.array([r[j] for r in rows], dtype=DTYPES[k]) for j, k in enumerate(kinds)
    ]
    want = _reference_order(_records(rows, closers))
    assert json_order(*blocks, closers=closers).tolist() == want


def test_json_order_separates_list_ends_from_list_entries():
    """"1, " sorts before "10, " but "1]" after "10]", unlike the numbers."""
    ints = np.array([[1, 10], [10, 1], [1, 1], [10, 10]])
    assert json_order(ints, closers="]").tolist() == [0, 2, 3, 1]
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
    assert json_order(block, closers=close).tolist() == want[close]
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
    arrays of width 0-3, shared values, categorical columns of shared dicts,
    and one nested ``Rows``."""
    kinds = ["int", "float", "shared", "category"] + (["rows"] if nested else [])
    columns = {}
    for key in draw(st.lists(TEXTS, unique=True, max_size=4)):
        kind = draw(st.sampled_from(kinds))
        if kind in ("int", "float"):
            width = draw(st.integers(0, 3))
            entry = INTS if kind == "int" else FLOATS
            row = st.lists(entry, min_size=width, max_size=width)
            values = draw(st.lists(row, min_size=n, max_size=n))
            columns[key] = np.array(values, dtype=DTYPES[kind]).reshape(n, width)
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
