import dataclasses
import functools
import itertools
import json
import time

import numpy as np
import pytest

from anyongates import (
    AnyonModel,
    ModelError,
    fibonacci,
    ising,
    load_builtin,
    parse_model,
    quantum_dimensions,
    serialize_model,
    total_quantum_dimension,
    validate,
    zn_toric,
)
from anyongates.budget import Budget
from anyongates.models import FSymbols, fusion_channels, verlinde_fusion
from oracles import (
    deligne_product,
    reference_abelian_double,
    reference_fblocks_unitary,
    reference_fmove_block,
    reference_fusion_axioms,
    reference_rsymbols_ribbon,
    reference_verlinde_check,
    reference_verlinde_fusion,
)

PHI = (1 + np.sqrt(5)) / 2

ALL_BUILTIN_NAMES = ["fibonacci", "ising", "zn_toric:2", "zn_toric:3", "zn_toric:4", "zn_toric:5"]


@pytest.fixture(params=ALL_BUILTIN_NAMES)
def builtin(request):
    return load_builtin(request.param)


def test_all_builtins_validate(builtin):
    rep = validate(builtin)
    assert rep.passed, "\n".join(rep.lines())


def test_validation_report_lines(builtin):
    rep = validate(builtin)
    lines = rep.lines()
    assert len(lines) == len(rep.checks)
    assert all(line.startswith("[pass]") for line in lines)


# ---------------------------------------------------------------------------
# Frozen data for the two non-abelian builtins


def test_fibonacci_smatrix():
    m = fibonacci()
    want = np.array([[1, PHI], [PHI, -1]]) / np.sqrt(2 + PHI)
    assert np.abs(m.smatrix - want).max() < 1e-12


def test_fibonacci_twists_and_rsymbols():
    m = fibonacci()
    assert abs(m.twists[0] - 1) < 1e-12
    assert abs(m.twists[1] - np.exp(4j * np.pi / 5)) < 1e-12
    assert abs(m.rsymbol(1, 1, 0) - np.exp(-4j * np.pi / 5)) < 1e-12
    assert abs(m.rsymbol(1, 1, 1) - np.exp(3j * np.pi / 5)) < 1e-12


def test_fibonacci_fmove_block():
    m = fibonacci()
    rows, cols, block = m.fmove_block(1, 1, 1, 1)
    assert rows == (0, 1)
    assert cols == (0, 1)
    want = np.array([[1 / PHI, 1 / np.sqrt(PHI)], [1 / np.sqrt(PHI), -1 / PHI]])
    assert np.abs(block - want).max() < 1e-12


def test_ising_smatrix_and_twists():
    m = ising()
    r2 = np.sqrt(2)
    want = np.array([[1, 1, r2], [1, 1, -r2], [r2, -r2, 0]]) / 2
    assert np.abs(m.smatrix - want).max() < 1e-12
    assert np.abs(m.twists - np.array([1, -1, np.exp(1j * np.pi / 8)])).max() < 1e-12


def test_ising_rsymbols():
    m = ising()
    sigma, psi = 2, 1
    assert abs(m.rsymbol(sigma, sigma, 0) - np.exp(-1j * np.pi / 8)) < 1e-12
    assert abs(m.rsymbol(sigma, sigma, psi) - np.exp(3j * np.pi / 8)) < 1e-12
    assert abs(m.rsymbol(psi, sigma, sigma) + 1j) < 1e-12
    assert abs(m.rsymbol(sigma, psi, sigma) + 1j) < 1e-12
    assert abs(m.rsymbol(psi, psi, 0) + 1) < 1e-12


def test_ising_fmove_block():
    """The exchange block on four sigma lines is the Hadamard matrix."""
    m = ising()
    rows, cols, block = m.fmove_block(2, 2, 2, 2)
    assert rows == (0, 1)
    want = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.abs(block - want).max() < 1e-12
    # the sign blocks on alternating lines
    _, _, b1 = m.fmove_block(2, 1, 2, 1)
    assert b1.shape == (1, 1) and abs(b1[0, 0] + 1) < 1e-12
    _, _, b2 = m.fmove_block(1, 2, 1, 2)
    assert b2.shape == (1, 1) and abs(b2[0, 0] + 1) < 1e-12


@pytest.mark.parametrize("nmod", [2, 3, 4, 5])
def test_zn_toric_data(nmod):
    m = zn_toric(nmod)
    assert m.n_labels == nmod * nmod
    w = np.exp(2j * np.pi / nmod)
    for a in range(nmod):
        for ap in range(nmod):
            i = a * nmod + ap
            assert abs(m.twists[i] - w ** (a * ap)) < 1e-12
            for b in range(nmod):
                for bp in range(nmod):
                    j = b * nmod + bp
                    assert abs(m.smatrix[i, j] - w ** (-(a * bp + ap * b)) / nmod) < 1e-12


def test_zn_toric_fusion_is_group_law():
    m = zn_toric(3)
    n = m.n_labels
    for a in range(n):
        prods = [m.fusion_product(a, b) for b in range(n)]
        assert all(len(p) == 1 for p in prods)
        # row of a group multiplication table: a bijection
        assert sorted(p[0] for p in prods) == list(range(n))


def test_zn_toric_requires_two():
    with pytest.raises(ModelError):
        zn_toric(1)


# ---------------------------------------------------------------------------
# Shared structure


def test_quantum_dimensions():
    assert np.abs(quantum_dimensions(fibonacci()) - np.array([1, PHI])).max() < 1e-12
    assert np.abs(quantum_dimensions(ising()) - np.array([1, 1, np.sqrt(2)])).max() < 1e-12
    assert np.abs(quantum_dimensions(zn_toric(4)) - 1).max() < 1e-12


def test_total_quantum_dimension():
    assert abs(total_quantum_dimension(fibonacci()) - np.sqrt(2 + PHI)) < 1e-12
    assert abs(total_quantum_dimension(ising()) - 2) < 1e-12
    assert abs(total_quantum_dimension(zn_toric(5)) - 5) < 1e-12


def test_vacuum_and_duals(builtin):
    m = builtin
    assert m.dual[0] == 0
    for a in range(m.n_labels):
        assert m.dual[m.dual[a]] == a
        assert m.fusion[a, m.dual[a], 0] == 1
        # vacuum appears in a x b only when b is the dual
        partners = [b for b in range(m.n_labels) if m.fusion[a, b, 0]]
        assert partners == [m.dual[a]]


def test_ribbon_identity(builtin):
    """R^{ab}_c R^{ba}_c = theta_c / (theta_a theta_b) on every fusion triple."""
    m = builtin
    for a in range(m.n_labels):
        for b in range(m.n_labels):
            for c in m.fusion_product(a, b):
                lhs = m.rsymbol(a, b, c) * m.rsymbol(b, a, c)
                rhs = m.twists[c] / (m.twists[a] * m.twists[b])
                assert abs(lhs - rhs) < 1e-10, (m.name, a, b, c)


def test_fmove_blocks_unitary(builtin):
    m = builtin
    n = m.n_labels
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    rows, cols, block = m.fmove_block(i, j, k, l)
                    assert len(rows) == len(cols)
                    if rows:
                        gram = block @ block.conj().T
                        assert np.abs(gram - np.eye(len(rows))).max() < 1e-10


def test_label_index():
    m = ising()
    assert m.label_index("sigma") == 2
    assert m.label_index(1) == 1
    with pytest.raises(ModelError):
        m.label_index("tau")
    with pytest.raises(ModelError):
        m.label_index(7)


@pytest.mark.parametrize(
    "name, orders",
    [(f"zn_toric:{n}", [n]) for n in range(2, 6)]
    + [("dg_abelian:2,2", [2, 2]), ("dg_abelian:2,3", [2, 3])],
)
def test_abelian_double_equals_the_per_label_build_byte_for_byte(name, orders):
    got = load_builtin(name)
    want = reference_abelian_double(orders, special_names=name == "zn_toric:2")
    assert (got.name, got.labels, got.dual) == (want.name, want.labels, want.dual)
    for field_name in ("fusion", "smatrix", "twists"):
        a, b = getattr(got, field_name), getattr(want, field_name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    assert list(got.rsymbols) == list(want.rsymbols)
    assert all(type(v) is complex for v in got.rsymbols.values())
    assert np.array(list(got.rsymbols.values())).tobytes() == (
        np.array(list(want.rsymbols.values())).tobytes()
    )
    assert dict(got.fsymbols) == dict(want.fsymbols)


def test_load_builtin_unknown():
    with pytest.raises(ModelError):
        load_builtin("semion")
    with pytest.raises(ModelError):
        load_builtin("zn_toric:x")


# ---------------------------------------------------------------------------
# Serialization


def test_round_trip_exact(builtin):
    doc = serialize_model(builtin)
    back = parse_model(doc)
    assert back.labels == builtin.labels
    assert back.dual == builtin.dual
    assert np.array_equal(back.fusion, builtin.fusion)
    assert np.array_equal(back.smatrix, builtin.smatrix)
    assert np.array_equal(back.twists, builtin.twists)
    assert back.fsymbols == builtin.fsymbols
    assert back.rsymbols == builtin.rsymbols
    assert validate(back).passed


def test_fsymbols_read_like_the_dict_they_came_from():
    d = dict(ising().fsymbols)
    d[(2, 2, 0, 2, 2, 1)] = 0.5 - 2j
    symbols = FSymbols.from_mapping(d, 3)
    assert dict(symbols) == d and dict(symbols.items()) == d and symbols == d
    assert list(symbols) == sorted(d) and len(symbols) == len(d)
    assert symbols[(2, 2, 0, 2, 2, 1)] == 0.5 - 2j
    assert (1, 1, 1, 1, 1, 1) not in symbols and symbols.get((1, 1, 1, 1, 1, 1)) is None
    for key in [(0,) * 5, (0,) * 7, (3, 0, 0, 0, 0, 0), (-1, 0, 0, 0, 0, 0), "abcdef", 7]:
        assert key not in symbols
        with pytest.raises(KeyError):
            symbols[key]
    with pytest.raises(ValueError):
        symbols.entries[0] = 0
    assert not hasattr(symbols, "__setitem__")


def test_a_model_converts_a_dict_of_fsymbols_with_the_range_check():
    m = ising()
    assert dataclasses.replace(m, fsymbols=dict(m.fsymbols)).fsymbols == m.fsymbols
    for key in [(0, 0, 0, 0, 0, 3), (0, 0, -1, 0, 0, 0)]:
        with pytest.raises(ModelError, match=r"fsymbol key \(.*\) out of range"):
            dataclasses.replace(m, fsymbols={**m.fsymbols, key: 1.0})
    with pytest.raises(ModelError, match="six label indices"):
        dataclasses.replace(m, fsymbols={(0, 0, 0): 1.0})


def test_parse_keeps_the_last_value_of_a_repeated_fsymbol():
    doc = json.loads(serialize_model(ising()))
    first = doc["fsymbols"][0]
    doc["fsymbols"].append({**first, "re": 0.25, "im": -1.0})
    doc["fsymbols"].insert(0, {**first, "re": 9.0, "im": 9.0})
    m = parse_model(doc)
    key = tuple(first[x] for x in "abcdef")
    assert m.fsymbols[key] == 0.25 - 1j and len(m.fsymbols) == len(ising().fsymbols)


def test_serialize_deterministic(builtin):
    assert serialize_model(builtin) == serialize_model(builtin)


def test_parse_rejects_bad_json():
    with pytest.raises(ModelError):
        parse_model("{not json")
    with pytest.raises(ModelError):
        parse_model("[1, 2]")


def test_parse_rejects_missing_field():
    doc = json.loads(serialize_model(fibonacci()))
    del doc["twists"]
    with pytest.raises(ModelError, match="twists"):
        parse_model(doc)


def test_parse_rejects_repeated_fusion_triple():
    doc = json.loads(serialize_model(fibonacci()))
    doc["fusion"].append(doc["fusion"][0])
    with pytest.raises(ModelError, match="repeated"):
        parse_model(doc)


def test_parse_rejects_out_of_range():
    doc = json.loads(serialize_model(fibonacci()))
    doc["dual"] = [0, 5]
    with pytest.raises(ModelError):
        parse_model(doc)


def test_parse_rejects_bad_smatrix_shape():
    doc = json.loads(serialize_model(fibonacci()))
    doc["smatrix"] = doc["smatrix"][:-1]
    with pytest.raises(ModelError, match="smatrix"):
        parse_model(doc)


def test_validate_flags_corrupted_smatrix():
    m = fibonacci()
    bad = AnyonModel(
        name=m.name,
        labels=m.labels,
        dual=m.dual,
        fusion=m.fusion,
        smatrix=m.smatrix + 0.05,
        fsymbols=m.fsymbols,
        rsymbols=m.rsymbols,
        twists=m.twists,
    )
    rep = validate(bad)
    assert not rep.passed
    assert not rep.checks["smatrix_unitary"].passed


def test_validate_flags_corrupted_fusion():
    m = ising()
    fusion = m.fusion.copy()
    fusion[1, 1, 1] = 1  # psi x psi should only hold the vacuum
    bad = AnyonModel(
        name=m.name,
        labels=m.labels,
        dual=m.dual,
        fusion=fusion,
        smatrix=m.smatrix,
        fsymbols=m.fsymbols,
        rsymbols=m.rsymbols,
        twists=m.twists,
    )
    assert not validate(bad).passed


# ---------------------------------------------------------------------------
# F-block store against the per-boundary oracle

SMALL_MODEL_NAMES = [
    "fibonacci", "ising", "zn_toric:2", "zn_toric:3", "zn_toric:4", "dg_abelian:2,2"
]


def _served(fmove_block, boundary):
    """The block of a boundary, or the text of the ModelError raised for it."""
    try:
        return fmove_block(*boundary)
    except ModelError as exc:
        return str(exc)


def _assert_same_block(got, want):
    if isinstance(want, str):
        assert got == want
        return
    rows, cols, block = got
    assert (rows, cols) == want[:2]
    assert all(type(x) is int for x in rows + cols)
    assert block.shape == want[2].shape and block.dtype == np.complex128
    assert np.array_equal(block, want[2])


def _all_boundaries(model):
    return itertools.product(range(model.n_labels), repeat=4)


def _without_fsymbol(model, key):
    fsymbols = dict(model.fsymbols)
    del fsymbols[key]
    return dataclasses.replace(model, fsymbols=fsymbols)


@pytest.mark.parametrize("name", SMALL_MODEL_NAMES)
def test_fblock_store_matches_the_per_boundary_oracle(name):
    m = load_builtin(name)
    for boundary in _all_boundaries(m):
        _assert_same_block(m.fmove_block(*boundary), reference_fmove_block(m, *boundary))


def test_fblock_store_is_built_once_and_read_only():
    m = ising()
    store = m.fblocks
    assert m.fblocks is store
    _, _, block = m.fmove_block(2, 2, 2, 2)
    again = m.fmove_block(2, 2, 2, 2)[2]
    (stack,) = [stack for _, stack in store.stacks if stack.shape[1:] == (2, 2)]
    assert np.shares_memory(again, stack) and np.shares_memory(block, again)
    assert m.fblocks is store
    with pytest.raises(ValueError):
        block[0, 0] = 0
    rows, cols, empty = m.fmove_block(1, 1, 2, 0)  # psi x psi holds no sigma
    assert rows == () and cols == () and empty.shape == (0, 0)


@pytest.mark.parametrize(
    "name, key",
    [
        ("ising", (2, 2, 1, 2, 2, 0)),
        ("fibonacci", (1, 1, 0, 1, 1, 1)),
        ("zn_toric:3", (4, 5, 6, 4, 7, 2)),
    ],
)
def test_a_missing_fsymbol_fails_only_the_boundaries_that_read_it(name, key):
    m = load_builtin(name)
    assert key in m.fsymbols
    bad = _without_fsymbol(m, key)
    failed = []
    for boundary in _all_boundaries(bad):
        got = _served(bad.fmove_block, boundary)
        _assert_same_block(got, _served(functools.partial(reference_fmove_block, bad), boundary))
        if isinstance(got, str):
            assert "missing F-symbol" in got
            failed.append(boundary)
    i, j, _, k, l, _ = key
    assert failed == [(i, j, k, l)]


def test_a_model_with_a_missing_fsymbol_still_loads():
    doc = json.loads(serialize_model(ising()))
    doc["fsymbols"] = [
        e for e in doc["fsymbols"] if [e[x] for x in "abcdef"] != [2, 2, 1, 2, 2, 0]
    ]
    m = parse_model(doc)
    assert m.fmove_block(2, 1, 2, 1)[0] == (2,)
    with pytest.raises(ModelError, match="missing F-symbol"):
        m.fmove_block(2, 2, 2, 2)
    assert not validate(m).checks["fblocks_unitary"].passed


# ---------------------------------------------------------------------------
# validate's batched unitarity check against the per-boundary oracle


def _scaled_fibonacci():
    m = fibonacci()
    fsymbols = {
        key: val * 1.1 if (key[0], key[1], key[3], key[4]) == (1, 1, 1, 1) else val
        for key, val in m.fsymbols.items()
    }
    return dataclasses.replace(m, fsymbols=fsymbols)


def _corrupted_fusion_ising():
    m = ising()
    fusion = m.fusion.copy()
    fusion[1, 1, 1] = 1
    return dataclasses.replace(m, fusion=fusion)


def _completed_corrupted_fusion_ising(sigma_scale=1.0):
    """The corrupted fusion with every symbol it admits: non-square blocks."""
    model = _corrupted_fusion_ising()
    f = model.fusion
    fsymbols = {}
    for key in itertools.product(range(3), repeat=6):
        i, j, m, k, l, n = key
        if f[i, j, m] and f[m, l, k] and f[i, l, n] and f[j, n, k]:
            scale = sigma_scale if (i, j, k, l) == (2, 2, 2, 2) else 1.0
            fsymbols[key] = model.fsymbols.get(key, 1.0) * scale
    return dataclasses.replace(model, fsymbols=fsymbols)


def _nan_and_scaled_ising():
    m = ising()
    fsymbols = dict(m.fsymbols)
    fsymbols[(1, 2, 2, 1, 2, 2)] = complex("nan")
    fsymbols[(2, 2, 0, 2, 2, 0)] *= 2.0
    return dataclasses.replace(m, fsymbols=fsymbols)


BROKEN_MODELS = {
    "scaled fibonacci": _scaled_fibonacci,
    "corrupted-fusion ising": _corrupted_fusion_ising,
    "corrupted-fusion ising, all symbols": _completed_corrupted_fusion_ising,
    "corrupted-fusion ising, all symbols, scaled sigma block": functools.partial(
        _completed_corrupted_fusion_ising, 2.0
    ),
    "ising with a NaN symbol": _nan_and_scaled_ising,
    "ising without a symbol": lambda: _without_fsymbol(ising(), (2, 2, 1, 2, 2, 0)),
    "zn_toric:3 without a symbol": lambda: _without_fsymbol(zn_toric(3), (4, 5, 6, 4, 7, 2)),
}
PARITY_MODELS = {name: functools.partial(load_builtin, name) for name in SMALL_MODEL_NAMES}
PARITY_MODELS.update(BROKEN_MODELS)
# the builtins at the default bound, the broken models also at bounds that
# move the tie-breaks between block residuals, non-square blocks and tol
PARITY_CASES = [(name, 1e-9) for name in SMALL_MODEL_NAMES] + [
    (name, tol) for name in BROKEN_MODELS for tol in (0.0, 1e-9, 0.5, 10.0)
]


@pytest.mark.parametrize("name, tol", PARITY_CASES)
def test_fblocks_unitary_matches_the_per_boundary_walk(name, tol):
    m = PARITY_MODELS[name]()
    assert validate(m, tol=tol).checks["fblocks_unitary"] == reference_fblocks_unitary(m, tol)


@pytest.mark.parametrize("name", list(BROKEN_MODELS))
def test_broken_models_fail_the_fblock_check(name):
    assert not validate(BROKEN_MODELS[name]()).checks["fblocks_unitary"].passed


# ---------------------------------------------------------------------------
# validate's passes over the channel table against the dense and walk oracles


def _weighted_ising():
    """Ising with N^psi_{sigma sigma} = 2.  Its support is associative, but
    psi x (sigma x sigma) holds psi once and (psi x sigma) x sigma twice."""
    m = ising()
    fusion = m.fusion.copy()
    fusion[2, 2, 1] = 2
    return dataclasses.replace(m, fusion=fusion)


def _noncommutative_ising():
    """Ising with N^psi_{psi sigma} = 1 but N^psi_{sigma psi} = 0."""
    m = ising()
    fusion = m.fusion.copy()
    fusion[1, 2, 1] = 1
    return dataclasses.replace(m, fusion=fusion)


TABLE_MODELS = {
    name: functools.partial(load_builtin, name)
    for name in ["fibonacci", "ising", *(f"zn_toric:{k}" for k in range(2, 7)),
                 "dg_abelian:2,2", "dg_abelian:2,3"]
}
TABLE_MODELS.update({
    "fibonacci x ising": lambda: deligne_product(fibonacci(), ising()),
    "ising x ising": lambda: deligne_product(ising(), ising()),
    "corrupted-fusion ising": _corrupted_fusion_ising,
    "corrupted-fusion ising, all symbols": _completed_corrupted_fusion_ising,
    "ising with a coefficient 2": _weighted_ising,
    "noncommutative ising": _noncommutative_ising,
})
ORACLE_CHECKS = {
    "verlinde_matches_fusion": reference_verlinde_check,
    "fusion_axioms": lambda model, tol: reference_fusion_axioms(model),
    "rsymbols_ribbon": reference_rsymbols_ribbon,
}


@pytest.mark.parametrize("name", list(TABLE_MODELS))
def test_table_checks_match_their_oracles(name):
    """Each check's (passed, residual, detail) equals its oracle's, bit for
    bit, and so do the Verlinde coefficients."""
    m = TABLE_MODELS[name]()
    assert np.array_equal(verlinde_fusion(m), reference_verlinde_fusion(m))
    for tol in (0.0, 1e-9):
        checks = validate(m, tol=tol).checks
        for check, oracle in ORACLE_CHECKS.items():
            assert checks[check] == oracle(m, tol), check


def test_the_associativity_join_weights_its_paths():
    """The weighted path counts differ where the support's do not."""
    check = validate(_weighted_ising()).checks["fusion_axioms"]
    assert (check.passed, check.residual, check.detail) == (False, 1.0, "associativity")


def test_the_commutativity_residual_is_a_signed_difference():
    """N^psi_{psi sigma} - N^psi_{sigma psi} is 1, not the 255 of a uint8
    subtraction, in validate and in its oracle."""
    m = _noncommutative_ising()
    for check in (validate(m).checks["fusion_axioms"], reference_fusion_axioms(m)):
        assert (check.passed, check.residual) == (False, 1.0)
        assert check.detail.split(",")[0] == "commutativity"


def test_fusion_lookups_follow_the_tensor_in_a_bounded_memo():
    """The channel table is memoised on the fusion tensor's bytes: equal
    tensors share one table, a tensor changed in place gets a table of its
    own, and the memo forgets a table after four others."""
    m = ising()
    assert m.fusion_product(1, 1) == (0,)
    table = fusion_channels(m.fusion)
    assert fusion_channels(ising().fusion) is table
    m.fusion[1, 1, 1] = 1
    assert m.fusion_product(1, 1) == (0, 1)
    m.fusion[1, 1, 1] = 0
    assert fusion_channels(m.fusion) is table
    for k in range(1, 5):
        fusion_channels(np.zeros((k, k, k), dtype=np.uint8))
    assert fusion_channels(m.fusion) is not table


def test_the_build_and_the_block_store_share_one_layout():
    m = load_builtin("zn_toric:3")
    bounds, _, _, keys = fusion_channels(m.fusion).fblock_layout(Budget())
    assert m.fblocks.boundaries is bounds
    assert np.array_equal(np.sort(keys), m.fsymbols.codes)


def test_validate_zn_toric_5_in_under_a_second():
    m = load_builtin("zn_toric:5")
    start = time.perf_counter()
    rep = validate(m)
    assert rep.passed
    assert time.perf_counter() - start < 1.0
