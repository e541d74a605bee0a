"""One byte budget for every stage: out-of-reach inputs fail fast with an estimate.

Each case of the reach list runs as a fresh process under a 5 s deadline,
so a regression fails instead of hanging.  It must exit as the list says,
0, or 1 naming the refusing stage and its estimate on stderr, with the
child's own peak RSS under 1 GB.  The child reports that peak itself, as
the ``VmHWM`` of its ``/proc/self/status`` at exit: exec starts it afresh,
whereas the ``ru_maxrss`` a parent reads from ``os.wait4`` carries over the
parent's own peak through fork and exec.
"""

import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest

import numpy as np

from anyongates import (
    SearchBudgetError,
    abelian,
    budget,
    classify_punctured_sphere,
    classify_torus,
    evaluate_word,
    load_builtin,
    models,
    solver,
    sphere_surface,
    validate,
)
from anyongates.budget import Budget, chunk_rows
from oracles import unpack_rows

ROOT = Path(__file__).resolve().parents[1]
SECONDS = 5.0
MAX_RSS = 1 << 30

# the ising x ising x ising torus, built with the test oracles' Deligne product
CUBE = """
import sys
from anyongates import SearchBudgetError, classify_torus, load_builtin
from oracles import deligne_product
ising = load_builtin("ising")
try:
    report = classify_torus(deligne_product(deligne_product(ising, ising), ising))
except SearchBudgetError as exc:
    sys.exit(f"error: {exc}")
print(report.verdict)
"""

CASES = {
    "delta zn_toric:4 torus stst": (
        ["-m", "anyongates.cli", "delta", "--model", "zn_toric:4", "--surface", "torus",
         "--words", "stst"], "matching frontier"),
    "classify zn_toric:16 torus": (
        ["-m", "anyongates.cli", "classify", "--model", "zn_toric:16", "--surface", "torus"],
        "F-block channels"),
    # 64 labels: 64^6 choices of images for the six generators of Z_2^6
    "classify dg_abelian:2,2,2 torus": (
        ["-m", "anyongates.cli", "classify", "--model", "dg_abelian:2,2,2", "--surface",
         "torus"], "automorphism choices"),
    # 4,096 labels: the abelian double's 64 GiB fusion tensor and its label-pair arrays
    "classify zn_toric:64 torus": (
        ["-m", "anyongates.cli", "classify", "--model", "zn_toric:64", "--surface", "torus"],
        "label pairs"),
    "lattice qudit 64 size 3": (
        ["-m", "anyongates.cli", "lattice", "--qudit", "64", "--size", "3"],
        "commutation phases"),
    "classify ising sphere:sigma:24": (
        ["-m", "anyongates.cli", "classify", "--model", "ising", "--surface", "sphere:sigma:24"],
        "classes"),
    "delta ising sphere:sigma:30 s2": (
        ["-m", "anyongates.cli", "delta", "--model", "ising", "--surface", "sphere:sigma:30",
         "--words", "s2"], "word matrix"),
    # 2^13 rows: evaluating s2 holds four 1 GiB matrices, where one alone would fit
    "delta ising sphere:sigma:28 s2": (
        ["-m", "anyongates.cli", "delta", "--model", "ising", "--surface", "sphere:sigma:28",
         "--words", "s2"], "word matrix"),
    "ising x ising x ising torus": (["-c", CUBE], "matching frontier"),
    # dimension 13: 23,040 wildcard perm_in prefixes on packed rows
    "delta fibonacci sphere:tau:8 s2": (
        ["-m", "anyongates.cli", "delta", "--model", "fibonacci", "--surface", "sphere:tau:8",
         "--words", "s2"], None),
    # dimension 610: one identity candidate, searched through a projection window
    "classify fibonacci sphere:tau:16": (
        ["-m", "anyongates.cli", "classify", "--model", "fibonacci", "--surface",
         "sphere:tau:16"], None),
    # dimension 987: the word matrix and its search row leave no room for the check
    "classify fibonacci sphere:tau:17": (
        ["-m", "anyongates.cli", "classify", "--model", "fibonacci", "--surface",
         "sphere:tau:17"], "unitarity check"),
}


# Runs "-m module args..." or "-c code args..." as __main__ after writing, at
# exit, the VmHWM line of the process's own status to the file named first.
PEAK_REPORTER = """
import atexit, runpy, sys

def report(path=sys.argv[1]):
    with open("/proc/self/status") as status, open(path, "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")))

atexit.register(report)
mode, target, *rest = sys.argv[2:]
if mode == "-m":
    sys.argv = [target, *rest]
    runpy.run_module(target, run_name="__main__", alter_sys=True)
else:
    sys.argv = ["-c", *rest]
    exec(compile(target, "<string>", "exec"), {"__name__": "__main__"})
"""


def _run(args):
    """Exit code, stderr and own peak RSS in bytes of one child, killed past
    the deadline."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH")) if p
    )
    with tempfile.TemporaryFile() as err, tempfile.TemporaryDirectory() as tmp:
        peak = Path(tmp) / "peak"
        child = subprocess.Popen(
            [sys.executable, "-c", PEAK_REPORTER, str(peak), *args],
            stdout=subprocess.DEVNULL, stderr=err, env=env,
        )
        try:
            code = child.wait(timeout=SECONDS)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            pytest.fail(f"still running after {SECONDS} s")
        err.seek(0)
        name, kib, unit = peak.read_text().split()
        assert (name, unit) == ("VmHWM:", "kB")
        return code, err.read().decode(), int(kib) * 1024


@pytest.mark.parametrize("case", sorted(CASES))
def test_out_of_reach_inputs_fail_fast_with_an_estimate(case):
    args, stage = CASES[case]
    code, err, rss = _run(args)
    assert rss < MAX_RSS
    if stage is None:
        assert (code, err) == (0, "")
    else:
        assert code == 1, err
        assert err.startswith(f"error: {stage}: "), err
        assert "bytes in all, above the budget of 1,073,741,824 bytes" in err


def test_a_child_reports_its_own_peak_not_its_parents():
    """A child that holds 64 MB reports more than that, and one that holds
    nothing reports far less than the 256 MB this process holds meanwhile."""
    ballast = b"x" * (256 << 20)
    code, err, rss = _run(["-c", "import sys; held = b'x' * (64 << 20); sys.exit(1)"])
    assert (code, err) == (1, "") and rss > 64 << 20
    code, err, rss = _run(["-c", "pass"])
    assert (code, err) == (0, "") and rss < 64 << 20
    assert len(ballast) == 256 << 20


def test_one_message_names_stage_count_total_and_budget():
    spent = Budget()
    spent.charge("first", 3, 1 << 20)
    with pytest.raises(SearchBudgetError) as err:
        spent.charge("second", 1023, 1 << 20)
    assert str(err.value) == (
        "second: 1,023 x 1,048,576 bytes, 1,075,838,976 bytes in all, above the "
        "budget of 1,073,741,824 bytes; this input is out of reach"
    )
    assert isinstance(err.value, ValueError)


def test_chunks_take_a_thousandth_of_the_budget():
    assert chunk_rows(8) == 1 << 17
    assert chunk_rows(0) == 1 << 20
    assert chunk_rows(1 << 30) == 1


def test_model_build_is_refused_before_the_layout_allocates():
    """zn_toric:16 has 2^24 row and 2^24 column channels: the build names
    them, counted from the fusion tensor's sums, before it lists the fusion
    triples or joins them."""
    tracemalloc.start()
    try:
        with pytest.raises(SearchBudgetError, match=r"^F-block channels: 33,554,432 x 64 bytes"):
            load_builtin("zn_toric:16")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_block_store_charges_its_own_budget(monkeypatch):
    """The F-block store is a build of its own: a budget that fits the
    model's F dict may refuse its blocks, and the error names the stage."""
    model = load_builtin("zn_toric:3")
    monkeypatch.setattr(budget, "BUDGET_BYTES", 400_000)
    with pytest.raises(SearchBudgetError, match=r"^F-blocks: 729 x 400 bytes, 685,260 bytes "):
        models.FBlockStore(model)
    monkeypatch.setattr(budget, "BUDGET_BYTES", 200_000)
    with pytest.raises(SearchBudgetError, match=r"^F-symbols: 729 x 412 bytes, "):
        load_builtin("zn_toric:3")


def test_sphere_classes_fit_the_budget_up_to_sigma_16():
    """Ising sphere:sigma:16 classifies: 4^7 classes of 2^7 entries at 64
    bytes each, half the budget.  sphere:sigma:18 has 4^8 classes of 2^8
    entries, the whole budget, and is refused at its classes (it took
    12 s and 1.3 GB when it ran)."""
    ising = load_builtin("ising")
    report = classify_punctured_sphere(ising, sphere_surface(ising, "sigma", 16))
    assert (report.verdict, report.n_classes) == ("pauli_group", 4**7)
    with pytest.raises(SearchBudgetError, match=r"^classes: 65,536 x 16,384 bytes, "):
        classify_punctured_sphere(ising, sphere_surface(ising, "sigma", 18))


def test_explicit_candidates_stay_within_their_charge():
    """The identity candidate on a fibonacci sphere:tau:13 word (dimension
    144) charges n^3 bytes, and its compat is found within them: the dense
    comparison it replaced held 16 n^3."""
    fib = load_builtin("fibonacci")
    v = evaluate_word(fib, sphere_surface(fib, "tau", 13), "s5s6").matrix
    absv = np.abs(v)
    n = len(absv)
    spent = Budget()
    tracemalloc.start()
    try:
        blocks = list(solver._perm_in_blocks(absv, [tuple(range(n))], 1e-9, spent))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spent.spent == n**3
    assert peak <= spent.spent
    assert unpack_rows(blocks[0][1][0], n).diagonal().all()


class _Passed(Exception):
    """Raised once the F-symbol charge of a build has passed."""


def test_abelian_builds_fit_the_budget_up_to_zn_toric_11(monkeypatch):
    """Z_n x Z_n has n^6 F-symbols, each charged with its two channels:
    zn_toric:11 passes the charge (957 MB) and builds, zn_toric:12
    (1.6 GB) is refused before its keys exist.  The zn_toric:11 build is
    stopped once its charge passes; built, it takes about 1 s."""
    charge = Budget.charge

    def charge_then_stop(self, stage, count, nbytes):
        charge(self, stage, count, nbytes)
        if stage == "F-symbols":
            raise _Passed(self.spent)

    monkeypatch.setattr(Budget, "charge", charge_then_stop)
    with pytest.raises(_Passed) as passed:
        load_builtin("zn_toric:11")
    assert passed.value.args == (11**6 * (2 * 64 + 412),)
    with pytest.raises(SearchBudgetError, match=r"^F-symbols: 2,985,984 x 412 bytes, 1,612,"):
        load_builtin("zn_toric:12")


def test_abelian_doubles_charge_their_dense_arrays_before_building_them(monkeypatch):
    """An abelian double charges its label-pair arrays (464 bytes per pair
    of zn_toric's 9 labels) and its fusion tensor (two bytes per entry, the
    tensor and the bytes its channel table is keyed on) to a budget of its
    own, before the first array exists."""
    def no_arrays(*args, **kwargs):
        raise AssertionError("an array was built")

    monkeypatch.setattr(np, "indices", no_arrays)
    monkeypatch.setattr(budget, "BUDGET_BYTES", 81 * 464 + 729 * 2 - 1)
    with pytest.raises(
        SearchBudgetError, match=r"^fusion tensor: 729 x 2 bytes, 39,042 bytes in all"
    ):
        load_builtin("zn_toric:3")
    monkeypatch.setattr(budget, "BUDGET_BYTES", 81 * 464 - 1)
    with pytest.raises(SearchBudgetError, match=r"^label pairs: 81 x 464 bytes, 37,584 bytes"):
        load_builtin("zn_toric:3")
    # dg_abelian:2,2 has four coordinates per label
    with pytest.raises(SearchBudgetError, match=r"^label pairs: 256 x 528 bytes"):
        load_builtin("dg_abelian:2,2")


def test_validate_charges_the_associativity_arrays_before_building_them(monkeypatch):
    """validate's fusion associativity check joins the channel table with
    itself: past the budget it names the fusion paths, counted from the
    table, before any join runs.  zn_toric:3 has 1,458 paths, 729 per
    side; the dense check it replaced held two L^4 int64 arrays, and
    zn_toric:11's 3.4 GB pair once died as a numpy MemoryError."""
    model = load_builtin("zn_toric:3")
    assert validate(model).passed

    def no_join(*args, **kwargs):
        raise AssertionError("the fusion paths were joined")

    monkeypatch.setattr(budget, "BUDGET_BYTES", 90_000)
    monkeypatch.setattr(models, "_join", no_join)
    with pytest.raises(
        SearchBudgetError, match=r"^fusion associativity: 1,458 x 64 bytes, 93,312 bytes in all"
    ):
        validate(model)


def test_validate_zn_toric_10_passes_within_the_budget():
    """The associativity join keeps validate linear in the channel paths:
    zn_toric:10 (100 labels) passes as a fresh process, where the dense
    check was refused at its 1.6 GB of L^4 arrays."""
    code, err, rss = _run(["-m", "anyongates.cli", "validate", "--model", "zn_toric:10"])
    assert (code, err) == (0, "")
    assert rss < MAX_RSS


def test_affine_retry_charges_its_maps_before_listing_them(monkeypatch):
    """A torus word outside the closed form whose wildcard search is refused
    is searched again on the affine maps; those maps are charged, as the
    closed form charges them, before ``affine_permutations`` lists them."""
    model = load_builtin("zn_toric:3")

    def unlisted(model):
        raise AssertionError("the affine maps were listed")

    monkeypatch.setattr(budget, "BUDGET_BYTES", 50_000)
    monkeypatch.setattr(abelian, "affine_permutations", unlisted)
    with pytest.raises(SearchBudgetError, match=r"^affine maps: 432 x 144 bytes, 62,208 bytes in all"):
        classify_torus(model, ["stst"])


def test_automorphism_choices_are_charged_before_they_are_listed(monkeypatch):
    """The listing of the automorphisms charges a budget of its own for
    every choice of generator images, 81 for zn_toric:3, before the first
    choice exists."""
    def unlisted(*args, **kwargs):
        raise AssertionError("the choices were listed")

    model = load_builtin("zn_toric:3")
    abelian.group_coordinates(model)  # its own enumeration of the group
    abelian._automorphisms.cache_clear()
    try:
        monkeypatch.setattr(budget, "BUDGET_BYTES", 81 * 360 - 1)
        monkeypatch.setattr(abelian.itertools, "product", unlisted)
        with pytest.raises(
            SearchBudgetError, match=r"^automorphism choices: 81 x 360 bytes, 29,160 bytes in all"
        ):
            abelian.automorphisms(model)
    finally:
        abelian._automorphisms.cache_clear()
