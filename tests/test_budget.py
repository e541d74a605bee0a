"""One byte budget for every stage: out-of-reach inputs fail fast with an estimate.

Each case of the out-of-reach list runs as a fresh process under a 5 s
deadline, so a regression fails instead of hanging.  It must exit 0, or
exit 1 naming the refusing stage and its estimate on stderr, with the
child's own peak RSS (``ru_maxrss`` from ``os.wait4``) under 1 GB.
"""

import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest

from anyongates import (
    SearchBudgetError,
    abelian,
    budget,
    classify_punctured_sphere,
    classify_torus,
    load_builtin,
    models,
    sphere_surface,
    validate,
)
from anyongates.budget import Budget, chunk_rows

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
}


def _run(args):
    """Exit code, stderr and peak RSS in bytes of one child, killed past the deadline."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH")) if p
    )
    with tempfile.TemporaryFile() as err:
        child = subprocess.Popen(
            [sys.executable, *args], stdout=subprocess.DEVNULL, stderr=err, env=env
        )
        deadline = time.monotonic() + SECONDS
        while True:
            pid, status, usage = os.wait4(child.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                child.kill()
                child.wait()
                pytest.fail(f"still running after {SECONDS} s")
            time.sleep(0.01)
        child.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return child.returncode, err.read().decode(), usage.ru_maxrss * 1024


@pytest.mark.parametrize("case", sorted(CASES))
def test_out_of_reach_inputs_fail_fast_with_an_estimate(case):
    args, stage = CASES[case]
    code, err, rss = _run(args)
    assert rss < MAX_RSS
    assert code in (0, 1), err
    if code == 1:
        assert err.startswith(f"error: {stage}: "), err
        assert "bytes in all, above the budget of 1,073,741,824 bytes" in err


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


class _Passed(Exception):
    """Raised once the F-symbol charge of a build has passed."""


def test_abelian_builds_fit_the_budget_up_to_zn_toric_11(monkeypatch):
    """Z_n x Z_n has n^6 F-symbols, each charged with its two channels:
    zn_toric:11 passes the charge (957 MB) and builds, zn_toric:12
    (1.6 GB) is refused before its keys exist.  The zn_toric:11 build is
    stopped once its charge passes; built, it takes about 4 s."""
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


def test_validate_charges_the_associativity_arrays_before_building_them(monkeypatch):
    """validate's fusion associativity check holds two L^4 int64 arrays:
    past the budget it names them before any einsum runs (zn_toric:11's
    3.4 GB pair once died as a numpy MemoryError)."""
    model = load_builtin("zn_toric:3")
    assert validate(model).passed

    def no_einsum(*args, **kwargs):
        raise AssertionError("an associativity array was built")

    monkeypatch.setattr(budget, "BUDGET_BYTES", 100_000)
    monkeypatch.setattr(models.np, "einsum", no_einsum)
    with pytest.raises(
        SearchBudgetError, match=r"^fusion associativity: 6,561 x 16 bytes, 104,976 bytes in all"
    ):
        validate(model)


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
