#!/usr/bin/env python3
"""Benchmark of the anyongates command line on three fixed workloads.

    python3 perfbench/run.py --workload sphere_classify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One operation is one call of ``anyongates.cli.main(argv)`` with
its output captured: the console script's code path without interpreter
start-up, loading the model afresh as every CLI call does.  Operations run
in a closed loop from one client.  Each pass runs the workload's fixed case
list in an order shuffled by ``--seed``; the seed changes nothing else.
Every output is checked (see ``cases.py``).

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median time of a
fresh interpreter to ``import anyongates.cli``), ``wall_s`` (median pass),
``peak_rss_mb`` and ``fail_ratio``.  Times are scaled to a reference machine
speed (see ``SpeedGauge``).  ``--trace 1`` alternates untraced and
traced passes and prints the per-layer metrics from the traced ones (see
``tracer.py``), the import-time breakdown and the tracing overhead.

The last line of standard output is the result as one JSON object.  The
environment, per-case timings and failures go to
``perfbench/out/<workload>-trace<0|1>.json``; the spans of a traced run go to
``perfbench/out/<workload>-spans.npz``.
"""

import os

# BLAS/OpenMP thread pools change the timings, so they are fixed before
# numpy is imported here or in any child interpreter.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from cases import WORKLOADS, prepare  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 60

# Per-layer metrics: name -> (unit, better, source).  The source is a key
# of the per-pass row (span totals, hook counts, output bytes) or a function
# of that row.  Every metric with unit "s" is a median over traced passes;
# every other one must repeat exactly from pass to pass.


def _ratio(num, den):
    return lambda row: row.get(num, 0) / row[den] if row.get(den) else 0.0


def _layer_self(layer):
    prefix = layer + "."
    return lambda row: sum(v for k, v in row.items()
                           if k.startswith(prefix) and k.endswith(".self_s"))


PER_LAYER = {
    **{f"{layer}.self_s": ("s", "lower", _layer_self(layer)) for layer in LAYERS},
    "cli.output_bytes": ("bytes", "lower", "cli.output_bytes"),
    "models.load_builtin.s": ("s", "lower", None),
    "models.validate.s": ("s", "lower", None),
    "models.fmove_block.calls": ("count", "lower", None),
    "surfaces.enumerate_labelings.calls": ("count", "lower", None),
    "surfaces.enumerate_labelings.s": ("s", "lower", None),
    "surfaces.enumerate_labelings.repeat_share": (
        "ratio", "lower",
        _ratio("surfaces.enumerate_labelings.repeats", "surfaces.enumerate_labelings.calls")),
    "surfaces.cut_dimensions.s": ("s", "lower", None),
    "mcg.evaluate_word.calls": ("count", "lower", None),
    "mcg.evaluate_word.s": ("s", "lower", None),
    "mcg.evaluate_word.mbytes": (
        "MB", "lower", lambda row: row.get("mcg.evaluate_word.bytes", 0) / 1e6),
    "mcg.braid_generator.calls": ("count", "lower", None),
    "solver.solve_intertwiner.calls": ("count", "lower", None),
    "solver.solve_intertwiner.self_s": ("s", "lower", None),
    "solver.solve_intertwiner.candidates": ("count", "lower", None),
    "solver.solve_intertwiner.solutions": ("count", "higher", None),
    "solver.solve_intertwiner.yield": (
        "ratio", "higher",
        _ratio("solver.solve_intertwiner.solutions", "solver.solve_intertwiner.candidates")),
    "solver.delta_set.s": ("s", "lower", None),
    "solver.intersect_delta.s": ("s", "lower", None),
    "solver.coset_intersect.calls": ("count", "lower", None),
    "solver.coset_intersect.kept": ("count", "higher", None),
    "solver.coset_intersect.keep_ratio": (
        "ratio", "higher",
        _ratio("solver.coset_intersect.kept", "solver.coset_intersect.calls")),
    "solver.is_monomial.calls": ("count", "lower", None),
    "solver.is_monomial.s": ("s", "lower", None),
    "kernels.scan_column_perms.s": ("s", "lower", None),
    "kernels.scan_column_perms.perms": ("count", "lower", None),
    "kernels.scan_column_perms.ops": ("computed_ops", "lower", None),
    "kernels.scan_column_perms.no_match": ("count", "lower", None),
    "kernels.scan_column_perms.unique": ("count", "higher", None),
    "kernels.scan_column_perms.ambiguous": ("count", "lower", None),
    "kernels.enumerate_matchings.calls": ("count", "lower", None),
    "kernels.enumerate_matchings.matchings": ("count", "lower", None),
    "classify.classify.s": ("s", "lower", None),
    "classify.candidates": ("count", "lower", None),
    "classify.classes": ("count", "higher", None),
    "classify.survive_ratio": (
        "ratio", "higher", _ratio("classify.candidate_classes", "classify.candidates")),
    "classify.iso_phase_set.calls": ("count", "lower", None),
    "classify.iso_phase_set.s": ("s", "lower", None),
    "classify.to_json.s": ("s", "lower", None),
    "classify.clifford_star_checked": ("count", "higher", None),
    "abelian.torus_word_families.s": ("s", "lower", None),
    "abelian.torus_word_families.families": ("count", "lower", None),
    "abelian.clifford_star_membership.calls": ("count", "lower", None),
    "abelian.clifford_star_membership.s": ("s", "lower", None),
    "abelian.lattice_commutation_check.s": ("s", "lower", None),
    "import.anyongates_s": ("s", "lower", None),
    "import.scipy_optimize_s": ("s", "lower", None),
    "trace.untraced_wall_s": ("s", "lower", None),
    "trace.traced_wall_s": ("s", "lower", None),
    "trace.overhead_s": ("s", "lower", None),
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
}


# ---------------------------------------------------------------------------
# Machine speed

# A shared machine can run at two thirds of its speed for tens of seconds at
# a time, which moves every timing of a run together by up to 40%.  So a
# fixed piece of reference work that never touches anyongates is timed
# before and after every measured operation, and the operation's time is
# scaled by REFERENCE_S over the mean of those two reference times.
# REFERENCE_S is the reference work's time on a 2-core Xeon VM in its fast
# state, so scaled times read as seconds on that machine.  Unscaled times go
# to the result file.
REFERENCE_S = 0.020
_REF_MATS = np.random.default_rng(0).random((300, 8, 8))


def reference_seconds():
    """Time one fixed mix of interpreter work and small numpy products."""
    t0 = time.perf_counter()
    table = {}
    for i in range(50000):
        key = (i % 613, i % 11)
        table[key] = table.get(key, 0) + i
    for _ in range(8):
        m = _REF_MATS @ _REF_MATS
        float(np.abs(m[:, :, None, :] - m[:, None, :, :]).sum())
    return time.perf_counter() - t0


class SpeedGauge:
    """Scale factors to the reference speed, one per measured interval."""

    def __init__(self):
        self._last = reference_seconds()

    def factor(self) -> float:
        """Factor for the interval since the previous call (or construction)."""
        now = reference_seconds()
        factor = REFERENCE_S / (0.5 * (self._last + now))
        self._last = now
        return factor


# ---------------------------------------------------------------------------
# Environment and fresh interpreters


def git_commit():
    """Commit of the checkout, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment():
    import scipy

    kernels = sys.modules.get("anyongates._kernels")
    numba = getattr(kernels, "HAVE_NUMBA", None)
    if numba is None:
        numba = importlib.util.find_spec("numba") is not None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_importable": bool(numba),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_omp_threads": BLAS_THREADS,
        "git_commit": git_commit(),
    }


def fresh_python(flags, code):
    """Run code in a new interpreter that imports the package from src/."""
    prefix = f"import sys; sys.path.insert(0, {str(SRC)!r}); "
    return subprocess.run(
        [sys.executable, *flags, "-c", prefix + code],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )


def setup_seconds():
    """Median time for a fresh interpreter to import anyongates.cli: scaled, unscaled.

    The first import compiles bytecode, as only a first install does, so it
    is run once untimed.
    """
    code = ("import time; t0 = time.perf_counter(); import anyongates.cli; "
            "print(time.perf_counter() - t0)")
    fresh_python([], code)
    gauge = SpeedGauge()
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        raw.append(float(fresh_python([], code).stdout))
        scaled.append(raw[-1] * gauge.factor())
    return statistics.median(scaled), statistics.median(raw)


def import_breakdown():
    """Median cumulative import times from ``-X importtime``, scaled seconds."""
    samples = []
    gauge = SpeedGauge()
    for _ in range(IMPORTTIME_SAMPLES):
        cumulative = {}
        err = fresh_python(["-X", "importtime"], "import anyongates.cli").stderr
        factor = gauge.factor()
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6 * factor)
        samples.append(cumulative)
    modules = set().union(*samples)
    median = {m: statistics.median(s.get(m, 0.0) for s in samples) for m in modules}
    return dict(sorted(median.items(), key=lambda kv: -kv[1]))


# ---------------------------------------------------------------------------
# Operations and passes


class Runner:
    """Runs passes over the case list and checks every output."""

    def __init__(self, cli, cases, seed):
        self.cli = cli
        self.cases = cases
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = {}
        self.case_times = {c.label: [] for c in cases}
        # Memoised functions of the package.  A CLI call starts with them
        # empty, so they are emptied before every operation.
        self.cache_clears = list({
            id(obj): obj.cache_clear
            for name, mod in list(sys.modules.items())
            if name == "anyongates" or name.startswith("anyongates.")
            for obj in vars(mod).values()
            if callable(getattr(obj, "cache_clear", None))
        }.values())

    def order(self):
        order = list(self.cases)
        self.rng.shuffle(order)
        return order

    def run_pass(self, order, tracer=None):
        """Run every case once.

        Returns the seconds spent in cli.main, the same scaled to the
        reference machine speed, and the bytes written to stdout.
        """
        if tracer is not None:
            tracer.begin_pass()
        total = scaled = 0.0
        out_bytes = 0
        gauge = SpeedGauge()
        for case in order:
            if tracer is not None:
                tracer.begin_op()
            for clear in self.cache_clears:
                clear()
            gc.collect()
            out, err = io.StringIO(), io.StringIO()
            problem = None
            rc = None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.cli.main(list(case.argv))
            except (Exception, SystemExit) as exc:  # a crash is a failed operation
                problem = f"raised {exc!r}"
            dt = time.perf_counter() - t0
            factor = gauge.factor()
            total += dt
            scaled += dt * factor
            if tracer is not None:
                tracer.op_scale.append(factor)
            if tracer is None:
                self.case_times[case.label].append(dt)
            text = out.getvalue()
            out_bytes += len(text.encode())
            self.attempted += 1
            if problem is None:
                problem = case.check(case, rc, text)
            if problem is None:
                digest = hashlib.sha256(text.encode()).hexdigest()
                if self.digests.setdefault(case.label, digest) != digest:
                    problem = "output differs from the first pass"
            if problem is not None:
                self.failed += 1
                self.failures.append({"case": case.label, "problem": problem,
                                      "stderr": err.getvalue()[-500:]})
                print(f"FAILED {case.label}: {problem}", file=sys.stderr)
        return total, scaled, out_bytes


def loop(seconds, unit):
    """Call unit() until the next call would end after ``seconds``; at least once."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        unit()
        now = time.perf_counter()
        if (now - start) + (now - t0) > seconds:
            return


def measure_end_to_end(runner, seconds):
    setup, setup_raw = setup_seconds()
    raw, walls = [], []

    def one_pass():
        seconds_raw, seconds_scaled, _ = runner.run_pass(runner.order())
        raw.append(seconds_raw)
        walls.append(seconds_scaled)

    loop(seconds, one_pass)
    passes = len(walls)
    # Jeffreys estimate of the per-operation failure probability: failed
    # operations per pass plus one half, over operations per pass plus one.
    # It is never 0, and it does not depend on how many passes fit the run.
    fail_ratio = (runner.failed / passes + 0.5) / (len(runner.cases) + 1)
    metrics = {
        "setup_s": setup,
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_ratio": fail_ratio,
    }
    return metrics, {"pass_wall_s": walls, "pass_unscaled_s": raw, "setup_unscaled_s": setup_raw}


def measure_per_layer(runner, seconds, workload):
    imports = import_breakdown()
    tracer = Tracer()
    untraced, traced, out_bytes = [], [], []

    def traced_pass(order):
        tracer.install()
        try:
            _, wall, nbytes = runner.run_pass(order, tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        out_bytes.append(nbytes)

    def pair():
        # Same order for both passes; which runs first alternates, so warm-up
        # effects do not all land on one side of the overhead.
        order = runner.order()
        untraced_first = len(untraced) % 2 == 0
        if not untraced_first:
            traced_pass(order)
        untraced.append(runner.run_pass(order)[1])
        if untraced_first:
            traced_pass(order)

    loop(seconds, pair)
    per_run = {
        "import.anyongates_s": imports.get("anyongates.cli", 0.0),
        "import.scipy_optimize_s": imports.get("scipy.optimize", 0.0),
        "trace.untraced_wall_s": statistics.median(untraced),
        "trace.traced_wall_s": statistics.median(traced),
    }
    per_run["trace.overhead_s"] = per_run["trace.traced_wall_s"] - per_run["trace.untraced_wall_s"]
    rows = tracer.pass_totals()
    for row, count, nbytes in zip(rows, tracer.counts, out_bytes):
        row.update(count, **per_run)
        row["cli.output_bytes"] = nbytes
    metrics, unsteady = {}, []
    for name, (unit, _, source) in PER_LAYER.items():
        if source is None:
            source = name
        values = [source(r) if callable(source) else r.get(source, 0) for r in rows]
        if unit == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                unsteady.append(name)
    OUT.mkdir(exist_ok=True)
    np.savez_compressed(OUT / f"{workload}-spans.npz", names=np.array(tracer.names),
                        **tracer.spans())
    extra = {
        "untraced_pass_wall_s": untraced,
        "traced_pass_wall_s": traced,
        "counts_not_repeating": unsteady,
        "missing_targets": tracer.missing,
        "import_breakdown_s": {m: t for m, t in imports.items() if t >= 0.02},
    }
    return metrics, extra


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "anyongates" / "cli.py").is_file():
        print(f"error: no anyongates sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from anyongates import cli

    if Path(cli.__file__).resolve().parent != SRC / "anyongates":
        print(f"error: imported anyongates from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    cases = WORKLOADS[args.workload]()
    for case in cases:
        prepare(case)
    runner = Runner(cli, cases, args.seed)
    if args.trace:
        metrics, extra = measure_per_layer(runner, args.seconds, args.workload)
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
    else:
        metrics, extra = measure_end_to_end(runner, args.seconds)
        units = END_TO_END

    env = environment()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "metrics": metrics,
        "case_s": runner.case_times,
        **extra,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")

    print("environment: " + json.dumps(env, sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
