"""Check the CLI's stdout bytes and exit codes against a committed table.

    python scripts/check_golden.py          # run the grid, exit 1 on a difference
    python scripts/check_golden.py --write  # record the table from this checkout

``tests/golden/cli_sha256.json`` maps each command of a fixed grid to its
exit code and the sha256 of its stdout.  Every command runs as a fresh
``python -m anyongates.cli`` process on this checkout's ``src``.  The tier-1
test ``tests/test_golden.py`` checks the fast part of the same table in
process; this script also runs the slow commands.  A command still running
after ``TIMEOUT_S`` seconds is killed and reported as a failed TIMEOUT row,
so a hung command cannot stall the run.

Independently of the recorded hashes, the stdout of every ``--format json``
command that exits 0 must equal ``json.dumps(json.loads(out),
sort_keys=True, indent=2)`` plus a newline: the standard encoder's text of
the same value.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "golden" / "cli_sha256.json"
TIMEOUT_S = 300.0

GRID = (
    [f"classify --model ising --surface sphere:sigma:{m} --format json"
     for m in (4, 6, 8, 10, 12, 14)]
    + [f"classify --model fibonacci --surface sphere:tau:{m} --format json"
       for m in (4, 7, 11)]
    + [f"classify --model {model} --surface torus --format json"
       for model in ("fibonacci", "ising", "zn_toric:2", "zn_toric:3", "zn_toric:4",
                     "zn_toric:5", "zn_toric:6", "dg_abelian:2,2")]
    + [
        "classify --model zn_toric:3 --surface torus --words s,st,stst --format json",
        "classify --model zn_toric:3 --surface torus --words stst,s,st --format json",
        "classify --model ising --surface sphere:sigma:8 --words s1s2 --format json",
        "classify --model ising --surface sphere:sigma:10 --words s2s3,s4s5' --format json",
        "classify --model ising --surface sphere:sigma:10 --words s1s2s3s4s5s6s7s8s9 "
        "--format json",
        "classify --model ising --surface sphere:sigma:8 --format text",
        "classify --model zn_toric:2 --surface torus --format text",
        "classify --model ising --surface torus --format text",
        "classify --model fibonacci --surface sphere:tau:7 --format text",
        "delta --model ising --surface sphere:sigma:8 --words s2 --format json",
        "delta --model ising --surface sphere:sigma:8 --words s2 --format text",
        "delta --model fibonacci --surface sphere:tau:7 --words s2,s3 --format json",
        "delta --model fibonacci --surface sphere:tau:7 --words s2,s3 --format text",
        "delta --model zn_toric:2 --surface torus --words s,st --format json",
        "delta --model zn_toric:2 --surface torus --words s,st,stst --format json",
        "delta --model ising --surface torus --words s,st --format json",
        "delta --model fibonacci --surface torus --words s,st --format json",
        "delta --model fibonacci --surface sphere:tau:8 --words s2 --format json",
        "delta --model ising --surface sphere:sigma:8 --words s2s4 --format json",
        "delta --model ising --surface sphere:sigma:10 --words s2 --format json",
        "delta --model zn_toric:4 --surface torus --words stst",
        "classify --model zn_toric:16 --surface torus",
        "classify --model ising --surface sphere:sigma:24",
        "delta --model ising --surface sphere:sigma:30 --words s2",
    ]
    + [f"validate --model {model} --format json"
       for model in ("fibonacci", "ising", "zn_toric:2", "zn_toric:3", "zn_toric:4",
                     "zn_toric:5", "dg_abelian:2,2")]
    + [f"lattice --qudit {q} --size {l} --format json"
       for q, l in ((4, 6), (2, 3), (5, 4), (3, 7), (12, 3))]
)


def run(command: str, timeout: float) -> tuple[int | None, bytes, float]:
    """Exit code, stdout and wall seconds of one CLI command; the exit code
    is None when the command ran past ``timeout`` seconds and was killed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "anyongates.cli", *command.split()],
            stdout=subprocess.PIPE, env=env, check=False, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        return None, exc.stdout or b"", time.perf_counter() - start
    return proc.returncode, proc.stdout, time.perf_counter() - start


def reencodes(command: str, rc: int, out: bytes) -> bool:
    """A JSON stdout is the standard encoder's sorted, indented text of itself."""
    if rc != 0 or not command.endswith("--format json"):
        return True
    text = out.decode()
    return text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="record the table instead of checking it")
    args = parser.parse_args(argv)
    want = {} if args.write else json.loads(TABLE.read_text())
    got = {}
    bad = 0
    for command in GRID:
        rc, out, seconds = run(command, TIMEOUT_S)
        got[command] = {"exit": rc, "sha256": hashlib.sha256(out).hexdigest()}
        same = rc is not None and reencodes(command, rc, out)
        ok = same and (args.write or want.get(command) == got[command])
        bad += not ok
        status = "ok " if ok else "TIMEOUT" if rc is None else "DIFF" if same else "JSON"
        print(f"{status} {seconds:6.2f}s  {command}", flush=True)
    if args.write and not bad:
        TABLE.parent.mkdir(parents=True, exist_ok=True)
        TABLE.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(got)} commands to {TABLE.relative_to(ROOT)}")
        return 0
    missing = sorted(set(want) - set(got))
    for command in missing:
        print(f"MISSING from the grid: {command}")
    print(f"{len(GRID) - bad} of {len(GRID)} commands match")
    return 1 if bad or missing else 0


if __name__ == "__main__":
    sys.exit(main())
