"""Command line entry points.

    anyongates validate --model ising
    anyongates classify --model fibonacci --surface torus
    anyongates classify --model ising --surface sphere:sigma:6 --format json
    anyongates delta --model fibonacci --surface torus --words s,st
    anyongates lattice --qudit 3 --size 4

Exit codes: 0 success, 1 domain failure (validation failed, infeasible
surface, no class surviving, a call over its byte budget), 2 usage or
input errors.  Structured output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .classify import classify
from .jsonwriter import DistinctRows, Rows, dumps
from .mcg import parse_word
from .models import AnyonModel, ModelError, load_builtin, parse_model, validate
from .solver import delta_set, intersect_delta
from .surfaces import SurfaceSpec, enumerate_labelings, sphere_surface, torus_surface
from .tolerances import DEFAULT_TOL, LATTICE_TOL, check_tol


class UsageError(Exception):
    pass


def _tolerance(text: str) -> float:
    """argparse type for --tol: a finite, non-negative number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    try:
        return check_tol(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load_model(spec: str) -> AnyonModel:
    path = Path(spec)
    if path.suffix == ".json" or path.is_file():
        try:
            return parse_model(path.read_text())
        except OSError as exc:
            raise UsageError(f"cannot read model file {spec!r}: {exc}") from exc
    return load_builtin(spec)


def _parse_surface(spec: str, model: AnyonModel) -> SurfaceSpec:
    if spec == "torus":
        return torus_surface()
    parts = spec.split(":")
    if len(parts) == 3 and parts[0] == "sphere":
        label, count = parts[1], parts[2]
        try:
            m = int(count)
        except ValueError:
            raise UsageError(f"puncture count {count!r} is not an integer")
        if m < 0:
            raise UsageError(f"puncture count {m} is negative")
        return sphere_surface(model, label, m)
    raise UsageError(
        f"bad surface {spec!r}; expected 'torus' or 'sphere:<label>:<M>'"
    )


def _split_words(arg: str | None, surface: SurfaceSpec) -> list[str] | None:
    if arg is None:
        return None
    words = [w.strip() for w in arg.split(",") if w.strip()]
    if not words:
        raise UsageError("empty word list")
    for word in words:
        try:
            tokens = parse_word(word, surface)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        if surface.kind == "torus":
            continue
        m = surface.punctures
        for sym, _ in tokens:  # sphere tokens are s<k>, sigma_k needs 1 <= k < M
            if not 1 <= int(sym[1:]) < m:
                raise UsageError(f"generator {sym} out of range for M={m}")
    return words


def _cmd_validate(args) -> int:
    model = _load_model(args.model)
    report = validate(model, tol=args.tol)
    if args.format == "json":
        payload = {
            "model": report.model_name,
            "passed": report.passed,
            "checks": {
                name: {
                    "passed": res.passed,
                    "residual": round(res.residual, 12),
                    "detail": res.detail,
                }
                for name, res in report.checks.items()
            },
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"model: {report.model_name}")
        for line in report.lines():
            print(line)
        print("result:", "pass" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _cmd_classify(args) -> int:
    model = _load_model(args.model)
    surface = _parse_surface(args.surface, model)
    words = _split_words(args.words, surface)
    report = classify(model, surface, words, tol=args.tol)
    print(report.to_json() if args.format == "json" else report.to_text())
    return 0


def _cmd_delta(args) -> int:
    model = _load_model(args.model)
    surface = _parse_surface(args.surface, model)
    words = _split_words(args.words, surface)
    if not words:
        raise UsageError("delta needs --words")
    if surface.kind != "torus" and len(set(surface.boundary_labels)) > 1:
        raise UsageError("delta supports equal-label spheres and the torus")
    basis = enumerate_labelings(model, surface)
    sets = [delta_set(model, surface, w, tol=args.tol, basis=basis) for w in words]
    inter = intersect_delta(sets)
    angles = np.angle(inter.instantiate_rows())
    free = inter.n_free
    if args.format == "json":
        phases = DistinctRows(inter.codes, angles)
        payload = {
            "model": model.name,
            "surface": surface.describe(model),
            "per_word": {w: len(s) for w, s in zip(words, sets)},
            "intersection": Rows(
                len(inter), {"perm": inter.perms, "phases": phases, "free_phases": free}
            ),
        }
        print(dumps(payload))
    else:
        print(f"model:   {model.name}")
        print(f"surface: {surface.describe(model)}")
        for w, s in zip(words, sets):
            print(f"word {w!r}: {len(s)} families")
        print(f"intersection: {len(inter)} families")
        texts = [",".join(map("{:.4f}".format, row)) for row in angles.tolist()]
        for perm, code in zip(inter.perms.tolist(), inter.codes.tolist()):
            print(f"  perm={perm} phases=[{texts[code]}] free={free}")
    return 0


def _cmd_lattice(args) -> int:
    from .abelian import lattice_commutation_check

    if args.qudit < 2:
        raise UsageError("--qudit must be at least 2")
    if args.size < 2:
        raise UsageError("--size must be at least 2")
    report = lattice_commutation_check(args.qudit, args.size, tol=args.tol)
    if args.format == "json":
        payload = dict(report)
        payload["max_mismatch"] = round(float(payload["max_mismatch"]), 12)
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"qudit dimension: {report['modulus']}")
        print(f"lattice size:    {report['lattice_size']}")
        print(f"pairs checked:   {report['pairs_checked']}")
        print(f"max mismatch:    {report['max_mismatch']:.3e}")
        print("result:", "pass" if report["passed"] else "FAIL")
    return 0 if report["passed"] else 1


COMMANDS = ("validate", "classify", "delta", "lattice")


@functools.cache  # one parser per command tuple and process, however often ``main`` runs
def build_parser(commands: tuple[str, ...]) -> argparse.ArgumentParser:
    """The parser of the subcommands ``commands``, a sub-tuple of ``COMMANDS``.

    A parser of fewer commands prints the same usage line as the full one:
    argparse reports an unrecognized option after a command with it.
    """
    parser = argparse.ArgumentParser(
        prog="anyongates",
        description="Anyon models, torus/sphere code spaces, and monomial "
        "logical gate classification.",
    )
    metavar = None if commands == COMMANDS else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    def common(p, surface=False, words=False):
        p.add_argument("--model", required=True,
                       help="builtin name (fibonacci, ising, zn_toric:N, "
                       "dg_abelian:N1,N2) or a JSON model file")
        if surface:
            p.add_argument("--surface", required=True,
                           help="'torus' or 'sphere:<label>:<M>'")
        if words:
            p.add_argument("--words", default=None,
                           help="comma-separated mapping class words")
        p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
        p.add_argument("--format", choices=("text", "json"), default="text")

    if "validate" in commands:
        p = sub.add_parser("validate", help="run consistency checks on a model")
        common(p)
        p.set_defaults(func=_cmd_validate)

    if "classify" in commands:
        p = sub.add_parser("classify", help="classify monomial logical gates")
        common(p, surface=True, words=True)
        p.set_defaults(func=_cmd_classify)

    if "delta" in commands:
        p = sub.add_parser("delta", help="solve word compatibility sets directly")
        common(p, surface=True, words=True)
        p.set_defaults(func=_cmd_delta)

    if "lattice" in commands:
        p = sub.add_parser("lattice", help="qudit lattice commutation cross-check")
        p.add_argument("--qudit", type=int, required=True, help="qudit dimension N")
        p.add_argument("--size", type=int, required=True, help="lattice side length L")
        p.add_argument("--tol", type=_tolerance, default=LATTICE_TOL)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=_cmd_lattice)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command line.  When its first argument names a command, only
    that command's parser is built; help, a missing or an unknown command
    get the parser of all four."""
    if argv is None:
        argv = sys.argv[1:]
    commands = (argv[0],) if argv and argv[0] in COMMANDS else COMMANDS
    return _run(build_parser(commands), argv)


def _run(parser: argparse.ArgumentParser, argv: list[str]) -> int:
    """Parse ``argv`` with ``parser`` and run the command it names."""
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ModelError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # every domain failure, a call over its budget too
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
