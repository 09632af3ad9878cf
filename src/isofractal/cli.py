"""Command-line front end: construction, verification, decomposition, points.

Subcommands
-----------
fractal    emit one member of the recursive matrix family
incidence  emit an incidence (containment) matrix
plucker    emit the linear-system coefficient matrix
decompose  emit the block-structure report as JSON
points     enumerate rational points, write them plus a JSON summary
verify     run an invariant suite and report pass/fail as JSON

All file outputs are written atomically (temp file plus rename).  Matrix and
report artifacts are byte-for-byte deterministic; only the points summary
carries an elapsed-time field.  ``--budget`` on ``points`` bounds the
enumeration work (default ``DEFAULT_BUDGET``; below 1 it is a usage error,
exit 2, raised by the routes themselves).  A failed internal
check inside ``verify`` is a failed report entry; elsewhere it ends the
command with exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile
import time

from .bitmatrix import FORMATS, MATRIXMARKET_HEADER, serialize
from .fractal import fractal_matrix, verify_fractal
from .gf import PrimeField
from .incidence import incidence_matrix, verify_configuration, verify_incidence_fractal_match
from .plucker import contraction, decompose, plucker_matrix
from .variety import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    expected_count,
    oracle_points,
    rational_points,
)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    if os.path.exists(path) and not os.path.isfile(path):
        # devices, fifos: renaming over them would destroy them
        with open(path, "w") as handle:
            handle.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".isofractal-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _cmd_fractal(args: argparse.Namespace) -> int:
    matrix = fractal_matrix(args.k, args.ell)
    _write_text(args.out, serialize(matrix, args.format))
    return 0


def _cmd_incidence(args: argparse.Namespace) -> int:
    matrix = incidence_matrix(args.n, args.k)
    _write_text(args.out, serialize(matrix, args.format))
    return 0


def _cmd_plucker(args: argparse.Namespace) -> int:
    pm = plucker_matrix(args.n, args.k, signed=args.signed)
    if args.signed:
        if args.format != "matrixmarket":
            raise ValueError("--signed output needs --format matrixmarket")
        rows = pm.signed_rows
        lines = [MATRIXMARKET_HEADER,
                 f"{len(rows)} {len(pm.col_labels)} {sum(map(len, rows))}"]
        lines.extend(f"{i} {j + 1} {sign}" for i, row in enumerate(rows, 1) for j, sign in row)
        _write_text(args.out, "\n".join(lines) + "\n")
    else:
        _write_text(args.out, serialize(pm.support, args.format))
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    report = decompose(args.n, args.k)
    _write_text(args.out, _json_text(report.to_json_dict()))
    return 0


def _cmd_points(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    result = rational_points(args.n, args.k, args.q, budget=args.budget)
    elapsed = time.perf_counter() - started
    expected = expected_count(args.n, args.k, args.q)
    summary = {
        "count": result.count,
        "expected": expected,
        "match": result.count == expected,
        "elapsed": round(elapsed, 6),
    }
    if args.oracle:
        oracle = oracle_points(args.n, args.k, args.q, budget=args.budget)
        agree = oracle.points == result.points
        summary["oracle"] = {"count": oracle.count, "match": agree}
        summary["match"] = summary["match"] and agree
    lines = [" ".join(str(v) for v in point) for point in sorted(result.points)]
    _write_text(args.out, "\n".join(lines) + ("\n" if lines else ""))
    _write_text(args.summary_out, _json_text(summary))
    return 0 if summary["match"] else 1


def _suite_fractal() -> list[dict]:
    report = verify_fractal(6, 6)
    return [{
        "name": "fractal-laws-k6-ell6",
        "passed": report["passed"],
        "details": {"checked": len(report["checks"])},
    }]


def _suite_incidence() -> list[dict]:
    checks = []
    for n in range(2, 11):
        for k in range(2, n + 1, 2):
            report = verify_configuration(n, k)
            checks.append({
                "name": f"configuration-n{n}-k{k}",
                "passed": report["passed"],
                "details": {"rows": report["rows"], "cols": report["cols"]},
            })
    match = verify_incidence_fractal_match(8, n_max=10)
    checks.append({
        "name": "incidence-fractal-match-m8",
        "passed": match["passed"],
        "details": {"square_shape": list(match["square_shape"])},
    })
    return checks


def _suite_plucker(seed: int) -> list[dict]:
    rng = random.Random(seed)
    checks = []
    for n, k in [(2, 2), (3, 2), (3, 3), (4, 3), (5, 4)]:
        ok = True
        pm = plucker_matrix(n, k, signed=True)
        ncols = pm.support.cols
        for q in (2, 3, 5):
            field = PrimeField(q)
            for _ in range(50):
                w = [rng.randrange(q) for _ in range(ncols)]
                ok = ok and contraction(n, k, w, field) == pm.apply(w, field)
        checks.append({
            "name": f"contraction-consistency-n{n}-k{k}",
            "passed": ok,
            "details": {"vectors": 150},
        })
    for n, k in [(2, 2), (3, 3), (4, 4), (5, 4)]:
        name = f"decompose-n{n}-k{k}"
        try:
            report = decompose(n, k)
        except AssertionError as exc:
            checks.append({"name": name, "passed": False, "details": {"error": str(exc)}})
            continue
        checks.append({
            "name": name,
            "passed": True,
            "details": {
                "blocks": len(report.blocks),
                "zero_columns": len(report.zero_columns),
                "flags": list(report.flags),
            },
        })
    return checks


def _suite_points() -> list[dict]:
    checks = []
    for n, k, q in [(2, 2, 2), (2, 2, 3), (2, 2, 5), (3, 2, 2), (3, 3, 2)]:
        found = rational_points(n, k, q)
        oracle = oracle_points(n, k, q)
        expected = expected_count(n, k, q)
        passed = found.count == expected and found.points == oracle.points
        checks.append({
            "name": f"points-n{n}-k{k}-q{q}",
            "passed": passed,
            "details": {"count": found.count, "expected": expected},
        })
    return checks


def _cmd_verify(args: argparse.Namespace) -> int:
    suites = {
        "fractal": lambda: _suite_fractal(),
        "incidence": lambda: _suite_incidence(),
        "plucker": lambda: _suite_plucker(args.seed),
        "points": lambda: _suite_points(),
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    checks = []
    for name in names:
        checks.extend(suites[name]())
    passed = all(c["passed"] for c in checks)
    report = {"suite": args.suite, "passed": passed, "checks": checks}
    _write_text(args.out, _json_text(report))
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isofractal",
        description="structured sparse matrices and isotropic Grassmannian points",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fractal = sub.add_parser("fractal", help="emit a recursive family matrix")
    fractal.add_argument("--k", type=int, required=True, help="ones per row")
    fractal.add_argument("--ell", type=int, required=True, help="ones per column")
    fractal.add_argument("--format", choices=FORMATS, default="ascii")
    fractal.add_argument("--out", default=None, help="output path (default stdout)")
    fractal.set_defaults(func=_cmd_fractal)

    incidence = sub.add_parser("incidence", help="emit a containment incidence matrix")
    incidence.add_argument("--n", type=int, required=True)
    incidence.add_argument("--k", type=int, required=True)
    incidence.add_argument("--format", choices=FORMATS, default="ascii")
    incidence.add_argument("--out", default=None)
    incidence.set_defaults(func=_cmd_incidence)

    plucker = sub.add_parser("plucker", help="emit the linear-system matrix")
    plucker.add_argument("--n", type=int, required=True)
    plucker.add_argument("--k", type=int, required=True)
    plucker.add_argument("--signed", action="store_true",
                         help="emit signed coefficients (matrixmarket only)")
    plucker.add_argument("--format", choices=FORMATS, default="matrixmarket")
    plucker.add_argument("--out", default=None)
    plucker.set_defaults(func=_cmd_plucker)

    decomp = sub.add_parser("decompose", help="emit the block-structure report")
    decomp.add_argument("--n", type=int, required=True)
    decomp.add_argument("--k", type=int, required=True)
    decomp.add_argument("--out", default=None)
    decomp.set_defaults(func=_cmd_decompose)

    points = sub.add_parser("points", help="enumerate rational points")
    points.add_argument("--n", type=int, required=True)
    points.add_argument("--k", type=int, required=True)
    points.add_argument("--q", type=int, required=True, help="prime field size")
    points.add_argument("--oracle", action="store_true",
                        help="cross-check against the isotropic subspace search")
    points.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help=f"enumeration budget (default {DEFAULT_BUDGET})")
    points.add_argument("--out", default=None, help="points file (default stdout)")
    points.add_argument("--summary-out", default=None,
                        help="summary JSON path (default stdout)")
    points.set_defaults(func=_cmd_points)

    verify = sub.add_parser("verify", help="run an invariant suite")
    verify.add_argument("--suite", choices=["fractal", "incidence", "plucker",
                                            "points", "all"], required=True)
    verify.add_argument("--out", default=None, help="report JSON path (default stdout)")
    verify.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized consistency checks")
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, AssertionError) as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
