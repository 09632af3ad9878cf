"""Command-line front end: construction, verification, decomposition, points.

Subcommands
-----------
fractal    emit one member of the recursive matrix family
incidence  emit an incidence (containment) matrix
plucker    emit the linear-system coefficient matrix
decompose  emit the block-structure report as JSON
points     enumerate rational points, write them plus a JSON summary
verify     run an invariant suite and report pass/fail as JSON

All file outputs are written atomically (temp file plus rename), where and
with the mode that ``open(path, "w")`` would write them: through symlinks to
their targets, keeping an existing file's mode, and a new file's from the
umask.  ``points`` refuses one regular file for both ``--out`` and
``--summary-out`` (exit 2).  A standard output whose reader is gone ends the
command with exit 1.  Matrix and report artifacts are byte-for-byte
deterministic; only the points summary carries an elapsed-time field.  JSON is written by
``json.dumps(indent=2, sort_keys=True)``; the decompose report, the one
large JSON text, gets the same bytes from ``_decompose_text``, one join for
the whole text built from the report's blocks.  ``--budget`` on ``points``
bounds the enumeration work (default ``DEFAULT_BUDGET``; below 1 it is a
usage error, exit 2, raised by the routes themselves).  A failed internal
check inside ``verify`` is a failed report entry; elsewhere it ends the
command with exit 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import stat
import sys
import tempfile
import time
from typing import Sequence

from .bitmatrix import FORMATS, _signed_matrixmarket, serialize
from .fractal import fractal_matrix, verify_fractal
from .gf import PrimeField
from .incidence import incidence_matrix, verify_configuration, verify_incidence_fractal_match
from .plucker import DecompositionReport, contraction, decompose, plucker_matrix
from .variety import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    expected_count,
    oracle_points,
    rational_points,
)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader is gone: what is left in the buffer would fail again at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise
        return
    if os.path.exists(path) and not os.path.isfile(path):
        # devices, fifos: renaming over them would destroy them
        with open(path, "w") as handle:
            handle.write(text)
        return
    real = os.path.realpath(path)  # through symlinks, to the file open() would write
    if os.path.exists(real):
        mode = stat.S_IMODE(os.stat(real).st_mode)
    else:
        umask = os.umask(0)  # the umask is read only by setting it
        os.umask(umask)
        mode = 0o666 & ~umask
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(real), prefix=".isofractal-")
    except OSError as exc:
        # the error would name the temp file, which the user never asked for
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w") as handle:
            os.fchmod(handle.fileno(), mode)
            handle.write(text)
        os.replace(tmp, real)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_ints(values: Sequence[int], newline: str) -> str:
    """Plain ints as ``json`` writes their list with ``indent=2``, indented by ``newline``."""
    if not values:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(map(str, values)) + newline + "]"


def _decompose_text(report: DecompositionReport) -> str:
    """``json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"``, in one join.

    The keys come in sorted order.  Each block is one template filled with
    its three lists of ints, and the zero lists go through :func:`_json_ints`;
    the flags are ``json.dumps`` of their list, indented one level deeper
    (exact, since json escapes every newline inside a string).
    """
    # a block's lists hold their ints 8 spaces deep, and an empty one is []
    block = '\n    {\n      "cols": [%s],\n      "fractal": [%s],\n      "rows": [%s]\n    },'
    items = ",\n        ".join
    parts = ['{\n  "blocks": [']
    for b in report.blocks:
        cols, fractal, rows = b.cols, b.fractal, b.rows
        parts.append(block % (f"\n        {items(map(str, cols))}\n      " if cols else "",
                              f"\n        {items(map(str, fractal))}\n      " if fractal else "",
                              f"\n        {items(map(str, rows))}\n      " if rows else ""))
    if report.blocks:
        parts[-1] = parts[-1][:-1] + "\n  "  # no comma after the last block
    parts += ('],\n  "flags": ', json.dumps(list(report.flags), indent=2).replace("\n", "\n  "),
              f',\n  "k": {report.k},\n  "n": {report.n},\n  "zero_columns": ',
              _json_ints(report.zero_columns, "\n  "),
              ',\n  "zero_rows": ', _json_ints(report.zero_rows, "\n  "), "\n}\n")
    return "".join(parts)


def _cmd_fractal(args: argparse.Namespace) -> int:
    matrix = fractal_matrix(args.k, args.ell)
    _write_text(args.out, serialize(matrix, args.format))
    return 0


def _cmd_incidence(args: argparse.Namespace) -> int:
    matrix = incidence_matrix(args.n, args.k)
    _write_text(args.out, serialize(matrix, args.format))
    return 0


def _cmd_plucker(args: argparse.Namespace) -> int:
    if args.signed and args.format != "matrixmarket":
        raise ValueError("--signed output needs --format matrixmarket")
    pm = plucker_matrix(args.n, args.k, signed=args.signed)
    if args.signed:
        _write_text(args.out, _signed_matrixmarket(pm.support, pm.row_signs, pm.col_signs))
    else:
        _write_text(args.out, serialize(pm.support, args.format))
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    _write_text(args.out, _decompose_text(decompose(args.n, args.k)))
    return 0


def _cmd_points(args: argparse.Namespace) -> int:
    # the summary would replace the points; a device such as /dev/null takes both
    if (args.out is not None and args.summary_out is not None
            and os.path.realpath(args.out) == os.path.realpath(args.summary_out)
            and (os.path.isfile(args.out) or not os.path.exists(args.out))):
        raise ValueError(f"--out and --summary-out are the same file: {args.summary_out}")
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
        agree = oracle.same_points(result)
        summary["oracle"] = {"count": oracle.count, "match": agree}
        summary["match"] = summary["match"] and agree
    _write_text(args.out, result.text())
    _write_text(args.summary_out, json.dumps(summary, indent=2, sort_keys=True) + "\n")
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
        ncols = math.comb(2 * n, k)
        for q in (2, 3, 5):
            field = PrimeField(q)
            for _ in range(50):
                w = rng.choices(range(q), k=ncols)
                sparse = tuple((j, v) for j, v in enumerate(w) if v)
                ok = ok and contraction(n, k, w, field) == pm.apply(sparse, field)
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
        passed = found.count == expected and found.same_points(oracle)
        checks.append({
            "name": f"points-n{n}-k{k}-q{q}",
            "passed": passed,
            "details": {"count": found.count, "expected": expected},
        })
    return checks


def _cmd_verify(args: argparse.Namespace) -> int:
    suites = {
        "fractal": _suite_fractal,
        "incidence": _suite_incidence,
        "plucker": lambda: _suite_plucker(args.seed),
        "points": _suite_points,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    checks = []
    for name in names:
        checks.extend(suites[name]())
    passed = all(c["passed"] for c in checks)
    report = {"suite": args.suite, "passed": passed, "checks": checks}
    _write_text(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
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

    incidence = sub.add_parser("incidence", help="emit a containment incidence matrix")
    incidence.add_argument("--n", type=int, required=True)
    incidence.add_argument("--k", type=int, required=True)
    incidence.add_argument("--format", choices=FORMATS, default="ascii")
    incidence.add_argument("--out", default=None)

    plucker = sub.add_parser("plucker", help="emit the linear-system matrix")
    plucker.add_argument("--n", type=int, required=True)
    plucker.add_argument("--k", type=int, required=True)
    plucker.add_argument("--signed", action="store_true",
                         help="emit signed coefficients (matrixmarket only)")
    plucker.add_argument("--format", choices=FORMATS, default="matrixmarket")
    plucker.add_argument("--out", default=None)

    decomp = sub.add_parser("decompose", help="emit the block-structure report")
    decomp.add_argument("--n", type=int, required=True)
    decomp.add_argument("--k", type=int, required=True)
    decomp.add_argument("--out", default=None)

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

    verify = sub.add_parser("verify", help="run an invariant suite")
    verify.add_argument("--suite", choices=["fractal", "incidence", "plucker",
                                            "points", "all"], required=True)
    verify.add_argument("--out", default=None, help="report JSON path (default stdout)")
    verify.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized consistency checks")

    return parser


_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up by name at each call, so a rebound _cmd_* is the one run
        return globals()[f"_cmd_{args.command}"](args)
    except BudgetExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError as exc:
        # the reader of the output went away: the run failed, the usage was fine
        print(f"error: {exc}", file=sys.stderr)
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
