"""The four benchmark workloads, why each was chosen, and their correctness gates.

Every workload is a fixed list of operations run one at a time in one fresh
interpreter per pass (a closed loop with one caller).  The seed only changes
what ``verify --seed`` randomizes and which kernel vectors are sampled, so
every seed does the same amount of work.

Gates run in the harness process after the pass, from the files the pass
wrote (or, for the library chain, from what the pass reports).  A verdict is
cached per output bytes, so identical outputs of later passes are not parsed
again; any other bytes are checked in full.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Op:
    id: str
    why: str
    argv: tuple[str, ...] = ()
    kernel: tuple[int, int, int] | None = None
    outputs: tuple[str, ...] = ()

    def spec(self) -> dict:
        if self.kernel is not None:
            return {"id": self.id, "kernel": list(self.kernel)}
        return {"id": self.id, "argv": list(self.argv)}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple[Op, ...]


POINTS_WHY = {
    (2, 2, 5): "q=5 with a tiny kernel: the fixed per-call cost of points and oracle",
    (3, 2, 2): "k=2 relation shape over GF(2)",
    (3, 3, 2): "k=3 relation shape over GF(2)",
    (3, 2, 3): "k=2 shape over GF(3): 2,391,484 classes against a 1-row system",
    (3, 3, 3): "the 1120-point stretch instance: 2,391,484 classes, 225 relations",
}

KERNEL_WHY = {
    (7, 7, 2): "largest guarded system, bit-packed GF(2) elimination",
    (7, 7, 3): "largest guarded system, generic GF(3) elimination",
    (7, 6, 3): "odd k: a different block shape, generic path",
}

# kernel dimensions and block censuses that must not change
KERNEL_DIMS = {(7, 7, 2): 1780, (7, 7, 3): 1444, (7, 6, 3): 2003}
CENSUS = {
    (7, 6): {(3, 1): 560, (4, 2): 84, (5, 3): 1},
    (7, 7): {(2, 1): 672, (3, 2): 280, (4, 3): 14},
}


def _points_op(n: int, k: int, q: int) -> Op:
    name = f"points-n{n}-k{k}-q{q}"
    return Op(
        id=name,
        why=POINTS_WHY[(n, k, q)],
        argv=("points", "--n", str(n), "--k", str(k), "--q", str(q), "--oracle",
              "--out", f"{name}.txt", "--summary-out", f"{name}.summary.json"),
        outputs=(f"{name}.txt", f"{name}.summary.json"),
    )


def _decompose_op(n: int, k: int) -> Op:
    name = f"decompose-n{n}-k{k}"
    why = "pinned census" if (n, k) in CENSUS else "guarded range"
    return Op(id=name, why=why,
              argv=("decompose", "--n", str(n), "--k", str(k), "--out", f"{name}.json"),
              outputs=(f"{name}.json",))


def _emit_op(name: str, why: str, *argv: str) -> Op:
    return Op(id=name, why=why, argv=argv + ("--out", name), outputs=(name,))


def workloads(seed: int) -> dict[str, Workload]:
    return {w.name: w for w in (
        Workload(
            "points-ladder",
            "points --oracle, the headline computation; over 90% is the variety "
            "relation filter, so k=2/k=3 and q=2/q=3 shapes are mixed",
            tuple(_points_op(*nkq) for nkq in POINTS_WHY),
        ),
        Workload(
            "decompose-ladder",
            "decompose for every 2<=k<=n<=7: bitmatrix components, submatrix and "
            "equivalence search plus plucker_matrix; never enters variety or gf",
            tuple(_decompose_op(n, k) for n in range(2, 8) for k in range(2, n + 1)),
        ),
        Workload(
            "system-kernel",
            "kernel_basis of the signed system at the largest guarded sizes: "
            "gf elimination (both paths) and the dense field_matrix build",
            tuple(Op(id=f"kernel-n{n}-k{k}-q{q}", why=why, kernel=(n, k, q))
                  for (n, k, q), why in KERNEL_WHY.items()),
        ),
        Workload(
            "verify-emit",
            "verify --suite all and matrix emission: fractal, incidence, "
            "serialization and the cli write path",
            (
                Op(id="verify-all", why="every invariant suite, seeded",
                   argv=("verify", "--suite", "all", "--seed", str(seed),
                         "--out", "verify.json"),
                   outputs=("verify.json",)),
                _emit_op("a-9-8.mm", "A(9,8), 11440x12870, matrixmarket",
                         "fractal", "--k", "9", "--ell", "8", "--format", "matrixmarket"),
                _emit_op("a-9-8.alist", "A(9,8) again, alist, memoized build",
                         "fractal", "--k", "9", "--ell", "8", "--format", "alist"),
                _emit_op("plucker-n8-k8.mm", "signed 8008x12870 system",
                         "plucker", "--n", "8", "--k", "8", "--signed"),
                _emit_op("incidence-n14-k8.alist", "364x1001 containment matrix",
                         "incidence", "--n", "14", "--k", "8", "--format", "alist"),
            ),
        ),
    )}


class Checker:
    """Correctness gates for one run; holds the reference objects it builds."""

    def __init__(self, root: Path):
        self.root = root
        self._schemas: dict[str, dict] = {}
        self._refs: dict[object, object] = {}
        self._verdicts: dict[tuple[str, str], list[str]] = {}

    def check(self, op: Op, record: dict, passdir: Path) -> list[str]:
        """Problems found with one operation's outcome; empty when it is correct."""
        if record.get("error"):
            return [record["error"].strip().splitlines()[-1]]
        problems = list(record.get("problems", []))
        if op.kernel is not None:
            if record.get("dim") != KERNEL_DIMS[op.kernel]:
                problems.append(f"kernel dim {record.get('dim')} != {KERNEL_DIMS[op.kernel]}")
            return problems
        if record["rc"] != 0:
            return problems + [f"exit code {record['rc']}"]
        paths = [passdir / name for name in op.outputs]
        missing = [p.name for p in paths if not p.is_file()]
        if missing:
            return problems + [f"missing outputs {missing}"]
        if op.argv[0] == "points":
            # the summary carries an elapsed time, so it is checked every pass
            problems += self._points_summary(op, json.loads(paths[1].read_text()))
            paths = paths[:1]
        digest = hashlib.sha256(b"".join(p.read_bytes() for p in paths)).hexdigest()
        key = (op.id, digest)
        if key not in self._verdicts:
            self._verdicts[key] = self._outputs(op, [p.read_text() for p in paths])
        return problems + self._verdicts[key]

    # -- references --------------------------------------------------------

    def _ref(self, key, build):
        if key not in self._refs:
            self._refs[key] = build()
        return self._refs[key]

    def _validate(self, schema: str, payload: dict) -> list[str]:
        import jsonschema

        if schema not in self._schemas:
            path = self.root / "schemas" / f"{schema}.schema.json"
            self._schemas[schema] = json.loads(path.read_text())
        errors = jsonschema.Draft7Validator(self._schemas[schema]).iter_errors(payload)
        return [f"{schema}: {e.message}" for e in errors][:3]

    # -- gates ----------------------------------------------------------------

    def _nkq(self, op: Op) -> tuple[int, ...]:
        return tuple(int(op.argv[op.argv.index(f"--{key}") + 1])
                     for key in ("n", "k", "q") if f"--{key}" in op.argv)

    def _points_summary(self, op: Op, summary: dict) -> list[str]:
        from isofractal import expected_count

        n, k, q = self._nkq(op)
        expected = expected_count(n, k, q)
        problems = self._validate("points-summary", summary)
        if summary.get("count") != expected or summary.get("expected") != expected:
            problems.append(f"count {summary.get('count')} != expected_count {expected}")
        if summary.get("match") is not True or summary.get("oracle", {}).get("match") is not True:
            problems.append("summary does not report a match with the oracle")
        return problems

    def _outputs(self, op: Op, texts: list[str]) -> list[str]:
        command = op.argv[0]
        if command == "points":
            return self._points_file(op, texts[0])
        if command == "decompose":
            return self._decompose(op, json.loads(texts[0]))
        if command == "verify":
            report = json.loads(texts[0])
            problems = self._validate("verify-report", report)
            return problems + ([] if report.get("passed") is True else ["verify report not passed"])
        if command == "plucker":
            return self._signed_matrix(op, texts[0])
        return self._matrix(op, texts[0])

    def _points_file(self, op: Op, text: str) -> list[str]:
        from isofractal import oracle_points

        n, k, q = self._nkq(op)
        found = {tuple(int(v) for v in line.split()) for line in text.splitlines()}
        oracle = self._ref(("oracle", n, k, q), lambda: oracle_points(n, k, q).points)
        return [] if found == oracle else [f"point set differs from the oracle set ({len(found)} vs {len(oracle)})"]

    def _decompose(self, op: Op, report: dict) -> list[str]:
        from isofractal import index_tuples, pair_free_part

        n, k = self._nkq(op)
        problems = self._validate("decompose-report", report)
        if problems:
            return problems
        census: dict[tuple[int, int], int] = {}
        for block in report["blocks"]:
            a, b = block["fractal"]
            census[(a, b)] = census.get((a, b), 0) + 1
            shape = (math.comb(a + b - 1, b - 1), math.comb(a + b - 1, b))
            if (len(block["rows"]), len(block["cols"])) != shape:
                problems.append(f"block labelled A({a},{b}) has shape "
                                f"{len(block['rows'])}x{len(block['cols'])}")
        if (n, k) in CENSUS and census != CENSUS[(n, k)]:
            problems.append(f"census {census} != pinned {CENSUS[(n, k)]}")
        pair_free = [j for j, beta in enumerate(index_tuples(k, 2 * n))
                     if pair_free_part(beta, n) == beta]
        if report["zero_columns"] != pair_free or len(pair_free) != math.comb(n, k) * 2**k:
            problems.append("zero columns differ from the closed form C(n,k)*2^k pair-free labels")
        return problems

    def _matrix(self, op: Op, text: str) -> list[str]:
        from isofractal import deserialize, fractal_matrix_blockwise, incidence_matrix

        fmt = op.argv[op.argv.index("--format") + 1]
        if op.argv[0] == "fractal":
            expected = self._ref(("blockwise", 9, 8), lambda: fractal_matrix_blockwise(9, 8))
        else:
            expected = self._ref(("incidence", 14, 8), lambda: incidence_matrix(14, 8))
        got = deserialize(text, fmt)
        return [] if got == expected else [f"{op.id} reads back as a different matrix"]

    def _signed_matrix(self, op: Op, text: str) -> list[str]:
        from isofractal import plucker_matrix

        pm = self._ref(("plucker", 8, 8), lambda: plucker_matrix(8, 8, signed=True))
        lines = text.splitlines()
        rows, cols, nnz = (int(v) for v in lines[1].split())
        entries = {}
        for line in lines[2:]:
            i, j, v = (int(x) for x in line.split())
            entries[(i - 1, j - 1)] = v
        if (rows, cols, nnz) != (pm.support.rows, pm.support.cols, len(pm.signs)):
            return [f"{op.id} header {rows} {cols} {nnz} is wrong"]
        return [] if entries == pm.signs else [f"{op.id} entries differ from the signed system"]
