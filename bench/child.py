"""One benchmark pass in a fresh interpreter.

Usage: ``python3 bench/child.py SPEC.json`` with ``src`` on ``PYTHONPATH`` and
the pass directory as working directory.  The spec lists the operations; an
empty list makes the run a set-up probe.  The first statement after the clock
import is ``import isofractal``, so ``READY`` marks the end of set-up on the
system-wide monotonic clock, comparable with the parent's spawn time.

Each operation is timed on its own; correctness checks that are not part of
the user's flow run after the clock stops.  With tracing on, spans are kept
in memory and written with the result when the pass ends.
"""

import time

import isofractal

READY = time.monotonic()

import json  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from isofractal import cli, gf, plucker  # noqa: E402

KERNEL_SAMPLES = 8


def _check_kernel(pm, basis, q: int, rng: random.Random) -> list[str]:
    """Apply sampled basis vectors to the system; each must map to zero."""
    field = isofractal.PrimeField(q)
    problems = []
    for index in rng.sample(range(len(basis)), min(KERNEL_SAMPLES, len(basis))):
        vector = basis[index]
        if not any(vector) or any(pm.apply(vector, field)):
            problems.append(f"basis vector {index} is not a nonzero kernel vector")
    return problems


def run_op(op: dict, seed: int, tracer) -> dict:
    record = {"id": op["id"], "rc": None, "error": None, "problems": []}
    span = tracer.begin("bench.op", op=op["id"]) if tracer else None
    start = time.perf_counter()
    try:
        if "argv" in op:
            try:
                record["rc"] = cli.main(op["argv"])
            except SystemExit as exc:  # argparse usage errors
                record["rc"] = exc.code
        else:
            n, k, q = op["kernel"]
            pm = plucker.plucker_matrix(n, k, signed=True)
            basis = gf.kernel_basis(pm.field_matrix(gf.PrimeField(q)))
    except Exception:
        record["error"] = traceback.format_exc()
    end = time.perf_counter()
    if span is not None:
        tracer.end(span)
        start, end = span.start, span.end
    record["seconds"] = end - start
    if "kernel" in op and record["error"] is None:
        record["dim"] = len(basis)
        rng = random.Random(f"{seed}:{op['id']}")
        record["problems"] = _check_kernel(pm, basis, op["kernel"][2], rng)
    return record


def peak_rss_mb() -> float:
    """This process's own peak resident memory (VmHWM).

    getrusage is not used: on exec, Linux keeps the high-water mark of the
    address space being replaced, which is the spawning harness's, so a child
    of a large harness would report the harness's memory.
    """
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv: list[str]) -> int:
    with open(argv[1]) as handle:
        spec = json.load(handle)
    tracer = originals = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        originals = spans.install(tracer)
    result = {"ready": READY, "ops": [run_op(op, spec["seed"], tracer) for op in spec["ops"]]}
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        result["fractal_cache"] = spans.fractal_cache_counts(originals)
        result["spans"] = spans.to_json(tracer.spans)
    with open(spec["result"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
