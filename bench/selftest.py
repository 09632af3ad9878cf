"""Fast self-test of the benchmark harness (a few seconds).

Usage (from the repository root)::

    python3 bench/selftest.py

Runs one small traced pass made of operations taken from the real workloads
and checks that: metric names match ``[A-Za-z0-9_.-]+`` and agree with
``BENCHMARK.json``; span self times are non-negative and add up to at most the
pass wall time; span parents form a tree under the operation spans; the
correctness gates accept the outputs; and the harness refuses to run, without
printing a result, where the package sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import spans
from workloads import Checker, Op, workloads


def _selected_ops() -> list[Op]:
    wl = workloads(seed=5)
    points = [op for op in wl["points-ladder"].ops if op.id.endswith("q2") or "q5" in op.id]
    decompose = [op for op in wl["decompose-ladder"].ops
                 if op.id in ("decompose-n4-k4", "decompose-n5-k3")]
    emit = [op for op in wl["verify-emit"].ops if op.id == "incidence-n14-k8.alist"]
    return points + decompose + emit


def check_names(failures: list[str]) -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if declared_e2e != run.END_TO_END_UNITS:
        failures.append(f"end_to_end in BENCHMARK.json {declared_e2e} != harness {run.END_TO_END_UNITS}")
    if declared_layer != spans.LAYER_UNITS:
        failures.append("per_layer in BENCHMARK.json differs from spans.LAYER_UNITS")
    if {w["name"] for w in bench["workloads"]} != set(workloads(0)):
        failures.append("workload names in BENCHMARK.json differ from workloads.py")
    for name in list(declared_e2e) + list(declared_layer):
        if not spans.METRIC_NAME.fullmatch(name):
            failures.append(f"metric name {name!r} has characters outside [A-Za-z0-9_.-]")


def check_traced_pass(failures: list[str]) -> None:
    ops = _selected_ops()
    passdir = run.ROOT / ".bench_out" / "selftest" / "pass"
    shutil.rmtree(passdir.parent, ignore_errors=True)
    spec = {"ops": [op.spec() for op in ops] + [{"id": "kernel-n3-k3-q3", "kernel": [3, 3, 3]}],
            "seed": 5, "trace": True}
    p = run.spawn(passdir, spec, timeout=120)
    report = p["result"]
    if report is None:
        failures.append(f"traced pass exited {p['exit']}: {p['stderr'][-500:]}")
        return
    checker = Checker(run.ROOT)
    for op, record in zip(ops, report["ops"]):
        problems = checker.check(op, record, passdir)
        if problems:
            failures.append(f"gate rejected {op.id}: {problems}")
    if report["ops"][-1].get("problems") or report["ops"][-1].get("error"):
        failures.append(f"kernel op failed: {report['ops'][-1]}")

    trace = spans.from_json(report["spans"])
    wall = sum(r["seconds"] for r in report["ops"])
    own = spans.self_times(trace)
    if min(own) < 0:
        failures.append(f"negative self time {min(own)}")
    if sum(own) > wall * (1 + 1e-9):
        failures.append(f"self times add up to {sum(own)} > wall {wall}")
    failures.extend(spans.tree_errors(trace))
    roots = [s for s in trace if s.parent is None]
    if len(roots) != len(spec["ops"]):
        failures.append(f"{len(roots)} root spans for {len(spec['ops'])} operations")

    metrics = spans.pass_metrics(trace, report["fractal_cache"], 0)
    expected = set(spans.LAYER_UNITS) - {"trace.overhead_ratio", "failed_ratio"}
    if set(metrics) != expected:
        failures.append(f"pass metrics differ from LAYER_UNITS: {set(metrics) ^ expected}")
    for name in ("variety.classes_examined", "bitmatrix.submatrix_calls",
                 "incidence.incidence_matrix_s", "gf.kernel_basis_s", "cli.bytes_written"):
        if not metrics[name] > 0:
            failures.append(f"{name} is {metrics[name]}, expected it to be measured")
    if metrics["gf.kernel_dim"] < 10:  # (3,3,3) alone has a 14-dimensional kernel
        failures.append(f"gf.kernel_dim {metrics['gf.kernel_dim']} too small")


def check_refuses_without_sources(failures: list[str]) -> None:
    bare = run.ROOT / ".bench_out" / "selftest" / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "decompose-ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        failures.append("harness printed a result without the package sources")


def main() -> int:
    failures: list[str] = []
    check_names(failures)
    check_traced_pass(failures)
    check_refuses_without_sources(failures)
    summary = run.percentile_rule([float(i) for i in range(20)])
    if summary["percentile_value"] != 9.0 or summary["percentile"] != 50.0:
        failures.append(f"percentile rule gave {summary}")
    for line in failures:
        print(f"FAIL {line}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
