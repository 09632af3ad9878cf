"""Benchmark harness: run one workload for a fixed time and report its metrics.

Usage (from the repository root)::

    python3 bench/run.py --workload points-ladder --seed 1 --seconds 15 --trace 0

Each pass is one fresh interpreter (``bench/child.py``) running the
workload's operations one at a time, a closed loop with a single caller.
Passes repeat until ``--seconds`` have elapsed (at least one pass).  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics from the traced passes, plus the tracing overhead.

Every operation's output is checked (see ``workloads.py``); failures count
against the attempted operations.  A full record with machine facts, every
sample and the work counts goes to ``.bench_out/result-*.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
from workloads import Checker, workloads  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 5
# every run must end well inside three minutes, whatever --seconds says
HARD_LIMIT_S = 170.0


def _prerequisites() -> list[str]:
    needed = [ROOT / "src" / "isofractal" / "__init__.py", ROOT / "schemas"]
    return [str(p.relative_to(ROOT)) for p in needed if not p.exists()]


def machine_facts() -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = dirty = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        def git(*args: str) -> str:
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        commit = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "git_dirty": dirty,
    }


def spawn(passdir: Path, spec: dict, timeout: float) -> dict:
    """Run one child interpreter; returns set-up time, peak RSS and its report."""
    passdir.mkdir(parents=True)
    spec = dict(spec, result=str(passdir / "result.json"))
    (passdir / "spec.json").write_text(json.dumps(spec))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with open(passdir / "stderr.txt", "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(passdir / "spec.json")],
            cwd=passdir, env=env, stdin=subprocess.DEVNULL, stdout=err, stderr=err,
        )
        reaped = threading.Event()
        timer = threading.Timer(timeout, lambda: reaped.is_set() or proc.kill())
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            reaped.set()
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    result = None
    if proc.returncode == 0 and (passdir / "result.json").is_file():
        result = json.loads((passdir / "result.json").read_text())
    return {
        "exit": proc.returncode,
        "setup_s": result["ready"] - started if result else None,
        "peak_rss_mb": result["peak_rss_mb"] if result else None,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "result": result,
        "stderr": (passdir / "stderr.txt").read_text(errors="replace")[-2000:],
    }


def percentile_rule(samples: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"samples": n, "median": statistics.median(ordered)}
    if n >= 11:
        out["percentile"] = 100.0 * (n - 10) / n
        out["percentile_value"] = ordered[n - 11]
    else:
        out["percentile"] = None
        out["percentile_note"] = "fewer than 11 samples: no percentile has ten beyond it"
    return out


def work_counts(workload: str, passdir: Path, report: dict, pass_spans) -> dict:
    """Counts that must repeat exactly from pass to pass and run to run."""
    counts: dict[str, object] = {}
    files = [p for p in passdir.iterdir()
             if p.name not in ("spec.json", "result.json", "stderr.txt")]
    # points summaries carry an elapsed time, so their size may vary
    counts["bytes_written"] = sum(p.stat().st_size for p in files
                                  if not p.name.endswith(".summary.json"))
    if workload == "points-ladder":
        counts["points_found"] = sum(p.read_text().count("\n") for p in files
                                     if p.suffix == ".txt")
    if workload == "decompose-ladder":
        counts["blocks"] = sum(len(json.loads(p.read_text())["blocks"]) for p in files)
    if workload == "system-kernel":
        counts["kernel_dims"] = [op.get("dim") for op in report["ops"]]
    if pass_spans is not None:
        m = spans.pass_metrics(pass_spans, {"hits": 0, "misses": 0}, 0)
        for key in ("variety.classes_examined", "variety.oracle_subspaces_examined",
                    "variety.relations", "bitmatrix.submatrix_calls",
                    "bitmatrix.permutation_equivalent_calls", "plucker.blocks",
                    "gf.kernel_dim"):
            counts[key] = m[key]
    return counts


def count_defects(run_counts: list[dict], saved_path: Path, key: str) -> list[str]:
    """Counts that differ between passes of this run or from an earlier run."""
    defects = []
    for i, counts in enumerate(run_counts[1:], start=1):
        if counts != run_counts[0]:
            defects.append(f"{key} pass {i} counts {counts} != pass 0 {run_counts[0]}")
    if not run_counts:
        return defects
    saved = json.loads(saved_path.read_text()) if saved_path.is_file() else {}
    if key in saved and saved[key] != run_counts[0]:
        defects.append(f"{key} counts {run_counts[0]} != earlier run {saved[key]}")
    saved.setdefault(key, run_counts[0])
    saved_path.write_text(json.dumps(saved, indent=1, sort_keys=True))
    return defects


def layer_checks(workload: str, metrics: dict, wall: float, last_spans) -> list[dict]:
    """Does the workload stress the layer it was chosen for?"""
    if workload == "points-ladder":
        share = metrics["variety.rational_points.self_s"] / wall
        return [{"check": "variety.rational_points.self_s >= 0.85 of wall",
                 "value": share, "passed": share >= 0.85}]
    if workload == "system-kernel":
        share = (metrics["gf.kernel_basis_s"] + metrics["plucker.field_matrix_s"]) / wall
        return [{"check": "gf.kernel_basis_s + plucker.field_matrix_s >= 0.70 of wall",
                 "value": share, "passed": share >= 0.70}]
    if workload == "decompose-ladder":
        own = spans.self_by_name(last_spans)
        own.pop(spans.OP_SPAN, None)
        ranked = sorted(own.items(), key=lambda kv: -kv[1])[:4]
        return [{"check": "bitmatrix.submatrix has the largest self time",
                 "value": ranked, "passed": ranked[0][0] == "bitmatrix.submatrix"}]
    return []


def run(args: argparse.Namespace) -> int:
    began = time.monotonic()
    workload = workloads(args.seed)[args.workload]
    checker = Checker(ROOT)
    out = ROOT / ".bench_out"
    rundir = out / f"run-{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    facts = machine_facts()

    def remaining() -> float:
        return max(5.0, HARD_LIMIT_S - (time.monotonic() - began))

    # the first probe compiles bytecode once; only the later ones are samples
    probe = {"ops": [], "seed": args.seed, "trace": False}
    spawn(rundir / "warmup", probe, remaining())
    setups = [spawn(rundir / f"probe-{i}", probe, remaining())["setup_s"]
              for i in range(SETUP_PROBES)]

    specs = [op.spec() for op in workload.ops]
    passes = []
    attempted = failed = 0
    failures: list[str] = []
    counts: dict[bool, list[dict]] = {False: [], True: []}
    last_spans = None
    durations: list[float] = []
    deadline = time.monotonic() + args.seconds
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passdir = rundir / f"pass-{len(passes):03d}"
        pass_began = time.monotonic()
        p = spawn(passdir, {"ops": specs, "seed": args.seed, "trace": traced}, remaining())
        report = p.pop("result")
        records = report["ops"] if report else [{} for _ in workload.ops]
        for op, record in zip(workload.ops, records):
            if not record:
                problems = [f"pass exited {p['exit']}: {p['stderr'][-300:]}"]
            else:
                try:
                    problems = checker.check(op, record, passdir)
                except Exception as exc:  # a malformed output is a failed operation
                    problems = [f"gate raised {type(exc).__name__}: {exc}"]
            attempted += 1
            if problems:
                failed += 1
                failures.append(f"pass {len(passes)} {op.id}: {'; '.join(problems)}")
        pass_spans = spans.from_json(report["spans"]) if report and traced else None
        entry = {
            "traced": traced,
            "exit": p["exit"],
            "wall_s": sum(r.get("seconds", 0.0) for r in records),
            "setup_s": p["setup_s"],
            "peak_rss_mb": p["peak_rss_mb"],
            "cpu_s": p["cpu_s"],
            "ops": {r.get("id"): {"seconds": r.get("seconds"), "rc": r.get("rc")}
                    for r in records},
        }
        if report:
            counts[traced].append(work_counts(args.workload, passdir, report, pass_spans))
            setups.append(p["setup_s"])
        if pass_spans is not None:
            exit_nonzero = sum(1 for r in records if "rc" in r and r["rc"] not in (0, None))
            entry["layer"] = spans.pass_metrics(pass_spans, report["fractal_cache"], exit_nonzero)
            entry["tree_errors"] = spans.tree_errors(pass_spans)
            last_spans = pass_spans
            (rundir / "spans-last-traced.json").write_text(json.dumps(report["spans"]))
        passes.append(entry)
        shutil.rmtree(passdir)
        durations.append(time.monotonic() - pass_began)
        both_kinds = not args.trace or len(passes) >= 2
        now = time.monotonic()
        typical = statistics.median(durations)
        # start another pass only if a typical one still ends within the time
        if both_kinds and (now + typical > deadline or now + typical > began + HARD_LIMIT_S):
            break

    untraced = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if "layer" in p]
    if args.trace and not traced_passes:
        print(f"error: no traced pass completed: {failures[:3]}", file=sys.stderr)
        return 1
    wall = percentile_rule([p["wall_s"] for p in untraced])
    end_to_end = {
        "wall_s": wall["median"],
        "setup_s": statistics.median(s for s in setups if s is not None),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] or 0.0 for p in untraced),
    }
    defects = []
    for traced in (False, True):
        defects += count_defects(counts[traced], out / f"work-counts-{args.workload}.json",
                                 f"trace{int(traced)}")
    for p in passes:
        defects += [f"span tree: {e}" for e in p.get("tree_errors", [])]

    record = {
        "workload": workload.name,
        "why": workload.why,
        "ops": [{"id": op.id, "why": op.why, "argv": list(op.argv),
                 "kernel": op.kernel} for op in workload.ops],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "load": "closed loop, one process, one operation at a time",
        "passes": passes,
        "setup_samples": setups,
        "wall_s": wall,
        "end_to_end": end_to_end,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": failures[:50],
        "work_counts": counts[False][:1] + counts[True][:1],
        "count_defects": defects,
    }
    if args.trace:
        # counts repeat exactly, so the lower median keeps them whole numbers
        layer = {name: (statistics.median_low if spans.LAYER_UNITS[name] == "count"
                        else statistics.median)([p["layer"][name] for p in traced_passes])
                 for name in traced_passes[0]["layer"]}
        traced_wall = statistics.median(p["wall_s"] for p in traced_passes)
        layer["trace.overhead_ratio"] = traced_wall / wall["median"] - 1
        layer["failed_ratio"] = failed / attempted
        record["per_layer"] = layer
        record["layer_checks"] = layer_checks(args.workload, layer, traced_wall, last_spans)
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in spans.LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"{workload.name}: {len(untraced)} untraced + {len(traced_passes)} traced passes "
          f"of {len(workload.ops)} ops, seed {args.seed}, {facts['nproc']} cpus, "
          f"python {facts['python']}, numpy {facts['numpy']}")
    pct = (f"p{wall['percentile']:.0f} {wall['percentile_value']:.4f} s"
           if wall["percentile"] is not None else "no percentile (under 11 samples)")
    print(f"wall_s median {wall['median']:.4f} s over {wall['samples']} passes; {pct}")
    for check in record.get("layer_checks", []):
        print(f"layer check {'PASS' if check['passed'] else 'FAIL'}: {check['check']} "
              f"({check['value']})")
    for line in failures[:10] + defects[:10]:
        print(f"problem: {line}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads(0)), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = _prerequisites()
    if missing:
        print(f"error: run from a repository checkout; missing {missing}", file=sys.stderr)
        return 2
    try:
        import jsonschema  # noqa: F401
    except ImportError:
        print("error: the correctness gates need jsonschema", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
