"""The benchmark harness rebinds package names and reads package attributes;
its self-test fails when one of them is renamed or deleted."""

import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout.splitlines()


def test_traced_emit_ops_write_what_their_spans_count(tmp_path, monkeypatch):
    # the traced ``_write_text`` counts ``len(text.encode())``, so a writer
    # that hands it anything but one str fails only when traced
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import run
    import spans
    from workloads import workloads

    ops = [op for op in workloads(seed=0)["verify-emit"].ops if op.argv[0] != "verify"]
    assert len(ops) == 4
    passdir = tmp_path / "pass"
    p = run.spawn(passdir, {"ops": [op.spec() for op in ops], "seed": 0, "trace": True},
                  timeout=120)
    assert p["result"] is not None, p["stderr"][-500:]
    records = p["result"]["ops"]
    assert [(r["id"], r["rc"], r["error"]) for r in records] == [(op.id, 0, None) for op in ops]

    trace = spans.from_json(p["result"]["spans"])
    written = Counter()
    for s in trace:
        if s.name == "cli.write_text":
            root = s
            while root.parent is not None:
                root = trace[root.parent]
            written[root.attrs["op"]] += s.attrs["bytes"]
    assert written == {op.id: sum((passdir / name).stat().st_size for name in op.outputs)
                       for op in ops}


def test_untraced_kernel_ops_pass(tmp_path, monkeypatch):
    # the child samples basis vectors with ``len``, indexing, ``any`` and
    # ``PluckerMatrix.apply``; each must be a nonzero kernel vector
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import run
    from workloads import Checker, workloads

    ops = workloads(seed=0)["system-kernel"].ops
    passdir = tmp_path / "pass"
    p = run.spawn(passdir, {"ops": [op.spec() for op in ops], "seed": 0, "trace": False},
                  timeout=120)
    assert p["exit"] == 0 and p["result"] is not None, p["stderr"][-500:]
    records = p["result"]["ops"]
    assert [(r["id"], r["error"], r["problems"]) for r in records] == [
        (op.id, None, []) for op in ops]
    assert [r["dim"] for r in records] == [1780, 1444, 2003]
    checker = Checker(ROOT)
    assert [checker.check(op, r, passdir) for op, r in zip(ops, records)] == [[]] * 3
