import dataclasses
import hashlib
import json
import os
import shlex
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest
from jsonschema import validate

from isofractal import cli, fractal, plucker, variety
from isofractal.bitmatrix import BinaryMatrix, serialize
from isofractal.combinat import index_tuples
from isofractal.cli import build_parser, main
from isofractal.plucker import Block, DecompositionReport, decompose
from isofractal.variety import DEFAULT_BUDGET
from test_combinat import contraction_sign_oracle

ROOT = Path(__file__).resolve().parent.parent
SCHEMAS = ROOT / "schemas"


def load_schema(name):
    return json.loads((SCHEMAS / name).read_text())


GOLDEN_4_3 = [
    "11110000000000000000",
    "10001110000000000000",
    "01001001100000000000",
    "00100101010000000000",
    "00010010110000000000",
    "10000000001110000000",
    "01000000001001100000",
    "00100000000101010000",
    "00010000000010110000",
    "00001000001000001100",
    "00000100000100001010",
    "00000010000010000110",
    "00000001000001001001",
    "00000000100000100101",
    "00000000010000010011",
]


class TestFractalCommand:
    def test_ascii_matches_golden_matrix(self, capsys):
        assert main(["fractal", "--k", "4", "--ell", "3", "--format", "ascii"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == GOLDEN_4_3

    def test_deterministic_files(self, tmp_path):
        a = tmp_path / "a.mm"
        b = tmp_path / "b.mm"
        for path in (a, b):
            assert main(["fractal", "--k", "3", "--ell", "3",
                         "--format", "matrixmarket", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_domain_error_exit_code(self, capsys):
        assert main(["fractal", "--k", "0", "--ell", "3"]) == 2
        assert "error" in capsys.readouterr().err

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            main(["fractal", "--k", "4"])
        assert err.value.code == 2

    def test_write_error_names_the_given_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x"
        assert main(["fractal", "--k", "1", "--ell", "1", "--format", "matrixmarket",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(out) in err
        assert ".isofractal-" not in err
        assert list(tmp_path.iterdir()) == []


FRACTAL_3_2 = ["fractal", "--k", "3", "--ell", "2", "--out"]


@pytest.fixture
def umask_022():
    """The process umask is 022 for one test, and what it was after."""
    saved = os.umask(0o022)
    yield
    os.umask(saved)


class TestOutputFile:
    """An output is written where, and with the mode, that ``open(path, "w")`` would write it."""

    @pytest.mark.parametrize("mask,mode", [(0o022, 0o644), (0o027, 0o640), (0o077, 0o600)],
                             ids=["022", "027", "077"])
    def test_new_file_mode_follows_the_umask(self, mask, mode, umask_022, tmp_path):
        os.umask(mask)
        out = tmp_path / "m.txt"
        assert main([*FRACTAL_3_2, str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == mode

    def test_existing_file_keeps_its_mode(self, umask_022, tmp_path):
        out = tmp_path / "m.txt"
        out.write_text("old\n")
        out.chmod(0o640)
        assert main([*FRACTAL_3_2, str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert out.read_text() != "old\n"

    def test_symlink_writes_its_target(self, tmp_path):
        target = tmp_path / "target.txt"
        target.write_text("old\n")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        assert main([*FRACTAL_3_2, str(link)]) == 0
        assert link.is_symlink()
        assert target.read_text() == serialize(fractal.fractal_matrix(3, 2), "ascii")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "target.txt"]


@pytest.mark.parametrize("argv", [
    ["fractal", "--k", "30", "--ell", "30"],
    ["plucker", "--n", "14", "--k", "14"],
    ["incidence", "--n", "40", "--k", "40"],
    # sides within the limit, ones past it
    ["fractal", "--k", "13", "--ell", "13"],
    ["plucker", "--n", "13", "--k", "13"],
    ["incidence", "--n", "28", "--k", "20"],
    # counts past the int-to-str digit limit, or too costly to compute at all
    ["fractal", "--k", "8000", "--ell", "8000"],
    ["incidence", "--n", "40000", "--k", "20000"],
    ["fractal", "--k", "1000000", "--ell", "1000000"],
    ["plucker", "--n", "1000000", "--k", "500000"],
    ["incidence", "--n", "4000000", "--k", "2000000"],
])
def test_size_limit_is_usage_error(argv, capsys):
    started = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert f"past the limit {2**24}" in err
    assert "integer string conversion" not in err


def test_fractal_cache_counts(tmp_path):
    fractal.fractal_matrix.cache_clear()
    fractal.fractal_matrix_blockwise.cache_clear()
    for argv in (["verify", "--suite", "all", "--seed", "0"],
                 ["fractal", "--k", "9", "--ell", "8", "--format", "matrixmarket"],
                 ["fractal", "--k", "9", "--ell", "8", "--format", "alist"],
                 ["plucker", "--n", "8", "--k", "8", "--signed"],
                 ["incidence", "--n", "14", "--k", "8", "--format", "alist"]):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    # every entry stays under the bound, so nothing is built twice
    assert fractal.fractal_matrix.cache_info().misses == 65
    assert fractal.fractal_matrix_blockwise.cache_info().misses == 36


class TestIncidenceCommand:
    def test_known_output(self, capsys):
        assert main(["incidence", "--n", "4", "--k", "4", "--format", "ascii"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["111000", "100110", "010101", "001011"]


class TestPluckerCommand:
    def test_support_matrixmarket(self, capsys):
        assert main(["plucker", "--n", "2", "--k", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("%%MatrixMarket")
        assert lines[1] == "1 6 2"
        assert lines[2:] == ["1 3 1", "1 4 1"]

    def test_signed_entries(self, capsys):
        assert main(["plucker", "--n", "5", "--k", "4", "--signed"]) == 0
        out = capsys.readouterr().out
        assert " -1" in out

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 7) for k in range(2, n + 1)])
    def test_signed_text_matches_entry_by_entry_reference(self, n, k, capsys):
        assert main(["plucker", "--n", str(n), "--k", str(k), "--signed"]) == 0
        row_labels = index_tuples(k - 2, 2 * n)
        col_index = {t: j for j, t in enumerate(index_tuples(k, 2 * n))}
        entries = []
        for i, base in enumerate(row_labels):
            inserted = [contraction_sign_oracle(base, e, n) for e in range(1, n + 1)
                        if {e, 2 * n + 1 - e}.isdisjoint(base)]
            entries.extend(sorted((i, col_index[t], sign) for t, sign in inserted))
        lines = ["%%MatrixMarket matrix coordinate integer general",
                 f"{len(row_labels)} {len(col_index)} {len(entries)}"]
        lines.extend(f"{i + 1} {j + 1} {sign}" for i, j, sign in entries)
        assert capsys.readouterr().out == "\n".join(lines) + "\n"

    def test_signed_requires_matrixmarket(self, capsys):
        assert main(["plucker", "--n", "5", "--k", "4", "--signed",
                     "--format", "ascii"]) == 2
        assert "matrixmarket" in capsys.readouterr().err

    def test_signed_format_refused_before_the_system_is_built(self, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("plucker_matrix was called")

        monkeypatch.setattr(cli, "plucker_matrix", unreachable)
        assert main(["plucker", "--n", "9", "--k", "9", "--signed", "--format", "ascii"]) == 2
        assert capsys.readouterr().err == "error: --signed output needs --format matrixmarket\n"


class TestDecomposeCommand:
    def test_report_validates_against_schema(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["decompose", "--n", "4", "--k", "4", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        validate(payload, load_schema("decompose-report.schema.json"))
        assert len(payload["blocks"]) == 25
        assert len(payload["zero_columns"]) == 16

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            main(["decompose", "--n", "3", "--k", "3", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_command_rebound_after_a_call_is_run(self, tmp_path, monkeypatch):
        # main builds its parser once; the command is looked up at each call
        argv = ["decompose", "--n", "2", "--k", "2", "--out", str(tmp_path / "r.json")]
        assert main(argv) == 0
        calls = []
        monkeypatch.setattr(cli, "_cmd_decompose", lambda args: calls.append(args.n) or 7)
        assert main(argv) == 7
        assert calls == [2]


@pytest.mark.parametrize("argv", [["decompose", "--n", "3", "--k", "2"],
                                  ["verify", "--suite", "plucker"]], ids=" ".join)
def test_failed_decompose_check_exits_one(argv, tmp_path, monkeypatch, capsys):
    # every family member replaced by the zero matrix of its shape
    def zero_member(a, b):
        member = fractal.fractal_matrix(a, b)
        return BinaryMatrix.zero(member.rows, member.cols)

    monkeypatch.setattr(plucker, "fractal_matrix", zero_member)
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 1
    if argv[0] == "decompose":
        err = capsys.readouterr().err
        assert "error: internal check failed: the block at cell ()" in err
        assert not out.exists()
        return
    # inside verify each failed check is a report entry; the report is still written
    payload = json.loads(out.read_text())
    validate(payload, load_schema("verify-report.schema.json"))
    assert payload["passed"] is False
    decomposed = [c for c in payload["checks"] if c["name"].startswith("decompose-")]
    assert [c["passed"] for c in decomposed] == [False] * 4
    assert all(c["details"]["error"].startswith("the block at cell (") for c in decomposed)


class TestPointsCommand:
    def test_summary_and_points_files(self, tmp_path):
        points_path = tmp_path / "points.txt"
        summary_path = tmp_path / "summary.json"
        code = main(["points", "--n", "2", "--k", "2", "--q", "2",
                     "--out", str(points_path), "--summary-out", str(summary_path)])
        assert code == 0
        summary = json.loads(summary_path.read_text())
        validate(summary, load_schema("points-summary.schema.json"))
        assert summary["count"] == 15
        assert summary["expected"] == 15
        assert summary["match"] is True
        assert set(summary) == {"count", "expected", "match", "elapsed"}
        lines = points_path.read_text().splitlines()
        assert len(lines) == 15
        assert all(len(line.split()) == 6 for line in lines)

    def test_oracle_flag(self, tmp_path):
        summary_path = tmp_path / "summary.json"
        code = main(["points", "--n", "2", "--k", "2", "--q", "3", "--oracle",
                     "--out", str(tmp_path / "pts.txt"),
                     "--summary-out", str(summary_path)])
        assert code == 0
        summary = json.loads(summary_path.read_text())
        validate(summary, load_schema("points-summary.schema.json"))
        assert summary["oracle"] == {"count": 40, "match": True}

    def test_points_file_deterministic(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        for path in (a, b):
            main(["points", "--n", "2", "--k", "2", "--q", "3",
                  "--out", str(path),
                  "--summary-out", str(tmp_path / f"{path.stem}-summary.json")])
        assert a.read_bytes() == b.read_bytes()

    def test_budget_refusal(self, capsys):
        code = main(["points", "--n", "3", "--k", "3", "--q", "2",
                     "--budget", "100"])
        assert code == 1
        err = capsys.readouterr().err
        assert "refused" in err and "16384" in err

    def test_held_points_refusal(self, capsys):
        # the budget admits the kernel search; the 24,209,680 points of 45
        # coordinates each would not fit the held-coordinate limit
        code = main(["points", "--n", "5", "--k", "2", "--q", "3", "--oracle",
                     "--budget", str(3**50)])
        assert code == 1
        err = capsys.readouterr().err
        assert "refused" in err and "1089435600" in err and "33554432" in err

    @pytest.mark.parametrize("n,k,q", [(5000, 2, 3), (8000, 8000, 2)])
    def test_held_points_refused_at_once(self, n, k, q, capsys):
        started = time.perf_counter()
        assert main(["points", "--n", str(n), "--k", str(k), "--q", str(q)]) == 1
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err
        assert err.startswith("refused: ") and "held-coordinate limit" in err
        assert len(err) < 300

    @pytest.mark.parametrize("command", [["points", "--n", "2", "--k", "2", "--q", "2"]])
    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_non_positive_budget_is_usage_error(self, command, budget, capsys):
        # the routes reject it, before any work
        assert main(command + ["--budget", budget]) == 2
        assert "must be a positive integer" in capsys.readouterr().err

    def test_int64_limit_is_usage_error(self, capsys):
        code = main(["points", "--n", "2", "--k", "2", "--q", str(2**31 - 1),
                     "--budget", str((2**31 - 1) ** 5)])
        assert code == 2
        assert "2**63" in capsys.readouterr().err

    def test_huge_prime_is_refused_before_the_field_is_built(self, capsys):
        # q = 2**61 - 1 is prime; testing that by trial division would not finish
        code = main(["points", "--n", "2", "--k", "2", "--q", str(2**61 - 1)])
        assert code == 2
        assert "(q-1)**3 < 2**63" in capsys.readouterr().err

    def test_budget_flag(self, tmp_path):
        code = main(["points", "--n", "3", "--k", "3", "--q", "2",
                     "--budget", "1000000",
                     "--out", str(tmp_path / "p.txt"),
                     "--summary-out", str(tmp_path / "s.json")])
        assert code == 0
        assert build_parser().parse_args(
            ["points", "--n", "2", "--k", "2", "--q", "2"]).budget == DEFAULT_BUDGET
        # verify runs fixed instances under the default budget; it takes no --budget
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["verify", "--suite", "points", "--budget", "1000000"])
        assert err.value.code == 2

    def test_failed_oracle_check_exits_one(self, tmp_path, monkeypatch, capsys):
        minors = variety._wedge_minors
        monkeypatch.setattr(variety, "_wedge_minors",
                            lambda bases, q: 2 * minors(bases, q) % q)
        code = main(["points", "--n", "2", "--k", "2", "--q", "3", "--oracle",
                     "--out", str(tmp_path / "pts.txt"),
                     "--summary-out", str(tmp_path / "summary.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: internal check failed:" in err and "first nonzero" in err

    @pytest.mark.parametrize("fault", ["drop a point", "change a coordinate"])
    def test_routes_that_differ_exit_one(self, fault, tmp_path, monkeypatch):
        route = cli.oracle_points

        def faulty(*args, **kwargs):
            result = route(*args, **kwargs)
            (column, rows), *rest = result.cells
            if fault == "drop a point":
                rows = rows[:-1]
            else:
                rows = rows.copy()
                rows[-1, -1] = (rows[-1, -1] + 1) % result.q
            return dataclasses.replace(result, cells=((column, rows), *rest))

        monkeypatch.setattr(cli, "oracle_points", faulty)
        summary_path = tmp_path / "summary.json"
        code = main(["points", "--n", "2", "--k", "2", "--q", "3", "--oracle",
                     "--out", str(tmp_path / "pts.txt"), "--summary-out", str(summary_path)])
        assert code == 1
        summary = json.loads(summary_path.read_text())
        assert summary["match"] is False and summary["oracle"]["match"] is False
        assert summary["oracle"]["count"] == (39 if fault == "drop a point" else 40)

    def test_failed_kernel_check_exits_one(self, tmp_path, monkeypatch, capsys):
        # every echelon form doubled: the reduced forms keep their zeros, and
        # the kernel basis is 2, not 1, at its pivots
        reduce = variety.rref

        def doubled(m):
            pivots, rows = reduce(m)
            return pivots, tuple(tuple((j, 2 * v % m.field.p) for j, v in row) for row in rows)

        monkeypatch.setattr(variety, "rref", doubled)
        code = main(["points", "--n", "2", "--k", "2", "--q", "3",
                     "--out", str(tmp_path / "pts.txt"),
                     "--summary-out", str(tmp_path / "summary.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: internal check failed:" in err and "first nonzero" in err
        assert not (tmp_path / "pts.txt").exists()

    @pytest.mark.parametrize("link", [False, True], ids=["same name", "symlink"])
    def test_one_file_for_both_outputs_is_usage_error(self, link, tmp_path, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("rational_points was called")

        monkeypatch.setattr(cli, "rational_points", unreachable)
        out = tmp_path / "s.txt"
        summary = out
        if link:
            summary = tmp_path / "link.txt"
            summary.symlink_to(out)
        assert main(["points", "--n", "2", "--k", "2", "--q", "3",
                     "--out", str(out), "--summary-out", str(summary)]) == 2
        assert capsys.readouterr().err == (
            f"error: --out and --summary-out are the same file: {summary}\n")
        assert not out.exists()

    def test_one_device_for_both_outputs(self):
        assert main(["points", "--n", "2", "--k", "2", "--q", "3",
                     "--out", os.devnull, "--summary-out", os.devnull]) == 0

    def test_unsigned_is_not_an_option(self):
        with pytest.raises(SystemExit) as err:
            main(["points", "--n", "2", "--k", "2", "--q", "2", "--unsigned"])
        assert err.value.code == 2


class TestVerifyCommand:
    def test_fractal_suite_passes(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--suite", "fractal", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        validate(payload, load_schema("verify-report.schema.json"))
        assert payload["passed"] is True

    def test_incidence_suite_passes(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--suite", "incidence", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        validate(payload, load_schema("verify-report.schema.json"))
        assert all(c["passed"] for c in payload["checks"])


def json_dumps_text(payload):
    """The text a JSON report must hold: the standard library's, indent 2, keys sorted."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestJsonText:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_decompose_text_of_every_report(self, n):
        for k in range(2, n + 1):
            report = decompose(n, k)
            assert cli._decompose_text(report) == json_dumps_text(report.to_json_dict()), (n, k)

    @pytest.mark.parametrize("report", [
        DecompositionReport(3, 2, (), (), (), ()),
        DecompositionReport(5, 4, (Block((0, 4), (1, 2, 7), (2, 1)),), (1, 2, 3), (0,), ()),
        DecompositionReport(2, 2, (Block((0,), (3,), (1, 1)), Block((), (), (2, 1))), (), (), ()),
        DecompositionReport(4, 3, (), (9,), (), ('"', "\\", "\n", "é", "\u2028", 'a "b"\\c\n')),
    ], ids=["no blocks", "zero rows, no flags", "empty block lists", "escaped flags"])
    def test_decompose_text_of_built_reports(self, report):
        assert cli._decompose_text(report) == json_dumps_text(report.to_json_dict())

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "all", "--seed", "0", "--out", "report.json"],
        ["verify", "--suite", "all", "--seed", "1", "--out", "report.json"],
        ["points", "--n", "3", "--k", "2", "--q", "3", "--oracle",
         "--out", "points.txt", "--summary-out", "summary.json"],
    ], ids=" ".join)
    def test_command_reports(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        text = (tmp_path / argv[-1]).read_text()
        assert text == json_dumps_text(json.loads(text))


def package_env():
    """The environment with this checkout's package first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["fractal", "--k", "4", "--ell", "3"],
                                  ["points", "--n", "2", "--k", "2", "--q", "2"],
                                  ["verify", "--suite", "fractal"]], ids=" ".join)
def test_closed_stdout_is_a_failure(argv, buffered):
    # the pipe's read end is closed before the command starts, so every write fails;
    # buffered, what is left in the buffer must not fail again at exit
    env = package_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "isofractal.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, "error: [Errno 32] Broken pipe\n")


def test_device_output_is_written_in_place():
    # /dev/stdout on a pipe resolves to no file that a rename could replace
    done = subprocess.run([sys.executable, "-m", "isofractal.cli", *FRACTAL_3_2, "/dev/stdout"],
                          capture_output=True, text=True, env=package_env(), timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == serialize(fractal.fractal_matrix(3, 2), "ascii")


# each schema's command, less the path its output is written to, which comes last
SCHEMA_COMMANDS = {
    "decompose-report.schema.json": ["decompose", "--n", "4", "--k", "4", "--out"],
    "points-summary.schema.json": ["points", "--n", "2", "--k", "2", "--q", "3", "--oracle",
                                   "--out", "points.txt", "--summary-out"],
    "verify-report.schema.json": ["verify", "--suite", "fractal", "--out"],
}


def declared_properties(schema, path=()):
    """Every property path a schema declares, through nested objects and array items."""
    for name, sub in schema.get("properties", {}).items():
        yield path + (name,)
        yield from declared_properties(sub, path + (name,))
    if "items" in schema:
        yield from declared_properties(schema["items"], path)


def present_properties(value, path=()):
    """Every key path of a JSON value, array items sharing their array's path."""
    if isinstance(value, dict):
        for name, sub in value.items():
            yield path + (name,)
            yield from present_properties(sub, path + (name,))
    elif isinstance(value, list):
        for item in value:
            yield from present_properties(item, path)


@pytest.mark.parametrize("name", sorted(p.name for p in SCHEMAS.glob("*.schema.json")))
def test_every_schema_property_is_written(name, tmp_path, monkeypatch):
    # a property no command writes is a dead field of the schema
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out.json"
    assert main([*SCHEMA_COMMANDS[name], str(out)]) == 0
    payload = json.loads(out.read_text())
    schema = load_schema(name)
    validate(payload, schema)
    assert set(declared_properties(schema)) <= set(present_properties(payload))


def readme_commands():
    """Every ``isofractal`` line of README's "Command line" block, as argv lists."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv[1:] for argv in lines if argv and argv[0] == "isofractal"]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_commands_run(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    build_parser().parse_args(argv)
    assert main(argv) == 0


# sha256 of each command's output file, recorded before the row-sparse rewrite;
# the two points files were recorded before the forms went sparse, the three
# smaller signed systems and verify seed 1 before the system was stored as its
# support plus sign vectors
OUTPUT_SHA256 = {
    ("fractal", "--k", "9", "--ell", "8", "--format", "matrixmarket"):
        "eba1e736407adb5de23f1d6fb5eef7c2ddd9513b5bfa3c8791bc225596307ebc",
    ("fractal", "--k", "9", "--ell", "8", "--format", "alist"):
        "75898a67e9f42503fb2ab0f263d8b761ef1a85460b29b3b537b361f8ba782543",
    ("fractal", "--k", "4", "--ell", "3", "--format", "ascii"):
        "88b91b51d60bf7c4f7141926604b8ad956aee41dd157b1da4fd9d6c4364bfb15",
    ("plucker", "--n", "8", "--k", "8", "--signed"):
        "c023bc2e8f28d826f67988eab90b4ad0090972c61c82731a005b4f793ae796c0",
    ("plucker", "--n", "4", "--k", "3", "--signed"):
        "e4beca4fa965ef46d0ad11683f8a03a123c3794d76ce2bb23d135a4a73f2f607",
    ("plucker", "--n", "7", "--k", "7", "--signed"):
        "37cabc070c2f83332f6f933000162c3c3db241bbc58928652d4506953bf1230f",
    ("plucker", "--n", "9", "--k", "4", "--signed"):
        "7a81ddd74aca7af4f0247a9d3fb489297d8634a46944b01fc381dcde4a0a0109",
    ("plucker", "--n", "5", "--k", "4", "--format", "matrixmarket"):
        "f2a4093cb90b812dd4ef25055327917aa9cfde4daecbd8daa5548bce48d791f1",
    ("plucker", "--n", "5", "--k", "4", "--format", "alist"):
        "835eb6a7b3ddb6d3e443a38caade577afd223a348f65171096cba86ba18b81f9",
    ("incidence", "--n", "14", "--k", "8", "--format", "alist"):
        "360fac0e01a5cbec4c26077824088e8b041015051c465927e4bb71af7c5818f5",
    ("verify", "--suite", "all", "--seed", "0"):
        "7afcd6edbd90af01336c0a4dd86d21fe40ca23ac5c0bd85d032f5d772d2c08c8",
    ("verify", "--suite", "all", "--seed", "1"):
        "7afcd6edbd90af01336c0a4dd86d21fe40ca23ac5c0bd85d032f5d772d2c08c8",
    ("points", "--n", "3", "--k", "3", "--q", "3"):
        "d023231960c85de452ad85277a7371b93bb34d7ec5b6226a7b35751e8e76b6dd",
    ("points", "--n", "3", "--k", "2", "--q", "3"):
        "4999bc29db178e73d370bd66a4d820136e5959d097b3bfe73136b28993fc0cf6",
}


@pytest.mark.parametrize("argv", sorted(OUTPUT_SHA256), ids=" ".join)
def test_output_bytes_pinned(argv, tmp_path):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == OUTPUT_SHA256[argv]
