"""Acceptance suite: one test per criterion, exact assertions, stated time limits.

Each test prints a single PASS line on success (pytest -s shows them); any
assertion failure marks the criterion failed.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from isofractal.bitmatrix import BinaryMatrix, deserialize, serialize
from isofractal.fractal import fractal_matrix, fractal_matrix_blockwise, verify_fractal
from isofractal.gf import PrimeField
from isofractal.incidence import (
    incidence_matrix,
    verify_configuration,
    verify_incidence_fractal_match,
)
from isofractal.plucker import contraction, decompose, plucker_matrix
from isofractal.variety import expected_count, oracle_points, rational_points

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


def report(num, text):
    print(f"[criterion {num:02d}] PASS {text}")


def test_criterion_01_golden_fixture():
    fixture = deserialize("\n".join(GOLDEN_4_3), "ascii")
    m = fractal_matrix(4, 3)  # warm the memo before timing
    assert m == fixture
    assert m.weight == 60
    assert Fraction(m.weight, m.rows * m.cols) == Fraction(1, 5)
    assert m.density == 0.2
    best = min(
        _timed(lambda: fractal_matrix(4, 3)) for _ in range(10)
    )
    assert best < 1e-3, f"memoized construction took {best:.6f}s"
    report(1, f"golden 15x20 fixture reproduced bit-exactly ({best * 1e6:.0f}us)")


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_02_fractal_laws():
    start = time.perf_counter()
    result = verify_fractal(6, 6)
    assert result["passed"]
    for entry in result["checks"]:
        assert entry["routes_agree"], entry
        assert entry["shape_ok"], entry
        assert entry["row_weights_ok"] and entry["col_weights_ok"], entry
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"{elapsed:.2f}s"
    report(2, f"construction laws hold for all k, ell <= 6 ({elapsed:.2f}s)")


def test_criterion_03_incidence_laws():
    start = time.perf_counter()
    checked = 0
    for n in range(2, 11):
        for k in range(2, n + 1, 2):
            result = verify_configuration(n, k)
            assert result["passed"], (n, k, result)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"{elapsed:.2f}s"
    report(3, f"incidence laws hold for all even k <= n <= 10, {checked} cases "
              f"({elapsed:.2f}s)")


def test_criterion_04_incidence_fractal_equivalence():
    start = time.perf_counter()
    result = verify_incidence_fractal_match(8, n_max=10)
    assert result["passed"]
    assert result["square_shape"] == (56, 70)
    # lex order, which is also the triangle order, gives the family member bit for bit
    assert result["square_equal"]
    assert len(result["sweep"]) == 45
    assert all(entry["equal"] for entry in result["sweep"])
    assert incidence_matrix(4, 4) == fractal_matrix(3, 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"{elapsed:.2f}s"
    report(4, f"incidence/fractal equality, n <= 10 ({elapsed:.2f}s)")


def test_criterion_05_decomposition():
    start = time.perf_counter()
    expectations = {
        (2, 2): {(2, 1): 1},
        (3, 3): {(2, 1): 6},
        (4, 4): {(3, 2): 1, (2, 1): 24},
        (5, 4): {(4, 2): 1, (3, 1): 40},
        (7, 7): {(4, 3): 14, (3, 2): 280, (2, 1): 672},
        (8, 7): {(3, 1): 1792, (4, 2): 448, (5, 3): 16},
        (8, 8): {(2, 1): 1792, (3, 2): 1120, (4, 3): 112, (5, 4): 1},
        (9, 9): {(2, 1): 4608, (3, 2): 4032, (4, 3): 672, (5, 4): 18},
    }
    for (n, k), census in expectations.items():
        case_start = time.perf_counter()
        result = decompose(n, k)
        case_elapsed = time.perf_counter() - case_start
        assert result.block_census() == census, (n, k)
        free = math.comb(n, k) * 2**k if k <= n else 0
        assert len(result.zero_columns) == free
        total_rows = sum(len(b.rows) for b in result.blocks) + len(result.zero_rows)
        total_cols = sum(len(b.cols) for b in result.blocks) + len(result.zero_columns)
        assert total_rows == math.comb(2 * n, k - 2)
        assert total_cols == math.comb(2 * n, k)
        if k % 2:
            assert result.flags, "odd k must flag the pair-indexed census"
        else:
            assert result.flags == ()
        if (n, k) == (7, 7):
            assert total_rows == 2002
            assert case_elapsed < 60.0, f"{case_elapsed:.2f}s"
    elapsed = time.perf_counter() - start
    report(5, f"block decompositions verified on 8 instances ({elapsed:.2f}s)")


def test_criterion_06_contraction_consistency():
    rng = random.Random(2024)
    for n, k in [(2, 2), (3, 3), (4, 3), (5, 4)]:
        signed = plucker_matrix(n, k, signed=True)
        unsigned = plucker_matrix(n, k, signed=False)
        ncols = signed.support.cols
        for q in (2, 3, 5):
            field = PrimeField(q)
            for _ in range(200):
                w = [rng.randrange(q) for _ in range(ncols)]
                direct = contraction(n, k, w, field)
                sparse = tuple((j, v) for j, v in enumerate(w) if v)
                assert direct == signed.apply(sparse, field)
                if q == 2:
                    assert direct == unsigned.apply(sparse, field)
    report(6, "contraction equals the signed matrix on 200 vectors x 4 instances "
              "x GF(2,3,5)")


def test_criterion_07_rational_points():
    expectations = {
        (2, 2, 2): 15,
        (2, 2, 3): 40,
        (2, 2, 5): 156,
        (3, 2, 2): 315,
        (3, 3, 2): 135,
    }
    for (n, k, q), count in expectations.items():
        start = time.perf_counter()
        found = rational_points(n, k, q)
        oracle = oracle_points(n, k, q)
        elapsed = time.perf_counter() - start
        assert found.count == expected_count(n, k, q) == count, (n, k, q)
        assert found.points == oracle.points, (n, k, q)
        assert elapsed < 60.0, f"({n},{k},{q}) took {elapsed:.2f}s"
    report(7, "point counts and oracle set-equality on all 5 instances")


@pytest.mark.slow
def test_criterion_08_stretch_enumeration():
    start = time.perf_counter()
    found = rational_points(3, 3, 3)
    oracle = oracle_points(3, 3, 3)
    elapsed = time.perf_counter() - start
    assert found.count == 1120
    assert found.points == oracle.points
    assert elapsed < 600.0, f"{elapsed:.2f}s"
    report(8, f"(3,3,3) signed enumeration yields 1120 oracle-equal points "
              f"({elapsed:.1f}s)")


def test_criterion_09_serialization_roundtrips():
    rng = random.Random(99)
    matrices = []
    for _ in range(100):
        rows = rng.randrange(1, 13)
        cols = rng.randrange(1, 13)
        coords = {
            (r, c)
            for r in range(rows)
            for c in range(cols)
            if rng.random() < 0.25
        }
        matrices.append(BinaryMatrix.from_coords(rows, cols, coords))
    matrices.append(fractal_matrix(4, 3))
    matrices.append(plucker_matrix(4, 4).support)
    for m in matrices:
        for fmt in ("matrixmarket", "alist", "ascii"):
            assert deserialize(serialize(m, fmt), fmt) == m
    report(9, "all three formats round-trip bit-exactly on 102 matrices")


def test_criterion_10_density_is_computed_not_asserted():
    # densities are plain ratios; no asymptotic limit is claimed anywhere
    for n, k in [(4, 4), (6, 4), (8, 6), (10, 8)]:
        m = incidence_matrix(n, k)
        assert m.density == m.weight / (m.rows * m.cols)
        assert Fraction(m.weight, m.rows * m.cols) == Fraction(
            (n - (k - 2) // 2) * m.rows, m.rows * m.cols
        )
    report(10, "density bookkeeping exact; no asymptotic claims asserted")
