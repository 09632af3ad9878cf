import math

import pytest

from isofractal import fractal
from isofractal.bitmatrix import BinaryMatrix, deserialize
from isofractal.fractal import (
    fractal_matrix,
    fractal_matrix_blockwise,
    verify_fractal,
)

# Frozen golden fixture: the 15 x 20 member with row weight 4 and column
# weight 3, hand-checked; both construction routes must reproduce it bit for
# bit.
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


def golden_fixture():
    return deserialize("\n".join(GOLDEN_4_3), "ascii")


class TestConstruction:
    def test_golden_fixture(self):
        m = fractal_matrix(4, 3)
        assert m == golden_fixture()
        assert m.weight == 60
        assert m.density == 0.2

    def test_row_base_case(self):
        for k in range(1, 8):
            assert fractal_matrix(k, 1) == BinaryMatrix.all_ones(1, k)

    def test_smallest_square(self):
        expected = deserialize("110\n101\n011", "ascii")
        assert fractal_matrix(2, 2) == expected
        assert fractal_matrix_blockwise(2, 2) == expected

    def test_blockwise_matches_fixture(self):
        assert fractal_matrix_blockwise(4, 3) == golden_fixture()

    def test_blockwise_dimensions(self):
        m = fractal_matrix_blockwise(5, 4)
        assert (m.rows, m.cols) == (math.comb(8, 3), math.comb(8, 4)) == (56, 70)

    def test_domain_errors(self):
        for bad in [(0, 1), (1, 0), (-1, 2)]:
            with pytest.raises(ValueError):
                fractal_matrix(*bad)
            with pytest.raises(ValueError):
                fractal_matrix_blockwise(*bad)

    def test_params_value(self):
        # (k, ell) is a plain pair; both builders check it before building
        fractal._check_params(4, 3)
        for build in (fractal_matrix, fractal_matrix_blockwise):
            with pytest.raises(ValueError):
                build(0, 3)
            # the size limit MAX_DIMENSION is checked before anything is built
            for k, ell in [(40, 40), (30, 30)]:
                with pytest.raises(ValueError, match="past the limit"):
                    build(k, ell)
        fractal._check_params(9, 8)


class TestHeldObjects:
    # a shifted entry is a new int above 256; the builders share one per column
    @pytest.mark.parametrize("k,ell", [(k, ell) for k in range(1, 7) for ell in range(1, 7)]
                             + [(9, 8)])
    def test_paste_route_holds_one_int_per_column(self, k, ell):
        m = fractal_matrix(k, ell)
        assert {c for row in m.row_adj for c in row} == set(range(m.cols))  # no zero column
        assert len({id(c) for row in m.row_adj for c in row}) == m.cols

    def test_block_route_holds_at_most_two_ints_per_column(self):
        m = fractal_matrix_blockwise(9, 8)
        assert len({id(c) for row in m.row_adj for c in row}) <= 2 * m.cols


class TestStructuralLaws:
    def test_route_equivalence_and_weights(self):
        for k in range(1, 8):
            for ell in range(1, 8):
                a = fractal_matrix(k, ell)
                assert a == fractal_matrix_blockwise(k, ell)
                n = k + ell - 1
                assert (a.rows, a.cols) == (math.comb(n, ell - 1), math.comb(n, ell))
                assert all(w == k for w in a.row_weights())
                assert all(w == ell for w in a.col_weights())

    def test_self_similarity(self):
        # dropping the leading block rows/columns exposes [I | A(k-1, ell)]
        for k in range(2, 6):
            for ell in range(2, 6):
                a = fractal_matrix(k, ell)
                r1 = math.comb(k + ell - 2, ell - 2)
                c1 = math.comb(k + ell - 2, ell - 1)
                bottom = a.submatrix(range(r1, a.rows), range(a.cols))
                assert bottom.submatrix(range(bottom.rows), range(c1)) == \
                    BinaryMatrix(c1, c1, tuple((i,) for i in range(c1)))
                assert bottom.submatrix(range(bottom.rows), range(c1, a.cols)) == \
                    fractal_matrix(k - 1, ell)

    def test_verify_report_all_pass(self):
        report = verify_fractal(6, 6)
        assert report["passed"]
        assert len(report["checks"]) == 36
        largest = [c for c in report["checks"] if c["k"] == 6 and c["ell"] == 6][0]
        assert largest["passed"]
        assert fractal_matrix(6, 6).rows == 462

    def test_reversed_identity_fails(self, monkeypatch):
        # the paste route with an anti-diagonal under each part: route agreement
        # alone must catch it, as the recursion [A(k, ell-1), 0; I, A(k-1, ell)]
        # holds for the paste route exactly where the routes agree
        def paste_reversed_identity(k, ell):
            if ell == 1:
                return BinaryMatrix.all_ones(1, k)
            parts = [fractal.fractal_matrix(j, ell - 1) for j in range(k, 0, -1)]
            rows = parts[0].rows + parts[0].cols
            coords, offset = set(), 0
            for part in parts:
                top = rows - part.rows - part.cols
                coords.update((top + r, offset + c)
                              for r, row in enumerate(part.row_adj) for c in row)
                coords.update((rows - 1 - c, offset + c) for c in range(part.cols))
                offset += part.cols
            return BinaryMatrix.from_coords(rows, offset, coords)

        routes = (fractal_matrix, fractal_matrix_blockwise)
        monkeypatch.setattr(fractal, "fractal_matrix", paste_reversed_identity)
        for route in routes:
            route.cache_clear()
        try:
            assert not verify_fractal(4, 4)["passed"]
        finally:
            for route in routes:
                route.cache_clear()

    def test_verify_trivial_case(self):
        report = verify_fractal(1, 1)
        assert report["passed"]
        assert report["checks"][0]["ones"] == 1

    def test_verify_reports_density(self):
        report = verify_fractal(4, 3)
        entry = [c for c in report["checks"] if c["k"] == 4 and c["ell"] == 3][0]
        assert entry["density"] == 0.2

    def test_verify_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            verify_fractal(0, 3)
