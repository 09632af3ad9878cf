import math
from itertools import combinations

import pytest

import isofractal.incidence as incidence
from isofractal.bitmatrix import BinaryMatrix
from isofractal.combinat import index_tuples
from isofractal.fractal import fractal_matrix
from isofractal.incidence import (
    incidence_matrix,
    verify_configuration,
    verify_incidence_fractal_match,
)
from test_combinat import rank


def containment_oracle(low, high, n):
    """Direct subset-containment evaluation, independent of incidence_matrix."""
    rows = list(combinations(range(1, n + 1), low))
    cols = list(combinations(range(1, n + 1), high))
    ones = [(i, j) for i, a in enumerate(rows) for j, b in enumerate(cols) if set(a) <= set(b)]
    return BinaryMatrix.from_coords(len(rows), len(cols), ones)


class TestIncidenceMatrix:
    def test_four_four_fixture(self):
        m = incidence_matrix(4, 4)
        assert m.to_text_rows() == ["111000", "100110", "010101", "001011"]

    def test_k_two_all_ones_row(self):
        assert incidence_matrix(3, 2) == BinaryMatrix.all_ones(1, 3)

    def test_eight_eight_shape_and_weights(self):
        m = incidence_matrix(8, 8)
        assert (m.rows, m.cols) == (math.comb(8, 3), math.comb(8, 4)) == (56, 70)
        assert all(w == 5 for w in m.row_weights())
        assert all(w == 4 for w in m.col_weights())

    def test_matches_direct_containment(self):
        cases = [(n, k) for n in range(2, 8) for k in range(2, n + 1)] + [(14, 8)]
        for n, k in cases:
            assert incidence_matrix(n, k) == containment_oracle(
                (k - 2) // 2, k // 2, n
            )

    def test_configuration_member_counts(self):
        m = incidence_matrix(5, 4)
        assert all(w == 5 - (4 - 2) // 2 for w in m.row_weights())
        member_sets = set(m.row_adj)
        assert len(member_sets) == m.rows == 5

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            incidence_matrix(3, 1)
        with pytest.raises(ValueError):
            incidence_matrix(3, 4)


class TestVerifyConfiguration:
    def test_six_four(self):
        report = verify_configuration(6, 4)
        assert report["passed"]
        m = incidence_matrix(6, 4)
        assert all(w == 5 for w in m.row_weights())
        assert all(w == 2 for w in m.col_weights())

    def test_four_four_pairwise_intersections(self):
        report = verify_configuration(4, 4)
        assert report["passed"] and report["intersections_ok"]

    def test_degenerate_two_two(self):
        report = verify_configuration(2, 2)
        assert report["passed"]
        assert report["rows"] == 1

    def test_full_even_sweep(self):
        for n in range(2, 11):
            for k in range(2, n + 1, 2):
                assert verify_configuration(n, k)["passed"], (n, k)

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            verify_configuration(5, 3)

    def test_rows_sharing_two_columns_fail(self, monkeypatch):
        # (4, 4): the rows of labels (1,) and (2,) share the column {1, 2} only;
        # moving row (1,) off {1, 4} onto {2, 3} makes them share two
        m = incidence_matrix(4, 4)
        assert m.row_adj[:2] == ((0, 1, 2), (0, 3, 4))
        planted = BinaryMatrix(m.rows, m.cols, ((0, 1, 3),) + m.row_adj[1:])
        monkeypatch.setattr(incidence, "incidence_matrix", lambda n, k: planted)
        report = verify_configuration(4, 4)
        assert report["row_weight_ok"] and report["rows_distinct_ok"]
        assert not report["intersections_ok"]
        assert not report["passed"]

    def test_row_at_a_non_neighbour_fails_the_criterion(self, monkeypatch):
        # (6, 6): swapping the rows of the disjoint labels (1, 2) and (3, 4)
        # keeps every weight and intersection, but row (1, 2) then misses
        # its neighbour (1, 5) and meets its non-neighbour (3, 5)
        m = incidence_matrix(6, 6)
        labels = index_tuples(2, 6)
        a, b = labels.index((1, 2)), labels.index((3, 4))
        rows = list(m.row_adj)
        rows[a], rows[b] = rows[b], rows[a]
        planted = BinaryMatrix(m.rows, m.cols, tuple(rows))
        monkeypatch.setattr(incidence, "incidence_matrix", lambda n, k: planted)
        report = verify_configuration(6, 6)
        assert all(report[key] for key in ("row_weight_ok", "col_weight_ok",
                                           "intersections_ok", "rows_distinct_ok"))
        assert not report["neighbor_criterion_ok"]
        assert not report["passed"]


def triangle_row_order(m):
    """Row labels of the square-case configuration in nested triangle order.

    Labels are the (m-2)/2-tuples over [m], m even and at least 8.  They are
    grouped by their first (m-6)/2 entries; each group is one triangle,
    emitted row by row: first all labels sharing the smallest admissible next
    entry, then the next, and so on.  Every label appears exactly once.
    """
    width = (m - 2) // 2
    out = []
    for prefix in index_tuples(width - 2, m):
        last = prefix[-1] if prefix else 0
        if last > m - 2:  # no room left for the two trailing entries
            continue
        for j in range(last + 1, m):
            out.extend(prefix + (j, t) for t in range(j + 1, m + 1))
    return out


class TestTriangleRowOrder:
    def test_m8_length_and_start(self):
        order = triangle_row_order(8)
        assert len(order) == math.comb(8, 3) == 56
        assert order[0] == (1, 2, 3)

    def test_m8_first_row_block(self):
        assert triangle_row_order(8)[:6] == [(1, 2, j) for j in range(3, 9)]

    def test_m10_is_bijective_reordering(self):
        order = triangle_row_order(10)
        assert len(order) == math.comb(10, 4) == 210
        assert len(set(order)) == 210
        assert set(order) == set(index_tuples(4, 10))

    def test_triangle_traversal_coincides_with_lex(self):
        # prefix-major traversal with lex tails reproduces plain lex order, so
        # the square matrix in triangle row order is the lex-ordered one; the
        # traversal is kept structural so this stays a real cross-check
        for m in (8, 10, 12, 14):
            assert triangle_row_order(m) == index_tuples((m - 2) // 2, m)


class TestIncidenceRow:
    """The row of label p in the square matrix is row rank(p), the supersets of p."""

    def row(self, m, p):
        return incidence_matrix(m, m).row_adj[rank(p, m)]

    def test_known_supersets(self):
        cols = index_tuples(4, 8)
        hits = [cols[j] for j in self.row(8, (1, 2, 3))]
        assert hits == [(1, 2, 3, j) for j in range(4, 9)]

    def test_symmetric_label_weight(self):
        assert len(self.row(8, (6, 7, 8))) == 5

    def test_injective_on_labels(self):
        rows = {self.row(8, p) for p in index_tuples(3, 8)}
        assert len(rows) == math.comb(8, 3)


class TestFractalMatch:
    def test_m8_report(self):
        report = verify_incidence_fractal_match(8, n_max=8)
        assert report["passed"]
        assert report["square_shape"] == (56, 70)
        assert report["square_equal"]
        assert [(e["n"], e["k"]) for e in report["sweep"]] == [
            (n, k) for n in range(2, 9) for k in range(2, n + 1)
        ]
        assert all(e["equal"] for e in report["sweep"])

    def test_square_equals_family_member(self):
        for m in (8, 10, 12):
            r = (m + 2) // 2
            assert incidence_matrix(m, m) == fractal_matrix(r, r - 1)

    def test_row_reversed_targets_fail(self, monkeypatch):
        # row-reversed targets are permutation equivalent but not equal,
        # so an equivalence check would pass here and an equality check fails
        def reversed_rows(k, ell):
            b = fractal_matrix(k, ell)
            if (k, ell) == (5, 4):
                return b
            return BinaryMatrix(b.rows, b.cols, b.row_adj[::-1])

        monkeypatch.setattr(incidence, "fractal_matrix", reversed_rows)
        report = verify_incidence_fractal_match(8, n_max=6)
        assert report["square_equal"]
        assert not all(e["equal"] for e in report["sweep"])
        assert not report["passed"]

    def test_empty_sweep_rejected(self):
        for n_max in (1, 0):
            with pytest.raises(ValueError):
                verify_incidence_fractal_match(8, n_max=n_max)

    def test_four_four_bit_exact(self):
        assert incidence_matrix(4, 4) == fractal_matrix(3, 2)

    def test_k_two_equals_ones_row(self):
        for n in range(2, 9):
            assert incidence_matrix(n, 2) == fractal_matrix(n, 1)

    def test_bad_m_rejected(self):
        with pytest.raises(ValueError):
            verify_incidence_fractal_match(7)
        with pytest.raises(ValueError):
            verify_incidence_fractal_match(14)
