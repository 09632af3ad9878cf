import math
import random

import pytest

from isofractal.combinat import index_tuples, pair_free_part
from isofractal.fractal import fractal_matrix
from isofractal.gf import FieldMatrix, PrimeField, kernel_basis, rref
from isofractal.plucker import (
    SymplecticForm,
    contraction,
    decompose,
    plucker_matrix,
)


def gram_matrix(n):
    """Gram matrix of the form from its definition: +1 at (i, 2n+1-i) for i <= n."""
    m = 2 * n
    gram = [[0] * m for _ in range(m)]
    for i in range(n):
        gram[i][m - 1 - i] = 1
        gram[m - 1 - i][i] = -1
    return gram


def unit(i, m):
    return [int(j == i) for j in range(m)]


class TestSymplecticForm:
    def test_gram_skew_symmetric_and_invertible(self):
        for n in (1, 2, 3, 4):
            form = SymplecticForm(n)
            m = 2 * n
            gram = [[form.pair_vectors(unit(i, m), unit(j, m)) for j in range(m)]
                    for i in range(m)]
            for i in range(m):
                for j in range(m):
                    assert gram[i][j] == -gram[j][i]
            for p in (2, 3):
                assert rref(FieldMatrix(PrimeField(p), gram)).rank == m

    def test_pairing_values(self):
        form = SymplecticForm(2)
        assert form.pair_vectors(unit(0, 4), unit(3, 4)) == 1
        assert form.pair_vectors(unit(3, 4), unit(0, 4)) == -1
        assert form.pair_vectors(unit(0, 4), unit(1, 4)) == 0

    def test_pair_vectors_matches_gram(self):
        rng = random.Random(0)
        form = SymplecticForm(3)
        gram = gram_matrix(3)
        for _ in range(20):
            x = [rng.randrange(-3, 4) for _ in range(6)]
            y = [rng.randrange(-3, 4) for _ in range(6)]
            direct = form.pair_vectors(x, y)
            via_gram = sum(
                x[i] * gram[i][j] * y[j] for i in range(6) for j in range(6)
            )
            assert direct == via_gram


class TestPluckerMatrix:
    def test_two_two(self):
        pm = plucker_matrix(2, 2)
        assert (pm.support.rows, pm.support.cols) == (1, 6)
        cols = index_tuples(2, 4)
        hits = {cols[j]: s for (_, j), s in pm.signs.items()}
        assert hits == {(1, 4): 1, (2, 3): 1}

    def test_three_three(self):
        pm = plucker_matrix(3, 3)
        assert (pm.support.rows, pm.support.cols) == (6, 20)
        assert pm.support.weight == 12
        assert all(w == 2 for w in pm.support.row_weights())
        zero_cols = [c for c in range(20) if pm.support.col_weight(c) == 0]
        assert len(zero_cols) == 8

    def test_signed_row_terms(self):
        pm = plucker_matrix(5, 4, signed=True)
        i = pm.row_labels.index((1, 8))
        terms = {
            pm.col_labels[j]: s for (r, j), s in pm.signs.items() if r == i
        }
        assert terms == {(1, 2, 8, 9): -1, (1, 4, 7, 8): 1, (1, 5, 6, 8): 1}

    def test_unsigned_coefficients_are_plus_one(self):
        pm = plucker_matrix(5, 4, signed=False)
        for p in (3, 5):
            m = pm.field_matrix(PrimeField(p))
            values = [v for row in m.nonzeros for _, v in row]
            assert len(values) == len(pm.signs)
            assert set(values) == {1}

    def test_row_weights_count_disjoint_pairs(self):
        for n, k in [(3, 3), (4, 4), (5, 4)]:
            pm = plucker_matrix(n, k)
            for i, label in enumerate(pm.row_labels):
                supp = set(label)
                disjoint = sum(
                    1
                    for p in range(1, n + 1)
                    if p not in supp and (2 * n + 1 - p) not in supp
                )
                assert pm.support.row_weight(i) == disjoint

    def test_zero_columns_are_pair_free(self):
        for n, k in [(2, 2), (3, 3), (4, 4), (5, 4)]:
            pm = plucker_matrix(n, k)
            for j, beta in enumerate(pm.col_labels):
                is_zero = pm.support.col_weight(j) == 0
                assert is_zero == (pair_free_part(beta, n) == beta)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            plucker_matrix(3, 1)
        with pytest.raises(ValueError):
            plucker_matrix(3, 4)


def basis_vector(n, k, label):
    cols = index_tuples(k, 2 * n)
    w = [0] * len(cols)
    w[cols.index(label)] = 1
    return w


class TestContraction:
    def test_non_partnered_coordinate_vanishes(self):
        f = PrimeField(2)
        assert contraction(2, 2, basis_vector(2, 2, (1, 2)), f) == (0,)

    def test_partnered_coordinate_survives(self):
        f = PrimeField(3)
        assert contraction(2, 2, basis_vector(2, 2, (1, 4)), f) == (1,)

    def test_interior_pair_sign(self):
        f = PrimeField(3)
        out = contraction(3, 4, basis_vector(3, 4, (1, 2, 4, 5)), f)
        rows = index_tuples(2, 6)
        nonzero = {rows[i]: v for i, v in enumerate(out) if v}
        assert nonzero == {(1, 4): 3 - 1}  # -1 mod 3

    def test_matches_signed_matrix(self):
        rng = random.Random(11)
        for n, k in [(2, 2), (3, 2), (3, 3), (4, 3), (5, 4)]:
            pm = plucker_matrix(n, k, signed=True)
            ncols = pm.support.cols
            for p in (2, 3, 5):
                f = PrimeField(p)
                for _ in range(200):
                    w = [rng.randrange(p) for _ in range(ncols)]
                    assert contraction(n, k, w, f) == pm.apply(w, f)

    def test_unsigned_agrees_in_characteristic_two(self):
        rng = random.Random(12)
        f = PrimeField(2)
        for n, k in [(3, 3), (4, 3), (5, 4)]:
            signed = plucker_matrix(n, k, signed=True)
            unsigned = plucker_matrix(n, k, signed=False)
            for _ in range(20):
                w = [rng.randrange(2) for _ in range(signed.support.cols)]
                assert signed.apply(w, f) == unsigned.apply(w, f)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            contraction(2, 2, [0, 1], PrimeField(2))


class TestDecompose:
    def test_two_two(self):
        report = decompose(2, 2)
        assert report.block_census() == {(2, 1): 1}
        assert len(report.zero_columns) == 4
        assert report.flags == ()

    def test_three_three(self):
        report = decompose(3, 3)
        assert report.block_census() == {(2, 1): 6}
        assert all(len(b.rows) == 1 and len(b.cols) == 2 for b in report.blocks)
        assert len(report.zero_columns) == 8
        assert report.flags  # odd k diverges from the pair-indexed census

    def test_four_four(self):
        report = decompose(4, 4)
        assert report.block_census() == {(3, 2): 1, (2, 1): 24}
        assert len(report.zero_columns) == 16
        assert report.flags == ()

    def test_five_four(self):
        report = decompose(5, 4)
        assert report.block_census() == {(4, 2): 1, (3, 1): 40}
        assert len(report.zero_columns) == 80
        assert report.flags == ()

    def test_blocks_partition_and_witnesses_verify(self):
        pm = plucker_matrix(4, 4)
        report = decompose(4, 4)
        seen_rows = set(report.zero_rows)
        seen_cols = set(report.zero_columns)
        for block in report.blocks:
            assert not (set(block.rows) & seen_rows)
            assert not (set(block.cols) & seen_cols)
            seen_rows |= set(block.rows)
            seen_cols |= set(block.cols)
            sub = pm.support.submatrix(block.rows, block.cols)
            target = fractal_matrix(block.fractal.k, block.fractal.ell)
            assert block.witness.apply(sub) == target
        assert seen_rows == set(range(pm.support.rows))
        assert seen_cols == set(range(pm.support.cols))

    def test_kernel_dimension_bookkeeping(self):
        for n, k in [(2, 2), (3, 2), (3, 3), (4, 3), (5, 4)]:
            pm = plucker_matrix(n, k, signed=True)
            for p in (2, 3, 5):
                f = PrimeField(p)
                m = pm.field_matrix(f)
                assert len(kernel_basis(m)) == math.comb(2 * n, k) - rref(m).rank

    def test_json_shape(self):
        payload = decompose(3, 3).to_json_dict()
        assert set(payload) == {"n", "k", "blocks", "zero_rows", "zero_columns", "flags"}
        assert all(set(b) == {"rows", "cols", "fractal"} for b in payload["blocks"])

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            decompose(8, 8)
        with pytest.raises(ValueError):
            decompose(3, 2 + 3)
