import math
import random

import numpy as np
import pytest

from isofractal.fractal import fractal_matrix
from isofractal.gf import (
    FieldMatrix,
    PrimeField,
    kernel_basis,
    rref,
)
from isofractal.plucker import plucker_matrix


def dense_matrix(field, rows, ncols=None):
    """The FieldMatrix of dense rows, entries reduced mod p; ``ncols`` defaults to the first row's."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    p = field.p
    assert all(len(row) == ncols for row in rows)
    return FieldMatrix(field, tuple(tuple((j, v % p) for j, v in enumerate(row) if v % p)
                                    for row in rows), ncols)


def dense_rows(m):
    """The rows of a FieldMatrix as dense lists of residues."""
    out = []
    for row in m.nonzeros:
        values = [0] * m.ncols
        for j, v in row:
            values[j] = v
        out.append(values)
    return out


def naive_rref(field, rows, ncols):
    """Plain re-implementation of elimination, kept free of the library paths."""
    p = field.p
    a = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        for i in range(r, len(a)):
            if a[i][c] % p:
                a[r], a[i] = a[i], a[r]
                break
        else:
            continue
        inv = pow(a[r][c], p - 2, p)
        a[r] = [(x * inv) % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] % p:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def assert_rref_is_naive(m, rows):
    """``rref(m)`` is ``naive_rref``'s pivots and nonzero rows; ``rows`` are m's dense rows."""
    pivots, reduced = rref(m)
    oracle_rows, oracle_pivots = naive_rref(m.field, rows, m.ncols)
    assert list(pivots) == oracle_pivots
    # the oracle's rows past the rank are zero; wrapping the rows checks each one
    assert dense_rows(FieldMatrix(m.field, reduced, m.ncols)) == oracle_rows[:len(pivots)]


def naive_kernel(field, rows, ncols):
    """Kernel back-substituted from ``naive_rref``, one vector per free column."""
    reduced, pivots = naive_rref(field, rows, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [0] * ncols
        v[free] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-reduced[i][free]) % field.p
        basis.append(tuple(v))
    return basis


def reference_kernel(m):
    """The kernel as dense tuples, back-substituted from ``rref`` one coordinate at a time."""
    pivots, rows = rref(m)
    p = m.field.p
    pivot_set = set(pivots)
    back = {}
    for pivot, row in zip(pivots, rows, strict=True):
        for j, v in row:
            if j != pivot:
                back.setdefault(j, []).append((pivot, p - v))
    basis = []
    for free in range(m.ncols):
        if free in pivot_set:
            continue
        v = [0] * m.ncols
        v[free] = 1
        for pivot, value in back.get(free, ()):
            v[pivot] = value
        basis.append(tuple(v))
    return basis


def random_block_sum(rng, p):
    """Dense rows of a shuffled direct sum of random blocks, plus zero rows and columns."""
    shapes = [(rng.randint(1, 5), rng.randint(1, 6)) for _ in range(rng.randint(1, 5))]
    nrows = sum(r for r, _ in shapes) + rng.randint(0, 3)
    ncols = sum(c for _, c in shapes) + rng.randint(0, 3)
    row_at = rng.sample(range(nrows), nrows)
    col_at = rng.sample(range(ncols), ncols)
    rows = [[0] * ncols for _ in range(nrows)]
    r0 = c0 = 0
    for br, bc in shapes:
        for i in range(br):
            for j in range(bc):
                rows[row_at[r0 + i]][col_at[c0 + j]] = rng.randrange(p)
        r0 += br
        c0 += bc
    return rows, ncols


def signed_components(pm):
    """Row and column index lists of each connected component of the system's support."""
    by_row, by_col = {}, {}
    for i, j in pm.signs:
        by_row.setdefault(i, []).append(j)
        by_col.setdefault(j, []).append(i)
    seen, components = set(), []
    for start in by_row:
        if start in seen:
            continue
        seen.add(start)
        rows, cols, stack = [start], set(), [start]
        while stack:
            for j in by_row[stack.pop()]:
                if j not in cols:
                    cols.add(j)
                    for i in by_col[j]:
                        if i not in seen:
                            seen.add(i)
                            rows.append(i)
                            stack.append(i)
        components.append((sorted(rows), sorted(cols)))
    return components


class TestPrimeField:
    def test_accepts_primes(self):
        for p in (2, 3, 5, 7, 11, 97):
            PrimeField(p)

    def test_rejects_composites(self):
        for p in (0, 1, 4, 9, 91):
            with pytest.raises(ValueError):
                PrimeField(p)


class TestRref:
    def test_identity_fixed_point(self):
        f = PrimeField(2)
        m = dense_matrix(f, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert rref(m) == ((0, 1, 2), m.nonzeros)

    def test_zero_matrix(self):
        f = PrimeField(3)
        m = dense_matrix(f, [[0, 0], [0, 0]])
        assert rref(m) == ((), ())

    def test_plucker_three_three_rank(self):
        f = PrimeField(2)
        m = plucker_matrix(3, 3).field_matrix(f)
        pivots, _ = rref(m)
        assert len(pivots) == 6

    def test_idempotent(self):
        rng = random.Random(1)
        for p in (2, 3, 5):
            f = PrimeField(p)
            rows = [[rng.randrange(p) for _ in range(9)] for _ in range(6)]
            pivots, reduced = rref(dense_matrix(f, rows))
            assert rref(FieldMatrix(f, reduced, 9)) == (pivots, reduced)

    def test_against_naive_oracle(self):
        rng = random.Random(42)
        for p in (2, 3, 5):
            f = PrimeField(p)
            for _ in range(10):
                rows = [[rng.randrange(p) for _ in range(14)] for _ in range(10)]
                # reduced echelon form is unique, so they must agree entrywise
                assert_rref_is_naive(dense_matrix(f, rows), rows)

    @pytest.mark.parametrize("n,k,p", [(5, 4, 3), (6, 6, 3)])
    def test_signed_system_against_naive_oracle(self, n, k, p):
        pm = plucker_matrix(n, k, signed=True)
        dense = [[0] * pm.support.cols for _ in range(pm.support.rows)]
        for i, row in enumerate(pm.signed_rows):
            for j, sign in row:
                dense[i][j] = sign
        assert_rref_is_naive(pm.field_matrix(PrimeField(p)), dense)


class TestBlockwiseElimination:
    """rref and kernel_basis eliminate per component; compare with whole-matrix naive_rref."""

    def check(self, f, rows, ncols):
        m = dense_matrix(f, rows, ncols)
        assert_rref_is_naive(m, rows)
        basis = kernel_basis(m)
        expected = naive_kernel(f, rows, ncols)
        assert basis.dtype == np.int64 and basis.shape == (len(expected), ncols)
        assert [tuple(v) for v in basis.tolist()] == expected

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_shuffled_direct_sums(self, p):
        rng = random.Random(100 + p)
        f = PrimeField(p)
        for _ in range(40):
            self.check(f, *random_block_sum(rng, p))

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_one_dense_component(self, p):
        rng = random.Random(200 + p)
        f = PrimeField(p)
        rows = [[rng.randrange(1, p) for _ in range(21)] for _ in range(12)]
        self.check(f, rows, 21)

    @pytest.mark.parametrize("p", [2, 3])
    def test_no_rows(self, p):
        f = PrimeField(p)
        self.check(f, [], 4)
        assert rref(dense_matrix(f, [], 4)) == ((), ())

    @pytest.mark.parametrize("p", [2, 5])
    def test_all_zero(self, p):
        self.check(PrimeField(p), [[0] * 5 for _ in range(3)], 5)


class TestSparseStorage:
    @pytest.mark.parametrize("n,k", [(3, 3), (5, 4)])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_field_matrix_matches_dense_rows(self, n, k, p):
        f = PrimeField(p)
        pm = plucker_matrix(n, k, signed=True)
        dense = [[0] * pm.support.cols for _ in range(pm.support.rows)]
        for (i, j), sign in pm.signs.items():
            dense[i][j] = sign
        sparse = pm.field_matrix(f)
        built = dense_matrix(f, dense, pm.support.cols)
        assert sparse == built
        assert hash(sparse) == hash(built)
        negative = [ij for ij, sign in pm.signs.items() if sign == -1]
        assert negative
        sparse_dense = dense_rows(sparse)
        for i, j in negative:
            assert sparse_dense[i][j] == p - 1

    def test_bad_nonzero_columns_rejected(self):
        f = PrimeField(3)
        assert FieldMatrix(f, (((0, 1), (2, 2)), ()), 3).nrows == 2
        for row in (((3, 1),), ((-1, 1),), ((0, 1), (0, 2)), ((2, 1), (0, 1)),
                    ((0, 0),), ((0, 3),), ((0, -1),), [(0, 1)]):
            with pytest.raises(ValueError):
                FieldMatrix(f, (row,), 3)
        with pytest.raises(ValueError):
            FieldMatrix(f, [((0, 1),)], 3)

    def test_numpy_residue_rejected(self):
        # in range, but rref's pow(v, -1, p) would raise TypeError on it
        with pytest.raises(ValueError, match="int residues"):
            FieldMatrix(PrimeField(7), (((0, np.int64(3)),),), 1)


def wilson_rank(t, k, v, p):
    """rank over GF(p) of the t-subsets vs k-subsets inclusion matrix of a v-set.

    For t <= min(k, v - k), the sum of C(v, i) - C(v, i - 1) over 0 <= i <= t
    with p not dividing C(k - i, t - i): R. M. Wilson, "A diagonal form for the
    incidence matrices of t-subsets vs. k-subsets", European J. Combin. 11
    (1990) 609-615.
    """
    return sum(math.comb(v, i) - (math.comb(v, i - 1) if i else 0)
               for i in range(t + 1) if math.comb(k - i, t - i) % p)


def wilson_kernel_dimension(n, k, p):
    """dim of the signed system's kernel over GF(p), from the block census and Wilson's rank.

    The C(n, k) * 2**k pair-free columns are zero columns.  Each of the
    C(n, k - 2j) * 2**(k - 2j) blocks A(a, j), a = n - k + j + 1, is a sign
    switching of the inclusion matrix of (j-1)-subsets vs j-subsets of an
    (a + j - 1)-set, so it adds its columns less that matrix's rank.
    """
    d = math.comb(n, k) * 2**k
    for j in range(1, k // 2 + 1):
        a = n - k + j + 1
        nullity = math.comb(a + j - 1, j) - wilson_rank(j - 1, j, a + j - 1, p)
        d += math.comb(n, k - 2 * j) * 2 ** (k - 2 * j) * nullity
    return d


class TestKernelDimensions:
    """Dimensions of the signed system's kernel at sizes beyond whole-matrix elimination."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_wilson_closed_form(self, p):
        for n in range(2, 7):
            for k in range(2, n + 1):
                basis = kernel_basis(plucker_matrix(n, k, signed=True).field_matrix(PrimeField(p)))
                assert len(basis) == wilson_kernel_dimension(n, k, p), (n, k)

    def test_wilson_closed_form_pins(self):
        assert [wilson_kernel_dimension(7, 7, p) for p in (2, 3, 5)] == [1780, 1444, 1430]
        assert wilson_kernel_dimension(7, 6, 3) == 2003
        # past every p > k // 2 the blocks have full row rank: d = C(2n, k) - C(2n, k - 2)
        assert wilson_kernel_dimension(7, 7, 11) == math.comb(14, 7) - math.comb(14, 5) == 1430

    def test_six_six(self):
        pm = plucker_matrix(6, 6, signed=True)
        assert len(kernel_basis(pm.field_matrix(PrimeField(2)))) == 494
        assert len(kernel_basis(pm.field_matrix(PrimeField(3)))) == 430

    def test_eight_eight_gf2_matches_census(self):
        pm = plucker_matrix(8, 8, signed=True)
        m = pm.field_matrix(PrimeField(2))
        pivots, _ = rref(m)
        assert m.ncols - len(pivots) == 6563
        # 256 pair-free zero columns plus each census block's own kernel
        census = {(2, 1): 1792, (3, 2): 1120, (4, 3): 112, (5, 4): 1}
        f2 = PrimeField(2)
        dims = 256
        for (a, b), count in census.items():
            block = fractal_matrix(a, b)
            ones = tuple(tuple((c, 1) for c in row) for row in block.row_adj)
            pivots, _ = rref(FieldMatrix(f2, ones, block.cols))
            dims += count * (block.cols - len(pivots))
        assert dims == 6563

    def test_eight_eight_gf3_per_component(self):
        f = PrimeField(3)
        pm = plucker_matrix(8, 8, signed=True)
        m = pm.field_matrix(f)
        rank = 0
        for rows, cols in signed_components(pm):
            block = [[0] * len(cols) for _ in rows]
            for r, i in enumerate(rows):
                for c, j in enumerate(cols):
                    block[r][c] = pm.signs.get((i, j), 0) % 3
            rank += len(naive_rref(f, block, len(cols))[1])
        pivots, _ = rref(m)
        assert len(pivots) == rank
        assert m.ncols - rank == 4981


class TestKernelBasis:
    def test_single_relation(self):
        f = PrimeField(2)
        basis = kernel_basis(plucker_matrix(2, 2).field_matrix(f))
        assert len(basis) == 5
        for v in basis:
            assert (v[2] + v[3]) % 2 == 0

    def test_identity_has_trivial_kernel(self):
        f = PrimeField(3)
        m = dense_matrix(f, [[1, 0], [0, 1]])
        assert kernel_basis(m).shape == (0, 2)

    def test_zero_matrix_standard_basis(self):
        f = PrimeField(5)
        m = dense_matrix(f, [[0] * 4, [0] * 4])
        assert kernel_basis(m).tolist() == [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ]

    def test_members_annihilated_and_count(self):
        rng = random.Random(3)
        for p in (2, 3, 5):
            f = PrimeField(p)
            rows = [[rng.randrange(p) for _ in range(8)] for _ in range(5)]
            m = dense_matrix(f, rows)
            basis = kernel_basis(m)
            pivots, _ = rref(m)
            assert len(basis) == 8 - len(pivots)
            for v in basis:
                assert [sum(a * b for a, b in zip(row, v)) % p for row in dense_rows(m)] == [0] * 5
            # independence: stacking the basis loses no rank
            if len(basis):
                pivots, _ = rref(dense_matrix(f, basis.tolist()))
                assert len(pivots) == len(basis)

    @pytest.mark.parametrize("n,k,p", [(5, 4, 2), (5, 4, 3), (5, 4, 5), (6, 6, 3),
                                       (7, 6, 3), (7, 7, 2)])
    def test_array_equals_reference_tuples(self, n, k, p):
        m = plucker_matrix(n, k, signed=True).field_matrix(PrimeField(p))
        basis = kernel_basis(m)
        assert basis.dtype == np.int64 and basis.shape[1] == m.ncols
        assert [tuple(v) for v in basis.tolist()] == reference_kernel(m)

    def test_int64_limit(self):
        # an unchecked field: 2**63 + 1 is not prime, and no trial division runs
        f = PrimeField(2)
        object.__setattr__(f, "p", 2**63 + 1)
        m = FieldMatrix(f, (((0, 2**63),),), 2)
        with pytest.raises(ValueError, match="p - 1 < 2\\*\\*63"):
            kernel_basis(m)
        object.__setattr__(f, "p", 2**63 - 25)  # the largest prime below 2**63
        basis = kernel_basis(FieldMatrix(f, (((0, 1), (1, 1)),), 2))
        assert basis.tolist() == [[2**63 - 26, 1]]
