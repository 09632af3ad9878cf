import hashlib
import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from isofractal import cli, plucker
from isofractal.bitmatrix import BinaryMatrix, bipartite_components
from isofractal.combinat import index_tuples, pair_free_part, partner, row_partition
from isofractal.fractal import fractal_matrix
from isofractal.gf import PrimeField, kernel_basis, rref
from isofractal.plucker import (
    contraction,
    decompose,
    plucker_matrix,
)
from test_combinat import contraction_sign_oracle

def sparse(w):
    """A dense vector as the ``(column, value)`` pairs ``PluckerMatrix.apply`` takes."""
    return tuple((j, v) for j, v in enumerate(w) if v)


# sha256 of the `decompose --out` text for every 2 <= k <= n <= 9
REPORT_SHA256 = {
    (2, 2): "890b2533dd130ee62e4d73e8ae80fe0d4d91898031648e0ff46b079d87c9b6cf",
    (3, 2): "91dc0eb1c325ae8a5d0e70a8ae62a0a334052250eb5e991d9cb5bb278e80c375",
    (3, 3): "c66c2886191b0b10726da9e9285d611d179ae42ef170fb2732a62ea70d0bdcb0",
    (4, 2): "8aeccd8eb8e2c100d4f3e8b9b0f6dbf801491e9f7ef5d333b9eaf9d77febfa8a",
    (4, 3): "d1ae3457bf5fb8ad77e63f60b3d71d4e173acd3a417dc7512296a340c362b562",
    (4, 4): "5fa4b3793724804b1fd26ff3ebf0b5918a3dfad2a8f0acd3473050ad94819a0f",
    (5, 2): "ec07e4623faf67f2b786fb5ebfc0242c29ef1d7014b1be1d9ace666f0057cab2",
    (5, 3): "b519da41d0dffb8173427364d780d6ba92b0973cb9578420d5c183de71cd0410",
    (5, 4): "d7c03bd8d26e366a936282fab50b017ebc83daeba3560017c02bbb7358284707",
    (5, 5): "4cfdd08194b50ca8c070152e0b31c19a7dd832fd33b04af29a749b38845acbc6",
    (6, 2): "895b3e1419828712bf389af0d89d03a014d6dcf987787d91277e22d70f8d15bd",
    (6, 3): "266322afdd69845fa787d5a636e971e8916b5b5910457e88429a33ffd112a881",
    (6, 4): "075b4eaded5bff8222ff831c92485b43a620ef5cf403a7ffe4595cf4194c3c03",
    (6, 5): "c72ce3ca64aff3e08d4b34f5f0cb6bd5dd3137152f74355c7d5f27cf966a2671",
    (6, 6): "2327a2ece9fb79353bde872ad9f3de79a59baf4e2e85be88803265dd29575710",
    (7, 2): "c9dad4a799e0d1abb6db299071b90dce2b7f8a2d211a12438d7996051b6a3a03",
    (7, 3): "c05ef79bb8a5363746f7f980c8117e4c4dd8bb43f9f73accb55804a1757f944b",
    (7, 4): "5bc302067efdfab135bc9fa5b2e1f52862265c9bf1e91a63131797993ccf9b22",
    (7, 5): "d63af2d09bb337f285532a0b2a389a6b5db517a877b2142a861640b658dfd8c6",
    (7, 6): "d89e3bf3eb1b9f9c604b6249a89b35f4acfbee851bf3f7879bf41844383236bc",
    (7, 7): "3e439ea15c8eddc3dd88e99717f2ead9137c5d2e2d66d1dcbd5d6bdf821aa022",
    (8, 2): "6c56d7ef9f779bbd7a37045737340cbdcef9c5ef937d66e1ca947c24fad8e249",
    (8, 3): "7b12164f0f3a92c6a438f61f09895603fb72ceed2a4e7f037b4296fefd06f61b",
    (8, 4): "94db5f5054207d0d4960b1eafd949992a7f52466f46dc2d6a314ab987b272ff7",
    (8, 5): "ede12f5edd8cc781695cb588470c1ad75b941bf06f3103ea63d977bc63d5663d",
    (8, 6): "d00842fe452b440a0d6e16de1d5c983eab1b4a619bc5e076fe52412d8dcb00ec",
    (8, 7): "bf663e932506da282de8d82becb1835167a7130ccefd48bc9ebe68479afc3361",
    (8, 8): "e30844dd3e750771bde2200f2cbdae35cdc37b111dfd3125e55945b7392860dc",
    (9, 2): "09ca4726d2e0b7a230a439e2636cb962c6a9d946dd413815c0584d879c02c82d",
    (9, 3): "32a43f60d5c678f61183782d2411c2accbf9d076c1a418656f128e7aa59e1311",
    (9, 4): "cb84385e0e3a8e13a36bed6d50ee36abb4cfd5e73569e92bdd7e6262136bf56c",
    (9, 5): "70a4caca146447be8d4853ebe22b8432c4f5817467acf381696afe41c7899cb4",
    (9, 6): "9733a590d8b2a61496419f5946ab70a175db2e5481cb27829e293da3f31cce34",
    (9, 7): "c57f16fbee387063242fd367da7f40a4e7b1380386d1fa4a563920ac7dae11e1",
    (9, 8): "805d6be3cacc6cbb6eabae7211b717b621e3585ccfd22fad9cb5713dbabfc9eb",
    (9, 9): "c01fb985be09f800651aad5d1cfbaa6b778667efb4b68e0f1146fa87efd50cee",
}


def label_f(t, n):
    """f(t): the pairs (whole basis pair {e, 2n+1-e} in t, pair-free x in t, e < x < 2n+1-e)."""
    whole = [(e, 2 * n + 1 - e) for e in t if e <= n and 2 * n + 1 - e in t]
    free = [x for x in t if 2 * n + 1 - x not in t]
    return sum(1 for e, mate in whole for x in free if e < x < mate)


def gram_matrix(n):
    """Gram matrix of the symplectic pairing from its definition: +1 at (i, 2n+1-i) for i <= n."""
    m = 2 * n
    gram = [[0] * m for _ in range(m)]
    for i in range(n):
        gram[i][m - 1 - i] = 1
        gram[m - 1 - i][i] = -1
    return gram


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
        zero_cols = [c for c, w in enumerate(pm.support.col_weights()) if w == 0]
        assert len(zero_cols) == 8

    def test_signed_row_terms(self):
        pm = plucker_matrix(5, 4, signed=True)
        i = index_tuples(2, 10).index((1, 8))
        cols = index_tuples(4, 10)
        terms = {cols[j]: s for (r, j), s in pm.signs.items() if r == i}
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
            weights = pm.support.row_weights()
            for i, label in enumerate(index_tuples(k - 2, 2 * n)):
                supp = set(label)
                disjoint = sum(
                    1
                    for p in range(1, n + 1)
                    if p not in supp and (2 * n + 1 - p) not in supp
                )
                assert weights[i] == disjoint

    def test_zero_columns_are_pair_free(self):
        for n, k in [(2, 2), (3, 3), (4, 4), (5, 4)]:
            pm = plucker_matrix(n, k)
            weights = pm.support.col_weights()
            for j, beta in enumerate(index_tuples(k, 2 * n)):
                is_zero = weights[j] == 0
                assert is_zero == (pair_free_part(beta, n) == beta)

    def test_sign_vectors_match_position_scan_oracle(self):
        # entry (i, j) is row_signs[i] * col_signs[j], against the sign read off
        # the positions of the pair in the merged tuple
        for n in range(2, 9):
            for k in range(2, n + 1):
                pm = plucker_matrix(n, k, signed=True)
                col_index = {t: j for j, t in enumerate(index_tuples(k, 2 * n))}
                for i, base in enumerate(index_tuples(k - 2, 2 * n)):
                    expected = sorted(
                        (col_index[merged], sign)
                        for e in range(1, n + 1) if {e, 2 * n + 1 - e}.isdisjoint(base)
                        for merged, sign in [contraction_sign_oracle(base, e, n)])
                    got = [(j, pm.row_signs[i] * pm.col_signs[j]) for j in pm.support.row_adj[i]]
                    assert got == expected, (n, k, base)

    def test_col_signs_are_the_label_function(self):
        for n in range(2, 9):
            for k in range(2, n + 1):
                pm = plucker_matrix(n, k, signed=True)
                assert pm.col_signs == tuple((-1) ** label_f(t, n)
                                             for t in index_tuples(k, 2 * n))
                assert pm.row_signs == tuple((-1) ** label_f(t, n)
                                             for t in index_tuples(k - 2, 2 * n))

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_signed_kernel_is_column_switched_support_kernel(self, p):
        # ker(D_r S D_c) = D_c ker(S): kernel row f of the signed system is
        # c_f * D_c * kernel row f of S, c_f making its entry at f equal 1
        f = PrimeField(p)
        for n, k in [(3, 3), (4, 3), (4, 4), (5, 4), (6, 5)]:
            signed = plucker_matrix(n, k, signed=True)
            unsigned = plucker_matrix(n, k)
            pivots, _ = rref(signed.field_matrix(f))
            assert pivots == rref(unsigned.field_matrix(f))[0]
            free = sorted(set(range(signed.support.cols)) - set(pivots))
            cs = signed.col_signs
            basis = kernel_basis(signed.field_matrix(f))
            switched = tuple(tuple((j, cs[c] * cs[j] * v % p) for j, v in row)
                             for c, row in zip(free, kernel_basis(unsigned.field_matrix(f)),
                                               strict=True))
            assert basis == switched, (n, k)

    def test_holds_only_its_rows(self):
        # the (8, 8) column labels alone would hold about 2 MB: 12,870 8-tuples
        tracemalloc.start()
        try:
            pm = plucker_matrix(8, 8, signed=True)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 2_000_000
        assert "signs" not in vars(pm)
        assert (pm.support.rows, pm.support.cols) == (len(index_tuples(6, 16)),
                                                      len(index_tuples(8, 16)))

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


def reference_contraction(n, k, w, field):
    """Term by term on basis wedges, rebuilding the labels on every call."""
    cols = index_tuples(k, 2 * n)
    assert len(w) == len(cols)
    target_index = {t: i for i, t in enumerate(index_tuples(k - 2, 2 * n))}
    p = field.p
    out = [0] * len(target_index)
    for j, beta in enumerate(cols):
        x = w[j] % p
        if x == 0:
            continue
        supp = set(beta)
        for r, e in enumerate(beta):
            mate = partner(e, n)
            if mate <= e or mate not in supp:
                continue
            s = beta.index(mate)
            # removing factors at 1-based positions r+1 < s+1 contributes (-1)**(r+s+1)
            term = x if (r + s + 1) % 2 == 0 else (p - x) % p
            reduced = tuple(v for t, v in enumerate(beta) if t != r and t != s)
            idx = target_index[reduced]
            out[idx] = (out[idx] + term) % p
    return tuple(out)


class TestContraction:
    @pytest.mark.parametrize("n,k", [(1, 2), (2, 3), (2, 4), (3, 4), (3, 5), (3, 6),
                                     (4, 5), (4, 8), (2, 2), (4, 3), (5, 4)])
    def test_matches_term_by_term_reference(self, n, k):
        # k > n has no plucker_matrix to compare with; entries run outside [0, p)
        # and come as a list or an int64 array;
        # each (n, k) goes through every p, so its terms are shared across fields
        rng = random.Random(100 * n + k)
        ncols = math.comb(2 * n, k)
        for p in (2, 3, 5, 7):
            f = PrimeField(p)
            for _ in range(20):
                w = [rng.randrange(-3 * p, 3 * p) for _ in range(ncols)]
                expected = reference_contraction(n, k, w, f)
                assert contraction(n, k, w, f) == contraction(n, k, np.array(w), f) == expected

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
                    assert contraction(n, k, w, f) == pm.apply(sparse(w), f)

    def test_unsigned_agrees_in_characteristic_two(self):
        rng = random.Random(12)
        f = PrimeField(2)
        for n, k in [(3, 3), (4, 3), (5, 4)]:
            signed = plucker_matrix(n, k, signed=True)
            unsigned = plucker_matrix(n, k, signed=False)
            for _ in range(20):
                w = [rng.randrange(2) for _ in range(signed.support.cols)]
                assert signed.apply(sparse(w), f) == unsigned.apply(sparse(w), f)

    def test_apply_reads_array_rows_as_python_ints(self):
        pm = plucker_matrix(5, 4, signed=True)
        f = PrimeField(5)
        basis = kernel_basis(pm.field_matrix(f))
        for i in range(0, len(basis), 7):
            wide = tuple((j, np.int64(v)) for j, v in basis[i])
            out = pm.apply(basis[i], f)
            assert out == pm.apply(wide, f) == (0,) * pm.support.rows
            assert all(type(x) is int for x in out)
        w = np.array([random.Random(i).randrange(5) for i in range(pm.support.cols)])
        assert pm.apply(sparse(w), f) == pm.apply(sparse(w.tolist()), f) \
            == contraction(5, 4, w.tolist(), f)
        # five terms of p - 1 = 2**63 - 26 would wrap in int64; an unchecked field
        big = PrimeField(2)
        object.__setattr__(big, "p", 2**63 - 25)
        w = np.full(pm.support.cols, 2**63 - 26, dtype=np.int64)
        out = pm.apply(sparse(w), big)
        assert out == pm.apply(sparse(w.tolist()), big)
        assert all(type(x) is int for x in out) and any(x > 2**62 for x in out)

    def test_apply_rejects_bad_columns_and_float_values(self):
        pm = plucker_matrix(3, 3, signed=True)
        f = PrimeField(3)
        assert pm.apply(((0, 1), (19, 2)), f) == pm.apply(sparse([1] + [0] * 18 + [2]), f)
        for w in [((3, 1), (2, 1)), ((2, 1), (2, 1)), ((20, 1),), ((-1, 1),)]:
            with pytest.raises(ValueError, match="increasing tuple of columns"):
                pm.apply(w, f)
        with pytest.raises(TypeError):
            pm.apply(((0, 1.0),), f)

    def test_wedge_of_two_vectors_contracts_to_their_pairing(self):
        # isotropy two ways: contraction of x ^ y, and x @ gram @ y; the linear
        # form x @ gram is x reversed with its first n cells negated
        rng = random.Random(13)
        for n in (1, 2, 3, 4):
            m = 2 * n
            gram = gram_matrix(n)
            cols = index_tuples(2, m)
            for _ in range(20):
                x = [rng.randrange(-3, 4) for _ in range(m)]
                y = [rng.randrange(-3, 4) for _ in range(m)]
                form = [sum(x[i] * gram[i][c] for i in range(m)) for c in range(m)]
                assert form == [-v for v in x[::-1][:n]] + x[::-1][n:]
                pairing = sum(a * b for a, b in zip(form, y))
                w = [x[a - 1] * y[b - 1] - x[b - 1] * y[a - 1] for a, b in cols]
                for p in (2, 3, 5):
                    assert contraction(n, 2, w, PrimeField(p)) == (pairing % p,)

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

    def test_blocks_partition_and_equal_family_members(self):
        for n, k in [(4, 4), (7, 6), (7, 7)]:
            pm = plucker_matrix(n, k)
            report = decompose(n, k)
            seen_rows = set(report.zero_rows)
            seen_cols = set(report.zero_columns)
            weight = 0
            for block in report.blocks:
                assert not (set(block.rows) & seen_rows)
                assert not (set(block.cols) & seen_cols)
                seen_rows |= set(block.rows)
                seen_cols |= set(block.cols)
                sub = pm.support.submatrix(block.rows, block.cols)
                assert sub == fractal_matrix(*block.fractal), (n, k)
                weight += sub.weight
            assert seen_rows == set(range(pm.support.rows))
            assert seen_cols == set(range(pm.support.cols))
            assert weight == pm.support.weight
            assert [b.rows[0] for b in report.blocks] == sorted(b.rows[0] for b in report.blocks)

    def test_blocks_are_the_cells_of_the_row_partition(self):
        # the tuple-labelled partition is the reference for the bitmask cells
        for n in range(2, 9):
            for k in range(2, n + 1):
                labels = index_tuples(k - 2, 2 * n)
                cells = {}
                for block in decompose(n, k).blocks:
                    members = tuple(labels[r] for r in block.rows)
                    label = pair_free_part(members[0], n)
                    j = (k - len(label)) // 2
                    assert block.fractal == (n - k + j + 1, j), (n, k, label)
                    cells[label] = members
                assert cells == dict(row_partition(n, k)), (n, k)

    def test_every_family_member_is_one_component(self):
        # with the component route in test_bitmatrix, this is why a block is a component
        for a in range(1, 12):
            for b in range(1, 13 - a):
                m = fractal_matrix(a, b)
                comps, zero_rows, zero_cols = bipartite_components(m)
                assert comps == [(tuple(range(m.rows)), tuple(range(m.cols)))], (a, b)
                assert zero_rows == () and zero_cols == ()

    def test_report_bytes_pinned(self):
        for (n, k), digest in REPORT_SHA256.items():
            text = cli._json_text(decompose(n, k).to_json_dict())
            assert hashlib.sha256(text.encode()).hexdigest() == digest, (n, k)

    def test_kernel_dimension_bookkeeping(self):
        for n, k in [(2, 2), (3, 2), (3, 3), (4, 3), (5, 4)]:
            pm = plucker_matrix(n, k, signed=True)
            for p in (2, 3, 5):
                f = PrimeField(p)
                m = pm.field_matrix(f)
                assert len(kernel_basis(m)) == math.comb(2 * n, k) - len(rref(m)[0])

    def test_json_shape(self):
        payload = decompose(3, 3).to_json_dict()
        assert set(payload) == {"n", "k", "blocks", "zero_rows", "zero_columns", "flags"}
        assert all(set(b) == {"rows", "cols", "fractal"} for b in payload["blocks"])

    def test_row_in_another_cell_is_an_error(self, monkeypatch):
        # row (1, 2), the first, sorted into the cell of (1, 3): that block
        # has a row too many and the cell of (1, 2) none
        pair_free = plucker._pair_free
        monkeypatch.setattr(plucker, "_pair_free", lambda mask, pairs:
                            0b101 if mask == 0b11 else pair_free(mask, pairs))
        with pytest.raises(AssertionError, match=r"^the block at cell \(1, 3\) is not A\(2, 1\)$"):
            decompose(4, 4)

    @pytest.mark.parametrize("n,k", [(4, 4), (5, 4)])
    @pytest.mark.parametrize("fault", ["moved", "added"])
    def test_one_outside_its_block_is_an_error(self, n, k, fault, monkeypatch):
        # one entry of a block row moved into another cell's column, or one
        # more entry there; the first keeps the support's weight
        report = decompose(n, k)
        home, other = report.blocks[0], report.blocks[-1]
        r = home.rows[0]
        build = plucker.plucker_matrix

        def faulty(n, k, signed=False):
            pm = build(n, k, signed)
            rows = list(pm.support.row_adj)
            moved = set(rows[r]) | {other.cols[0]}
            if fault == "moved":
                moved.discard(rows[r][0])
            rows[r] = tuple(sorted(moved))
            return replace(pm, support=BinaryMatrix(pm.support.rows, pm.support.cols,
                                                    tuple(rows)))

        assert other.cols[0] not in home.cols
        monkeypatch.setattr(plucker, "plucker_matrix", faulty)
        with pytest.raises(AssertionError):
            decompose(n, k)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            decompose(10, 10)
        with pytest.raises(ValueError):
            decompose(3, 2 + 3)
