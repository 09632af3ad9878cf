import math
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isofractal.combinat import (
    index_tuples,
    pair_free_part,
    partner,
    row_partition,
)
from isofractal.plucker import plucker_matrix


def brute_force_tuples(s, m):
    """Independent oracle: filter all bitmask subsets, sort lexicographically."""
    out = []
    for mask in range(1 << m):
        if bin(mask).count("1") == s:
            out.append(tuple(i + 1 for i in range(m) if mask >> i & 1))
    return sorted(out)


class TestIndexTuples:
    def test_two_of_four(self):
        assert index_tuples(2, 4) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]

    def test_empty_tuple_case(self):
        assert index_tuples(0, 5) == [()]

    def test_three_of_six_against_brute_force(self):
        got = index_tuples(3, 6)
        assert got == brute_force_tuples(3, 6)
        assert len(got) == 20
        assert got[0] == (1, 2, 3) and got[-1] == (4, 5, 6)

    def test_s_larger_than_m_rejected(self):
        with pytest.raises(ValueError):
            index_tuples(3, 2)

    def test_counts_and_order_up_to_twelve(self):
        for m in range(13):
            for s in range(m + 1):
                seq = index_tuples(s, m)
                assert len(seq) == math.comb(m, s)
                assert seq == sorted(seq)
                assert len(set(seq)) == len(seq)


def rank(t, m):
    """Lexicographic position of ``t`` among the tuples of its length over [1, m].

    A closed-form coordinate map, independent of the package's enumerations;
    nothing is checked.
    """
    s = len(t)
    r = 0
    prev = 0
    for i, e in enumerate(t):
        for v in range(prev + 1, e):
            r += math.comb(m - v, s - i - 1)
        prev = e
    return r


class TestRankUnrank:
    def test_first_tuple(self):
        assert rank((1, 2), 4) == 0

    def test_last_of_six(self):
        assert rank((3, 4), 4) == 5

    def test_unrank_by_enumeration(self):
        # the lexicographic enumeration is the inverse of rank
        assert index_tuples(2, 4)[2] == (1, 4)
        assert rank((1, 4), 4) == 2

    @given(st.data())
    @settings(max_examples=200)
    def test_roundtrip(self, data):
        m = data.draw(st.integers(0, 12))
        s = data.draw(st.integers(0, m))
        r = data.draw(st.integers(0, math.comb(m, s) - 1))
        assert rank(index_tuples(s, m)[r], m) == r

    def test_rank_matches_enumeration(self):
        for m in range(9):
            for s in range(m + 1):
                for i, t in enumerate(index_tuples(s, m)):
                    assert rank(t, m) == i


class TestPairSet:
    def test_members_partition_ground_set(self):
        for n in range(1, 8):
            pairs = [(i, partner(i, n)) for i in range(1, n + 1)]
            flat = [e for pair in pairs for e in pair]
            assert sorted(flat) == list(range(1, 2 * n + 1))
            for a, b in pairs:
                assert a + b == 2 * n + 1 and a < b

    def test_pair_index(self):
        assert partner(7, 4) == 2
        assert partner(2, 4) == 7
        for bad in (0, 9):
            with pytest.raises(ValueError):
                partner(bad, 4)


def contraction_sign_oracle(base, i, n):
    """Sign from scanning the merged tuple: positions r < s of the pair members
    (1-based) contribute (-1)**(r+s-1)."""
    merged = tuple(sorted(base + (i, 2 * n + 1 - i)))
    r = merged.index(i) + 1
    s = merged.index(2 * n + 1 - i) + 1
    return merged, (-1) ** (r + s - 1)


@lru_cache(maxsize=None)
def signed_system(n, k):
    return plucker_matrix(n, k, signed=True)


def insert_ith_pair(base, i, n):
    """Insert the i-th symplectic pair (i, 2n+1-i) of [2n] into ``base``, as the
    signed Plücker system does: the column label and coefficient of the entry in
    row ``base`` that adds this pair, or None when the row has no such entry."""
    pm = signed_system(n, len(base) + 2)
    r = pm.row_labels.index(base)
    entries = [(pm.col_labels[j], pm.row_signs[r] * pm.col_signs[j]) for j in pm.support.row_adj[r]]
    added = [tuple(sorted(set(t) - set(base))) for t, _ in entries]
    # the row holds one entry per pair that misses the label, and no other
    disjoint = [(e, partner(e, n)) for e in range(1, n + 1) if not {e, partner(e, n)} & set(base)]
    assert sorted(added) == sorted(disjoint), (base, n)
    got = [entry for entry, pair in zip(entries, added) if pair == (i, partner(i, n))]
    return got[0] if got else None


class TestInsertPairWithSign:
    def test_empty_base(self):
        assert insert_ith_pair((), 1, 2) == ((1, 4), 1)

    def test_positive_example(self):
        assert insert_ith_pair((2, 9), 3, 5) == ((2, 3, 8, 9), 1)

    def test_negative_example(self):
        assert insert_ith_pair((1, 8), 2, 5) == ((1, 2, 8, 9), -1)

    def test_null_when_pair_meets_base(self):
        # a length-2 base needs n >= 4 for the system to exist; the pair is {1, 8}
        assert insert_ith_pair((1, 3), 1, 4) is None
        assert insert_ith_pair((6,), 1, 3) is None

    @given(st.data())
    @settings(max_examples=300)
    def test_against_position_scan_oracle(self, data):
        n = data.draw(st.integers(2, 6))
        k = data.draw(st.integers(2, n))
        base = data.draw(st.sampled_from(index_tuples(k - 2, 2 * n)))
        i = data.draw(st.integers(1, n))
        got = insert_ith_pair(base, i, n)
        members = {i, 2 * n + 1 - i}
        if members & set(base):
            assert got is None
            assert len(set(base) | members) < len(base) + 2
        else:
            assert got == contraction_sign_oracle(base, i, n)
            assert len(set(base) | members) == len(base) + 2


class TestRowPartition:
    def test_trivial_case(self):
        assert row_partition(2, 2) == (((), ((),)),)

    def test_four_four(self):
        part = row_partition(4, 4)
        assert part[0] == ((), ((1, 8), (2, 7), (3, 6), (4, 5)))
        pairs_cells = [(label, members) for label, members in part if len(label) == 2]
        assert len(pairs_cells) == 24
        for (a1, a2), members in pairs_cells:
            assert a1 + a2 != 9
            assert members == ((a1, a2),)

    def test_three_three(self):
        assert row_partition(3, 3) == tuple(((j,), ((j,),)) for j in range(1, 7))

    def test_brute_force_classification(self):
        # independent rule: free entries are those whose partner is absent
        for n in range(2, 8):
            for k in range(2, n + 1):
                part = row_partition(n, k)
                seen = set()
                for label, members in part:
                    for t in members:
                        free = tuple(e for e in t if (2 * n + 1 - e) not in t)
                        assert free == label
                        rest = [e for e in t if e not in free]
                        assert all((2 * n + 1 - e) in rest for e in rest)
                        assert t not in seen
                        seen.add(t)
                assert seen == set(index_tuples(k - 2, 2 * n))

    def test_counting_identity(self):
        for n in range(2, 8):
            for k in range(2, n + 1):
                part = row_partition(n, k)
                by_size = {}
                for label, members in part:
                    by_size.setdefault(len(label), []).append(members)
                total = 0
                for t, cells in by_size.items():
                    assert len(cells) == math.comb(n, t) * 2**t
                    for members in cells:
                        assert len(members) == math.comb(n - t, (k - 2 - t) // 2)
                    total += sum(map(len, cells))
                assert total == math.comb(2 * n, k - 2)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            row_partition(3, 1)
        with pytest.raises(ValueError):
            row_partition(3, 4)


class TestSupportHelpers:
    def test_pair_free_part(self):
        assert pair_free_part((1, 2, 9, 10), 5) == ()
        assert pair_free_part((1, 2, 8, 9), 5) == (1, 8)
        assert pair_free_part((3, 4, 8), 5) == (4,)
        assert partner(1, 5) == 10
