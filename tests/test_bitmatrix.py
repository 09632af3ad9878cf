import math
import random
import tracemalloc
from collections import deque
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isofractal import fractal, incidence, plucker
from isofractal.bitmatrix import (
    FORMATS,
    MAX_DIMENSION,
    BinaryMatrix,
    ParseError,
    PermutationPair,
    bipartite_components,
    check_size,
    deserialize,
    permutation_equivalent,
    serialize,
)
from isofractal.fractal import fractal_matrix
from isofractal.plucker import decompose, plucker_matrix


def M(*rows):
    return deserialize("\n".join(rows), "ascii")


def coords_of(m):
    """The 1-coordinates of ``m``, read off its rows."""
    return frozenset((r, c) for r, row in enumerate(m.row_adj) for c in row)


def as_set(m):
    return m.rows, m.cols, coords_of(m)


# --- coordinate-set references -------------------------------------------------
#
# Coordinate-set assembly operations and serializers, kept as independent
# references: the two paste operations define the paste route of A(k, ell),
# the direct sum builds block-diagonal test inputs, and the rest are compared
# with the row-sparse code.  Each works on (rows, cols, frozenset of
# coordinates) triples and never reads row_adj.


def full_scan_submatrix(m, row_indices, col_indices):
    """Induced submatrix by one scan over every one of ``m``, free of the row adjacency."""
    rows, cols, ones = m
    rmap = {r: i for i, r in enumerate(row_indices)}
    cmap = {c: j for j, c in enumerate(col_indices)}
    kept = frozenset((rmap[r], cmap[c]) for r, c in ones if r in rmap and c in cmap)
    return len(row_indices), len(col_indices), kept


def ref_stack_identity_below(m):
    rows, cols, ones = m
    return rows + cols, cols, ones | {(rows + j, j) for j in range(cols)}


def ref_paste_right(parts):
    total_rows = parts[0][0]
    coords = set()
    offset = 0
    for rows, cols, ones in parts:
        shift = total_rows - rows
        coords.update((r + shift, c + offset) for r, c in ones)
        offset += cols
    return total_rows, offset, frozenset(coords)


def ref_direct_sum(parts):
    row_off = col_off = 0
    coords = set()
    for rows, cols, ones in parts:
        coords.update((row_off + r, col_off + c) for r, c in ones)
        row_off += rows
        col_off += cols
    return row_off, col_off, frozenset(coords)


def ref_apply(pair, m):
    rows, cols, ones = m
    return rows, cols, frozenset((pair.row_perm[r], pair.col_perm[c]) for r, c in ones)


def ref_matrixmarket(m):
    rows, cols, ones = m
    lines = ["%%MatrixMarket matrix coordinate integer general", f"{rows} {cols} {len(ones)}"]
    lines.extend(f"{r + 1} {c + 1} 1" for r, c in sorted(ones))
    return "\n".join(lines) + "\n"


def ref_alist(m):
    rows, cols, ones = m
    col_lists = [tuple(sorted(r for r, c in ones if c == j)) for j in range(cols)]
    row_lists = [tuple(sorted(c for r, c in ones if r == i)) for i in range(rows)]
    max_col = max((len(x) for x in col_lists), default=0)
    max_row = max((len(x) for x in row_lists), default=0)

    def padded(indices, width):
        vals = [i + 1 for i in indices] + [0] * (width - len(indices))
        return " ".join(str(v) for v in vals)

    lines = [
        f"{cols} {rows}",
        f"{max_col} {max_row}",
        " ".join(str(len(x)) for x in col_lists),
        " ".join(str(len(x)) for x in row_lists),
    ]
    lines.extend(padded(x, max_col) for x in col_lists)
    lines.extend(padded(x, max_row) for x in row_lists)
    return "\n".join(lines) + "\n"


def ref_ascii(m):
    rows, cols, ones = m
    return "".join("".join("1" if (r, c) in ones else "0" for c in range(cols)) + "\n"
                   for r in range(rows))


def random_matrix(rng, max_rows=8, max_cols=8):
    """A seeded random matrix; zero rows and columns, 0xk and kx0 shapes included."""
    rows = rng.randrange(0, max_rows + 1)
    cols = rng.randrange(0, max_cols + 1)
    density = rng.choice((0.0, 0.15, 0.4, 0.8))
    return BinaryMatrix.from_coords(rows, cols, {
        (r, c) for r in range(rows) for c in range(cols) if rng.random() < density
    })


def bfs_components(m):
    """Breadth-first search over rows and columns, kept free of the library's union-find."""
    zero_rows = tuple(r for r, row in enumerate(m.row_adj) if not row)
    zero_cols = tuple(c for c in range(m.cols) if not m.col_support(c))
    seen_rows = set()
    components = []
    for start in range(m.rows):
        if start in seen_rows or not m.row_adj[start]:
            continue
        comp_rows = {start}
        comp_cols = set()
        queue = deque([("r", start)])
        while queue:
            kind, idx = queue.popleft()
            if kind == "r":
                for c in m.row_adj[idx]:
                    if c not in comp_cols:
                        comp_cols.add(c)
                        queue.append(("c", c))
            else:
                for r in m.col_support(idx):
                    if r not in comp_rows:
                        comp_rows.add(r)
                        queue.append(("r", r))
        seen_rows |= comp_rows
        components.append((tuple(sorted(comp_rows)), tuple(sorted(comp_cols))))
    return components, zero_rows, zero_cols


@st.composite
def binary_matrices(draw, max_dim=10):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    coords = draw(
        st.sets(
            st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
            max_size=rows * cols,
        )
    )
    return BinaryMatrix.from_coords(rows, cols, coords)


class TestBinaryMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            BinaryMatrix.from_coords(2, 2, {(2, 0)})
        with pytest.raises(ValueError):
            BinaryMatrix(-1, 2, ())

    def test_rows_are_validated(self):
        assert BinaryMatrix(2, 3, ((0, 2), ())).weight == 2
        for adj in [
            ((0, 2),),              # one row short
            ((0, 3), ()),           # column past the last
            ((-1, 1), ()),          # negative column
            ((2, 0), ()),           # descending
            ((1, 1), ()),           # repeated column
            ([0, 2], ()),           # a list is not a row
            [(0, 2), ()],           # nor a list of rows
        ]:
            with pytest.raises(ValueError):
                BinaryMatrix(2, 3, adj)

    def test_from_coords_counts_repeats_once(self):
        m = BinaryMatrix.from_coords(2, 3, [(1, 2), (0, 1), (1, 0), (1, 2)])
        assert m.row_adj == ((1,), (0, 2))
        assert m == M("010", "101")

    def test_weights_and_density(self):
        m = M("110", "011")
        assert m.row_weights() == [2, 2]
        assert m.col_weights() == [1, 2, 1]
        assert m.weight == 4
        assert m.density == 4 / 6

    def test_submatrix_reorders(self):
        m = M("10", "01")
        flipped = m.submatrix([1, 0], [0, 1])
        assert flipped == M("01", "10")

    def test_submatrix_matches_full_scan(self):
        rng = random.Random(11)
        for _ in range(300):
            rows = rng.randrange(0, 10)
            cols = rng.randrange(0, 10)
            density = rng.choice((0.0, 0.1, 0.3, 0.7))
            m = BinaryMatrix.from_coords(rows, cols, {
                (r, c) for r in range(rows) for c in range(cols) if rng.random() < density
            })
            row_sel = rng.sample(range(rows), rng.randrange(0, rows + 1))
            col_sel = rng.sample(range(cols), rng.randrange(0, cols + 1))
            if rng.random() < 0.5:
                col_sel.sort()
            assert as_set(m.submatrix(row_sel, col_sel)) == full_scan_submatrix(
                as_set(m), row_sel, col_sel)
        assert BinaryMatrix.zero(3, 4).submatrix([2, 0], [3]) == BinaryMatrix.zero(2, 1)
        assert M("11").submatrix([], []) == BinaryMatrix.zero(0, 0)

    def test_submatrix_rejects_rows_out_of_range(self):
        with pytest.raises(IndexError):
            M("10", "01").submatrix([-1], [0])
        with pytest.raises(IndexError):
            M("10", "01").submatrix([2], [0])

    def test_submatrix_rejects_columns_out_of_range(self):
        with pytest.raises(IndexError):
            M("10", "01").submatrix([0], [99])
        with pytest.raises(IndexError):
            M("10", "01").submatrix([0, 1], [-1])
        with pytest.raises(IndexError):
            M("10", "01").submatrix([0, 1], [0, 2])

    def test_submatrix_rejects_repeated_indices(self):
        with pytest.raises(ValueError):
            M("10", "01").submatrix([0, 1], [1, 1])
        with pytest.raises(ValueError):
            M("10", "01").submatrix([0, 0], [0, 1])


class TestCheckSize:
    def test_matches_the_exact_counts(self):
        # past r = 24 on both sides the count is bounded below, not computed
        for n in range(64):
            for r in range(n + 1):
                for f in (1, 3, 1000):
                    past = f * math.comb(n, r) > MAX_DIMENSION
                    try:
                        check_size("M", rows=(1, 0), cols=(1, 1), ones=(f, n, r))
                    except ValueError:
                        refused = True
                    else:
                        refused = False
                    assert refused == past, (f, n, r)

    def test_sides_then_ones(self):
        with pytest.raises(ValueError) as err:
            check_size("M", rows=(1, 0), cols=(10**6, 5 * 10**5), ones=(10**6, 10**6, 5 * 10**5))
        assert str(err.value) == f"M has too many rows or columns, past the limit {MAX_DIMENSION}"
        with pytest.raises(ValueError) as err:
            check_size("M", rows=(2, 1), cols=(2, 1), ones=(MAX_DIMENSION, 2, 1))
        assert str(err.value) == f"M has too many ones, past the limit {MAX_DIMENSION}"

    def test_boundary_of_the_builders(self):
        fractal._check_params(12, 12)  # 16,224,936 ones
        with pytest.raises(ValueError, match=r"^A\(13, 13\) has too many ones, past the limit"):
            fractal._check_params(13, 13)  # 67,603,900 ones, sides within the limit
        with pytest.raises(ValueError, match=r"^the \(n=14, k=14\) system has too many rows "
                                             r"or columns, past the limit"):
            plucker_matrix(14, 14)

    def test_checked_before_any_label_is_listed(self, monkeypatch):
        def listed(*args):
            raise AssertionError("a label was listed")

        monkeypatch.setattr(plucker, "_label_masks", listed)
        monkeypatch.setattr(incidence, "index_tuples", listed)
        with pytest.raises(ValueError, match="past the limit"):
            plucker_matrix(14, 14)
        with pytest.raises(ValueError, match="past the limit"):
            incidence.incidence_matrix(40, 40)


class TestStackIdentityBelow:
    """Known answers for the reference the paste route is checked against."""

    def test_ones_row_of_two(self):
        assert ref_stack_identity_below(as_set(M("11"))) == as_set(M("11", "10", "01"))

    def test_ones_row_of_one(self):
        assert ref_stack_identity_below(as_set(M("1"))) == as_set(M("1", "1"))

    def test_adds_exactly_cols_ones(self):
        m = as_set(M("110", "011", "101"))
        rows, cols, ones = ref_stack_identity_below(m)
        assert (rows, cols, len(ones)) == (6, 3, len(m[2]) + 3)
        assert m[2] <= ones


class TestPasteRight:
    """Known answers for the reference the paste route is checked against."""

    def test_two_stacked_ones_rows(self):
        parts = [ref_stack_identity_below(as_set(M(row))) for row in ("11", "1")]
        assert ref_paste_right(parts) == as_set(M("110", "101", "011"))

    def test_single_part_identity(self):
        m = as_set(M("101", "010"))
        assert ref_paste_right([m]) == m

    def test_three_parts_produce_known_matrix(self):
        parts = [ref_stack_identity_below(as_set(M(row))) for row in ("111", "11", "1")]
        assert ref_paste_right(parts) == as_set(M("111000", "100110", "010101", "001011"))

    def test_weight_additive_and_slices_recoverable(self):
        a = M("11", "10")
        b = M("01")
        out = BinaryMatrix.from_coords(*ref_paste_right([as_set(a), as_set(b)]))
        assert out.weight == a.weight + b.weight
        assert out.submatrix(range(out.rows), [0, 1]) == a
        assert out.submatrix([1], [2, 3]) == b


class TestDirectSum:
    """Known answers for the reference that builds block-diagonal test inputs."""

    def test_two_ones_rows(self):
        assert ref_direct_sum([as_set(M("11"))] * 2) == as_set(M("1100", "0011"))

    def test_empty_sum(self):
        assert ref_direct_sum([]) == (0, 0, frozenset())

    def test_ones_additive(self):
        rows, cols, ones = ref_direct_sum([as_set(M("110", "101", "011"))] * 2)
        assert (rows, cols, len(ones)) == (6, 6, 12)


class TestBipartiteComponents:
    def test_direct_sum_of_connected_parts(self):
        a = M("11", "10")
        b = M("111")
        comps, zr, zc = bipartite_components(
            BinaryMatrix.from_coords(*ref_direct_sum([as_set(a), as_set(b)])))
        assert comps == [((0, 1), (0, 1)), ((2,), (2, 3, 4))]
        assert zr == () and zc == ()

    def test_all_zero_matrix(self):
        comps, zr, zc = bipartite_components(BinaryMatrix.zero(2, 3))
        assert comps == []
        assert zr == (0, 1) and zc == (0, 1, 2)

    def test_roundtrip_through_direct_sum(self):
        m = M("1100", "0110", "0001")
        comps, zr, zc = bipartite_components(m)
        rebuilt = BinaryMatrix.from_coords(
            *ref_direct_sum([as_set(m.submatrix(r, c)) for r, c in comps]))
        witness = permutation_equivalent(rebuilt, m)
        assert witness is not None

    def test_matches_bfs_on_system_supports(self):
        # an independent route to decompose's blocks, which are built from labels
        cases = [(n, k) for n in range(2, 8) for k in range(2, n + 1)] + [(8, 8)]
        for n, k in cases:
            support = plucker_matrix(n, k).support
            report = decompose(n, k)
            built = ([(b.rows, b.cols) for b in report.blocks],
                     report.zero_rows, report.zero_columns)
            assert bipartite_components(support) == built, (n, k)
            assert bfs_components(support) == built, (n, k)

    def test_matches_bfs_on_random_sparse(self):
        rng = random.Random(5)
        for _ in range(200):
            rows = rng.randrange(0, 12)
            cols = rng.randrange(0, 12)
            density = rng.choice((0.05, 0.1, 0.2))
            coords = {
                (r, c)
                for r in range(rows)
                for c in range(cols)
                if rng.random() < density
            }
            m = BinaryMatrix.from_coords(rows, cols, coords)
            assert bipartite_components(m) == bfs_components(m)


class TestPermutationEquivalent:
    def test_identity(self):
        m = M("110", "011")
        w = permutation_equivalent(m, m)
        assert w is not None and w.is_identity

    def test_row_swap(self):
        # weights force the transposition: it is the unique witness here
        a = M("10", "11")
        b = M("11", "10")
        w = permutation_equivalent(a, b)
        assert w is not None
        assert w.row_perm == (1, 0)
        assert w.col_perm == (0, 1)
        assert w.apply(a) == b

    def test_row_swap_with_symmetry(self):
        a = M("110", "011")
        b = M("011", "110")
        w = permutation_equivalent(a, b)
        assert w is not None
        assert w.apply(a) == b

    def test_weight_mismatch_is_null(self):
        assert permutation_equivalent(M("110", "011"), M("111", "010")) is None

    def test_dimension_mismatch_is_null(self):
        assert permutation_equivalent(M("11"), M("111")) is None

    def test_regular_inequivalent_pair(self):
        # one 8-cycle versus two 4-cycles: identical degree data, not equivalent
        cycle8 = M("1100", "0110", "0011", "1001")
        two_cycles = M("1100", "1100", "0011", "0011")
        assert permutation_equivalent(cycle8, two_cycles) is None
        assert permutation_equivalent(two_cycles, cycle8) is None

    def test_random_scrambles_recovered(self):
        rng = random.Random(7)
        for _ in range(25):
            rows = rng.randrange(1, 7)
            cols = rng.randrange(1, 7)
            coords = {
                (r, c)
                for r in range(rows)
                for c in range(cols)
                if rng.random() < 0.4
            }
            a = BinaryMatrix.from_coords(rows, cols, coords)
            rp = list(range(rows))
            cp = list(range(cols))
            rng.shuffle(rp)
            rng.shuffle(cp)
            b = PermutationPair(tuple(rp), tuple(cp)).apply(a)
            w = permutation_equivalent(a, b)
            assert w is not None
            assert w.apply(a) == b
            # symmetric direction has the inverse witness
            back = permutation_equivalent(b, a)
            assert back is not None and back.apply(b) == a

    def test_apply_rejects_non_permutations(self):
        eye = BinaryMatrix(2, 2, ((0,), (1,)))
        for pair in [PermutationPair((0, 0), (0, 1)), PermutationPair((0, 1), (1, 1)),
                     PermutationPair((0, 2), (0, 1)), PermutationPair((0,), (0, 1))]:
            with pytest.raises(ValueError):
                pair.apply(eye)

    def test_structured_case_with_search(self):
        # containment of 1-subsets in 2-subsets of [4] against its scramble
        from isofractal.incidence import incidence_matrix

        a = incidence_matrix(4, 4)
        scramble = PermutationPair((2, 0, 3, 1), (5, 3, 0, 4, 1, 2))
        b = scramble.apply(a)
        w = permutation_equivalent(a, b)
        assert w is not None and w.apply(a) == b


def doubled_block_pair(seed):
    """A direct sum of two equal random blocks and its scramble; the swap of the
    blocks is an automorphism, so the search has to individualize."""
    rng = random.Random(seed)
    rows, cols = rng.randint(2, 4), rng.randint(2, 4)
    coords = {(r, c) for r in range(rows) for c in range(cols) if rng.random() < 0.5}
    block = BinaryMatrix.from_coords(rows, cols, coords | {(0, 0)})
    a = BinaryMatrix.from_coords(*ref_direct_sum([as_set(block)] * 2))
    rp, cp = list(range(a.rows)), list(range(a.cols))
    rng.shuffle(rp)
    rng.shuffle(cp)
    return a, PermutationPair(tuple(rp), tuple(cp)).apply(a)


# Witnesses of the refinement's tie-breaks (smallest class, rows before
# columns, candidates in ascending order); any change to them shows here.
PINNED_WITNESSES = [
    ((0, 2, 4, 1, 3, 5), (2, 0, 3, 1, 5, 4)),
    ((1, 0, 3, 2), (0, 3, 5, 2, 1, 7, 4, 6)),
    ((1, 0, 3, 2), (2, 0, 1, 3)),
    ((0, 1, 2, 3), (1, 5, 2, 7, 0, 6, 3, 4)),
    ((2, 1, 3, 0), (3, 5, 4, 0, 1, 2)),
    ((0, 2, 7, 1, 5, 4, 6, 3), (1, 0, 5, 4, 2, 3)),
    ((2, 0, 5, 7, 6, 1, 3, 4), (3, 2, 1, 0)),
    ((3, 2, 1, 4, 0, 5), (1, 2, 3, 0)),
    ((0, 2, 1, 3), (0, 2, 1, 4, 5, 3)),
    ((1, 5, 3, 4, 2, 0), (0, 1, 7, 4, 3, 5, 2, 6)),
]


class TestPinnedWitnesses:
    def test_structured_case(self):
        from isofractal.incidence import incidence_matrix

        a = incidence_matrix(4, 4)
        b = PermutationPair((2, 0, 3, 1), (5, 3, 0, 4, 1, 2)).apply(a)
        w = permutation_equivalent(a, b)
        assert (w.row_perm, w.col_perm) == ((0, 1, 2, 3), (1, 5, 4, 0, 2, 3))

    def test_row_swap_with_symmetry(self):
        w = permutation_equivalent(M("110", "011"), M("011", "110"))
        assert (w.row_perm, w.col_perm) == ((0, 1), (2, 1, 0))

    @pytest.mark.parametrize("seed", range(len(PINNED_WITNESSES)))
    def test_doubled_block_scrambles(self, seed):
        a, b = doubled_block_pair(seed)
        w = permutation_equivalent(a, b)
        assert (w.row_perm, w.col_perm) == PINNED_WITNESSES[seed]
        assert w.apply(a) == b


class TestSerialization:
    def test_matrixmarket_golden(self):
        a22 = M("110", "101", "011")
        text = serialize(a22, "matrixmarket")
        lines = text.splitlines()
        assert lines[0] == "%%MatrixMarket matrix coordinate integer general"
        assert lines[1] == "3 3 6"
        assert lines[2] == "1 1 1"

    def test_alist_golden(self):
        a22 = M("110", "101", "011")
        lines = serialize(a22, "alist").splitlines()
        assert lines[0] == "3 3"
        assert lines[1] == "2 2"
        assert lines[2] == "2 2 2"
        assert lines[3] == "2 2 2"
        assert lines[4:7] == ["1 2", "1 3", "2 3"]
        assert lines[7:10] == ["1 2", "1 3", "2 3"]

    def test_ascii_golden(self):
        assert serialize(M("10", "01"), "ascii") == "10\n01\n"

    @given(binary_matrices(), st.sampled_from(FORMATS))
    @settings(max_examples=150, deadline=None)
    def test_roundtrip(self, m, fmt):
        assert deserialize(serialize(m, fmt), fmt) == m

    def test_matrixmarket_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as err:
            deserialize("nonsense\n", "matrixmarket")
        assert "line 1" in str(err.value)
        bad_entry = "%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 2\n"
        with pytest.raises(ParseError) as err:
            deserialize(bad_entry, "matrixmarket")
        assert "line 3" in str(err.value)

    def test_alist_weight_mismatch_detected(self):
        lines = serialize(M("11"), "alist").splitlines()
        assert lines[3] == "2"
        lines[3] = "1"  # corrupt the declared row weight
        with pytest.raises(ParseError):
            deserialize("\n".join(lines) + "\n", "alist")

    def test_ascii_bad_character(self):
        with pytest.raises(ParseError) as err:
            deserialize("10\n0x\n", "ascii")
        assert "line 2" in str(err.value)

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            serialize(M("1"), "csv")

    def test_ascii_degenerate_shapes(self):
        assert serialize(BinaryMatrix.zero(0, 0), "ascii") == ""
        assert deserialize("", "ascii") == BinaryMatrix.zero(0, 0)
        with pytest.raises(ValueError):
            serialize(BinaryMatrix.zero(0, 3), "ascii")

    def test_zero_row_matrix_roundtrip_mm_alist(self):
        m = BinaryMatrix.zero(0, 3)
        for fmt in ("matrixmarket", "alist"):
            assert deserialize(serialize(m, fmt), fmt) == m

    @staticmethod
    def serialize_traced(m, fmt):
        """The text and the traced peak its writing adds."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            text = serialize(m, fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return text, peak - before

    def test_matrixmarket_memory_stays_near_the_text(self):
        # one string per row, not one per entry: an entry string and its list
        # slot cost about 7.7 times the text of A(9, 8)
        text, peak = self.serialize_traced(fractal_matrix(9, 8), "matrixmarket")
        assert peak <= 4 * len(text)

    def test_alist_memory_stays_near_the_text(self):
        # one string per line, the column lists freed before the row lines are
        # built: A(9, 8) peaks near 3.3 times its text; holding the column
        # lists and the line strings together reaches 6 times
        text, peak = self.serialize_traced(fractal_matrix(9, 8), "alist")
        assert peak <= 4 * len(text)

    def test_writing_a_member_leaves_no_column_lists_on_it(self):
        # the family members are memoized for the life of the process; cached
        # column lists of A(9, 8) alone hold about 1.7 MB
        m = fractal_matrix(9, 8)
        serialize(m, "alist")
        assert m.col_weights() == [8] * m.cols
        assert "_col_adj" not in vars(m)


REFERENCE_CASES = 300


class TestAgainstCoordinateReferences:
    """The row-sparse operations against the coordinate-set references above."""

    def test_paste_route(self):
        # A(k, ell) by its definition: A(k, 1) is the all-ones row, and A(k, ell)
        # pastes A(j, ell-1) with the identity stacked under it, j = k down to 1
        @cache
        def definition(k, ell):
            if ell == 1:
                return 1, k, frozenset((0, c) for c in range(k))
            return ref_paste_right([ref_stack_identity_below(definition(j, ell - 1))
                                    for j in range(k, 0, -1)])

        for k in range(1, 7):
            for ell in range(1, 7):
                assert as_set(fractal_matrix(k, ell)) == definition(k, ell), (k, ell)

    def test_apply(self):
        rng = random.Random(25)
        for _ in range(REFERENCE_CASES):
            m = random_matrix(rng)
            pair = PermutationPair(tuple(rng.sample(range(m.rows), m.rows)),
                                   tuple(rng.sample(range(m.cols), m.cols)))
            assert as_set(pair.apply(m)) == ref_apply(pair, as_set(m))

    def test_serializers_and_round_trips(self):
        rng = random.Random(26)
        matrices = [random_matrix(rng) for _ in range(REFERENCE_CASES)] + [
            BinaryMatrix.zero(0, 0), BinaryMatrix.zero(0, 4), BinaryMatrix.zero(3, 0),
            BinaryMatrix.zero(1, 5), M("10110"), M("1", "0", "1"),
            fractal_matrix(4, 3), plucker_matrix(5, 4).support,
        ]
        for m in matrices:
            ref = as_set(m)
            assert serialize(m, "matrixmarket") == ref_matrixmarket(ref)
            assert serialize(m, "alist") == ref_alist(ref)
            for fmt in ("matrixmarket", "alist"):
                assert deserialize(serialize(m, fmt), fmt) == m
            if (m.rows == 0) != (m.cols == 0):
                with pytest.raises(ValueError):
                    serialize(m, "ascii")
            else:
                text = serialize(m, "ascii")
                assert text == ref_ascii(ref)
                assert deserialize(text, "ascii") == m


MM_HEADER = "%%MatrixMarket matrix coordinate integer general\n"


def parse_error(text, fmt):
    with pytest.raises(ParseError) as err:
        deserialize(text, fmt)
    return str(err.value)


class TestParseErrors:
    def test_repeated_matrixmarket_entry(self):
        text = MM_HEADER + "2 2 2\n1 1 1\n1 1 1\n"
        assert parse_error(text, "matrixmarket") == "line 4: declared 2 entries, found 1"
        # a repeat no longer makes up for one entry line too many
        text = MM_HEADER + "2 2 2\n1 1 1\n1 1 1\n1 2 1\n"
        assert parse_error(text, "matrixmarket") == "line 5: declared 2 entries, found 3 entry lines"

    def test_matrixmarket_entry_out_of_range(self):
        for entry, coord in [("3 1", "(3, 1)"), ("1 0", "(1, 0)")]:
            text = MM_HEADER + f"2 2 1\n{entry} 1\n"
            assert parse_error(text, "matrixmarket") == f"line 3: coordinate {coord} outside 2x2"

    def test_matrixmarket_header_other_than_the_written_one(self):
        # a symmetric file stores one entry of each mirrored pair, so reading
        # it as general would drop (1, 2) and give ((), (0,))
        body = "2 2 1\n2 1 1\n"
        for header in ("%%MatrixMarket matrix coordinate integer symmetric",
                       "%%MatrixMarket matrix coordinate pattern general",
                       "%%MatrixMarket matrix array integer general",
                       "%%MatrixMarket matrix coordinate integer general extra"):
            assert parse_error(f"{header}\n{body}", "matrixmarket") == (
                "line 1: expected the header "
                "'%%MatrixMarket matrix coordinate integer general'")
        assert deserialize(MM_HEADER.upper() + body, "matrixmarket").row_adj == ((), (0,))

    def test_matrixmarket_negative_size(self):
        text = MM_HEADER + "-1 2 0\n"
        assert parse_error(text, "matrixmarket") == "line 2: negative dimensions -1x2"

    def test_matrixmarket_size_bound(self):
        # rejected at the size line, before any row is allocated
        big = MAX_DIMENSION + 1
        for size in (f"{big} 1", f"1 {big}"):
            text = MM_HEADER + f"{size} 0\n"
            assert parse_error(text, "matrixmarket") == (
                f"line 2: dimensions {size.replace(' ', 'x')} exceed {MAX_DIMENSION}"
            )
        wide = deserialize(MM_HEADER + f"1 {MAX_DIMENSION} 1\n1 {MAX_DIMENSION} 1\n",
                           "matrixmarket")
        assert wide.row_adj == ((MAX_DIMENSION - 1,),)

    def test_alist_row_list_missing_from_column_lists(self):
        # the columns hold (1, 1) and (2, 2); row 1 lists column 2
        text = "2 2\n1 1\n1 1\n1 1\n1\n2\n2\n2\n"
        assert parse_error(text, "alist") == "line 7: entry (1, 2) missing from column lists"

    def test_alist_column_lists_hold_more_than_row_lists(self):
        # every row entry is in the column lists, which also hold (1, 2)
        text = "2 2\n2 1\n2 1\n1 1\n1 2\n1\n1\n1\n"
        assert parse_error(text, "alist") == "line 4: row and column weight totals disagree"

    def test_alist_indices_out_of_range(self):
        text = "2 2\n1 1\n1 1\n1 1\n3\n2\n1\n2\n"
        assert parse_error(text, "alist") == "line 5: row index 3 outside [1, 2]"
        text = "2 2\n1 1\n1 1\n1 1\n1\n2\n5\n2\n"
        assert parse_error(text, "alist") == "line 7: column index 5 outside [1, 2]"

    def test_alist_second_line_holds_the_largest_weights(self):
        # line 2 is the largest column weight, then the largest row weight
        lines = serialize(fractal_matrix(3, 2), "alist").splitlines()
        assert lines[1] == "2 3"
        wrong = "line 2: expected the largest column and row weights, '2 3'"
        for second, message in [("foo bar baz", "line 2: fields must be integers"),
                                ("0 0", wrong), ("3 2", wrong), ("2", wrong)]:
            lines[1] = second
            assert parse_error("\n".join(lines) + "\n", "alist") == message
