import importlib.util
import math
import random
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from isofractal import variety
from isofractal.combinat import index_tuples
from isofractal.gf import FieldMatrix, PrimeField, kernel_basis, rref
from isofractal.plucker import plucker_matrix
from isofractal.variety import (
    DEFAULT_BUDGET,
    MAX_HELD_COORDINATES,
    BudgetExceededError,
    _monomials,
    _pullback_forms,
    _wedge_minors,
    expected_count,
    oracle_points,
    quadratic_relations,
    rational_points,
)
from test_combinat import rank


class TestQuadraticRelations:
    def test_counts(self):
        assert len(quadratic_relations(2, 2)) == 16
        assert len(quadratic_relations(3, 3)) == math.comb(6, 2) * math.comb(6, 4) == 225

    def test_lex_order(self):
        rels = quadratic_relations(2, 2)
        assert rels[0] == ((1,), (1, 2, 3))
        # first relation whose index tuples are disjoint
        assert next(r for r in rels if not set(r[0]) & set(r[1])) == ((1,), (2, 3, 4))
        assert rels == sorted(rels)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            quadratic_relations(2, 3)


# the points-ladder instances of the benchmark and the verify points suite
REFERENCE_INSTANCES = [(2, 2, 2), (2, 2, 3), (2, 2, 5), (3, 2, 2), (3, 3, 2),
                       (3, 2, 3), (3, 3, 3)]


def evaluate_relation(rel, w, n, k, field):
    """Value of the exchange relation on a coordinate vector over GF(p).

    Written out from the definition, each coordinate ranked with the
    closed-form ``rank`` of ``test_combinat``: sum over the entries b of beta, at position pos, of
    (-1)**pos * X[alpha + b] * X[beta - b], where X on an unsorted tuple is the
    sorted coordinate times the sorting sign and X on a repeated entry is 0.
    """
    m = 2 * n
    if len(w) != math.comb(m, k):
        raise ValueError(f"vector length {len(w)} != C({m}, {k})")
    alpha, beta = rel
    total = 0
    for pos, b in enumerate(beta, start=1):
        if b in alpha:
            continue
        inversions = sum(1 for a in alpha if a > b)
        first = rank(tuple(sorted(alpha + (b,))), m)
        second = rank(tuple(v for v in beta if v != b), m)
        total += (-1) ** (pos + inversions) * w[first] * w[second]
    return total % field.p


def vector_with(n, k, assignments):
    w = [0] * math.comb(2 * n, k)
    cols = index_tuples(k, 2 * n)
    for label, value in assignments.items():
        w[cols.index(label)] = value
    return w


class TestEvaluateRelation:
    def test_decomposable_coordinate_vanishes(self):
        rel = ((1,), (2, 3, 4))
        w = vector_with(2, 2, {(1, 2): 1})
        assert evaluate_relation(rel, w, 2, 2, PrimeField(3)) == 0

    def test_known_nonzero_value(self):
        rel = ((1,), (2, 3, 4))
        w = vector_with(2, 2, {(1, 2): 1, (3, 4): 1})
        # -X12 X34 + X13 X24 - X14 X23 = -1
        assert evaluate_relation(rel, w, 2, 2, PrimeField(3)) == 2
        assert evaluate_relation(rel, w, 2, 2, PrimeField(5)) == 4

    def test_zero_vector(self):
        rel = ((1,), (2, 3, 4))
        w = vector_with(2, 2, {})
        assert evaluate_relation(rel, w, 2, 2, PrimeField(2)) == 0

    def test_dimension_mismatch(self):
        rel = ((1,), (2, 3, 4))
        with pytest.raises(ValueError):
            evaluate_relation(rel, [0, 1], 2, 2, PrimeField(2))


def dense_basis(rows, ncols):
    """Sparse ``(column, residue)`` rows as a dense int64 array."""
    basis = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, row in enumerate(rows):
        for j, v in row:
            basis[i, j] = v
    return basis


def echelon_basis(n, k, q):
    """The field and the reduced echelon rows of the signed system's kernel over GF(q)."""
    field = PrimeField(q)
    kernel = kernel_basis(plucker_matrix(n, k, signed=True).field_matrix(field))
    return field, rref(FieldMatrix(field, kernel, math.comb(2 * n, k)))[1]


class TestPullbackForms:
    @pytest.mark.parametrize("n,k,q", [(2, 2, 3), (3, 2, 2), (3, 3, 3), (4, 2, 3)])
    def test_forms_agree_with_raw_relations(self, n, k, q):
        field = PrimeField(q)
        kernel = kernel_basis(plucker_matrix(n, k, signed=True).field_matrix(field))
        basis = dense_basis(kernel, math.comb(2 * n, k))
        rels = quadratic_relations(n, k)
        forms = _pullback_forms(rels, kernel, n, k, q)
        assert len(forms) == len(rels)
        first, second = _monomials(len(basis))
        rng = random.Random(2303)
        for _ in range(200 if n < 4 else 40):
            c = np.array([rng.randrange(q) for _ in range(len(basis))], dtype=np.int64)
            monomials = (c[first] * c[second]).tolist()
            pulled = [sum(v * monomials[m] for m, v in form) % q for form in forms]
            w = [int(v) for v in c @ basis % q]
            raw = [evaluate_relation(rel, w, n, k, field) for rel in rels]
            assert pulled == raw

    @pytest.mark.parametrize("n,k,q,rank", [(3, 3, 3, 21), (4, 3, 2, 351),
                                            (4, 4, 3, 309), (5, 2, 2, 210)])
    def test_rank_of_the_reduced_forms(self, n, k, q, rank):
        field, echelon = echelon_basis(n, k, q)
        d = len(echelon)
        forms = _pullback_forms(quadratic_relations(n, k), echelon, n, k, q)
        assert len(rref(FieldMatrix(field, forms, d * (d + 1) // 2))[0]) == rank

    def test_pullback_and_form_reduction_stay_sparse(self):
        # at (4, 3, 2), d = 48: a dense form matrix would hold 1,960 relations
        # x 1,176 monomials, 18 MB of int64, before any temporary
        n, k, q = 4, 3, 2
        field, echelon = echelon_basis(n, k, q)
        relations = quadratic_relations(n, k)
        d = len(echelon)
        tracemalloc.start()
        try:
            forms = _pullback_forms(relations, echelon, n, k, q)
            rref(FieldMatrix(field, forms, d * (d + 1) // 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000


class TestExpectedCount:
    def test_known_values(self):
        assert expected_count(2, 2, 2) == 15
        assert expected_count(3, 3, 2) == 135
        assert expected_count(3, 3, 3) == 1120
        assert expected_count(2, 2, 3) == 40
        assert expected_count(2, 2, 5) == 156
        assert expected_count(3, 2, 2) == 315

    def test_rejects_composite_field_size(self):
        with pytest.raises(ValueError):
            expected_count(2, 2, 4)

    def test_subspace_count(self):
        assert subspace_count(4, 2, 2) == 35
        assert subspace_count(6, 3, 3) == 33880


def schubert_cells(n, k):
    """For each isotropic pivot set, the free cells of each echelon row under the oracle's rule.

    Row i, pivoting at p_i, is free at every cell past p_i except the later
    pivots and the partner cells 2n-1-p_j, past p_i, of the earlier pivots,
    which the pairing with row j solves.  The count does not depend on the
    rows above, so the cell of pivot set P holds q**e(P) subspaces, e(P) the
    sum over its rows (the Bruhat cells of the isotropic Grassmannian).
    """
    m = 2 * n
    for pivots in combinations(range(m), k):
        if any(m - 1 - p in pivots for p in pivots):
            continue
        yield [m - 1 - p - (k - 1 - i) - sum(1 for c in pivots[:i] if m - 1 - c > p)
               for i, p in enumerate(pivots)]


def poly_mul(a, b):
    """The product of two integer polynomials, coefficients lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_div_exact(a, b):
    """a / b for a divisor b with leading coefficient 1; the remainder must be zero."""
    a = list(a)
    quotient = [0] * (len(a) - len(b) + 1)
    for i in range(len(quotient) - 1, -1, -1):
        quotient[i] = c = a[i + len(b) - 1]
        for j, y in enumerate(b):
            a[i + j] -= c * y
    assert not any(a)
    return quotient


class TestSchubertCells:
    def test_cell_sizes_sum_to_the_closed_form(self):
        for n in range(2, 13):
            for k in range(2, n + 1):
                if math.comb(2 * n, k) > 5000:
                    break
                sizes = [sum(free) for free in schubert_cells(n, k)]
                for q in (2, 3, 5):
                    assert sum(q**e for e in sizes) == expected_count(n, k, q), (n, k, q)

    def test_cell_polynomial_is_the_product_formula(self):
        # sum_P t**e(P) = prod_(i<k) (t**(2n-2i) - 1) / (t**(i+1) - 1), coefficient by coefficient
        for n in range(2, 11):
            for k in range(2, n + 1):
                cells = Counter(sum(free) for free in schubert_cells(n, k))
                product = [1]
                for i in range(k):
                    product = poly_mul(product, [-1] + [0] * (2 * n - 2 * i - 1) + [1])
                for i in range(k):
                    product = poly_div_exact(product, [-1] + [0] * i + [1])
                assert dict(cells) == {e: c for e, c in enumerate(product) if c}, (n, k)

    @pytest.mark.parametrize("n,k,q,examined", [(2, 2, 2, 26), (2, 2, 5, 212),
                                                (3, 3, 2, 281), (4, 3, 2, 16_005)])
    def test_node_sum_is_the_oracle_count(self, n, k, q, examined):
        # a level builds q**free children of every partial basis above it
        nodes = sum(sum(q ** sum(free[: i + 1]) for i in range(k))
                    for free in schubert_cells(n, k))
        assert nodes == examined


class TestRationalPoints:
    def test_two_two_two(self):
        result = rational_points(2, 2, 2)
        assert result.count == 15
        assert result.examined == 57

    def test_two_two_three(self):
        assert rational_points(2, 2, 3).count == 40

    def test_classification_partitions_the_stream(self, monkeypatch):
        # at (2, 2, 3), d = 5, no row is rejected before the last level: the
        # search builds all sum_j (3**j - 1) / 2 = 179 rows, and the last
        # level sorts the (3**5 - 1) / 2 = 121 classes into 40 points and 81
        # rejected; with every form zero, all 121 are points
        result = rational_points(2, 2, 3)
        assert (result.count, result.examined) == (40, 179)
        monkeypatch.setattr(variety, "_pullback_forms",
                            lambda relations, *args: tuple(() for _ in relations))
        vacuous = rational_points(2, 2, 3)
        assert (vacuous.count, vacuous.examined) == ((3**5 - 1) // 2, 179)

    def test_square_of_the_next_coefficient(self, monkeypatch):
        # no reduced pullback at q >= 3 has been seen with a square of its
        # highest coefficient, so synthetic forms pin the u*v**2 term: at
        # q = 3, v**2 differs from v at v = 2, and a dropped term differs at v = 1
        q, d = 3, 5
        first, second = _monomials(d)
        squares = [{(4, 4): 1, (0, 1): 1, (2, 3): 2}, {(3, 3): 1, (1, 2): 2}]
        column = {mono: m for m, mono in enumerate(zip(first.tolist(), second.tolist()))}
        sparse = tuple(tuple(sorted((column[mono], v) for mono, v in form.items()))
                       for form in squares)
        forms = dense_basis(sparse, len(column))
        bases = []

        def synthetic(relations, echelon, n, k, q):
            bases.append(echelon)
            return sparse

        monkeypatch.setattr(variety, "_pullback_forms", synthetic)
        found = rational_points(2, 2, q).points
        [echelon] = bases
        basis = dense_basis(echelon, math.comb(4, 2))
        assert len(basis) == d
        # every projective coefficient vector, first nonzero 1, kept where the forms vanish
        expected = set()
        for c in map(np.array, product(range(q), repeat=d)):
            normalized = c.any() and c[np.flatnonzero(c)[0]] == 1
            if normalized and not (forms @ (c[first] * c[second]) % q).any():
                expected.add(tuple((c @ basis % q).tolist()))
        assert found == expected

    @pytest.mark.parametrize("n,k,q,rows,nodes", [
        (2, 2, 2, 57, 26),
        (2, 2, 3, 179, 62),
        (2, 2, 5, 975, 212),
        (3, 2, 2, 4624, 416),
        (3, 3, 2, 2072, 281),
        (3, 2, 3, 78542, 4070),
        (3, 3, 3, 21788, 1884),
    ])
    def test_both_routes_count_rows_built(self, n, k, q, rows, nodes):
        assert rational_points(n, k, q).examined == rows
        assert oracle_points(n, k, q).examined == nodes

    def test_oracle_equality_small(self):
        for n, k, q in REFERENCE_INSTANCES:
            found = rational_points(n, k, q)
            oracle = oracle_points(n, k, q)
            assert found.points == oracle.points
            assert found.count == expected_count(n, k, q)

    @pytest.mark.parametrize("n,k,q", [(2, 2, 5), (3, 2, 3), (3, 3, 2)])
    def test_points_lead_with_one_at_a_basis_pivot(self, n, k, q):
        field = PrimeField(q)
        kernel = kernel_basis(plucker_matrix(n, k, signed=True).field_matrix(field))
        pivots, rows = rref(FieldMatrix(field, kernel, math.comb(2 * n, k)))
        assert len(rows) == len(kernel)
        assert all(row[0] == (pivot, 1) for pivot, row in zip(pivots, rows, strict=True))
        for point in rational_points(n, k, q).points:
            first = next(i for i, x in enumerate(point) if x)
            assert first in pivots
            assert point[first] == 1

    def test_unnormalized_echelon_basis_is_an_error(self, monkeypatch):
        # every echelon form doubled: the reduced forms keep their zeros, and
        # the kernel basis is 2, not 1, at its pivots
        reduce = variety.rref

        def doubled(m):
            pivots, rows = reduce(m)
            assert all(row[0] == (pivot, 1) for pivot, row in zip(pivots, rows, strict=True))
            return pivots, tuple(tuple((j, 2 * v % m.field.p) for j, v in row) for row in rows)

        monkeypatch.setattr(variety, "rref", doubled)
        with pytest.raises(ArithmeticError, match="first nonzero"):
            rational_points(2, 2, 3)

    def test_points_are_normalized_kernel_members(self):
        result = rational_points(2, 2, 3)
        pm = plucker_matrix(2, 2, signed=True)
        field = PrimeField(3)
        for point in result.points:
            lead = next(x for x in point if x)
            assert lead == 1
            assert pm.apply(tuple((j, v) for j, v in enumerate(point) if v), field) == (0,)

    def test_budget_refusal_names_required(self):
        with pytest.raises(BudgetExceededError) as err:
            rational_points(3, 3, 2, budget=100)
        assert err.value.required == 2**14
        assert "16384" in str(err.value)

    def test_budget_refused_before_the_system_is_built(self, monkeypatch):
        def unbuildable(*args, **kwargs):
            raise AssertionError("the system was built")

        monkeypatch.setattr(variety, "plucker_matrix", unbuildable)
        # the held-points check comes first: 83,724,041,661,975 points of
        # C(18, 9) = 48,620 coordinates each
        with pytest.raises(BudgetExceededError) as err:
            rational_points(9, 9, 2)
        assert err.value.required == 83_724_041_661_975 * 48_620
        assert err.value.budget == MAX_HELD_COORDINATES
        assert "the held-coordinate limit" in str(err.value)

    @pytest.mark.parametrize("route", [rational_points, oracle_points])
    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_is_an_error(self, route, budget):
        with pytest.raises(ValueError, match="budget must be a positive integer") as err:
            route(2, 2, 2, budget=budget)
        assert not isinstance(err.value, BudgetExceededError)

    def test_int64_limit_refused_before_enumeration(self):
        q = 2**31 - 1
        with pytest.raises(ValueError, match=r"2\*\*63") as err:
            rational_points(2, 2, q, budget=q**5)
        assert not isinstance(err.value, BudgetExceededError)

    @pytest.mark.slow
    def test_instance_beyond_default_budget(self):
        with pytest.raises(BudgetExceededError):
            rational_points(4, 2, 2)
        found = rational_points(4, 2, 2, budget=1 << 27)
        oracle = oracle_points(4, 2, 2, budget=1 << 27)
        assert found.count == expected_count(4, 2, 2) == 5355
        assert oracle.examined == 6004
        assert found.points == oracle.points


class TestCells:
    @pytest.mark.parametrize("route", [rational_points, oracle_points])
    @pytest.mark.parametrize("n,k,q", [(3, 3, 3), (3, 2, 3)])
    def test_sorted_arrays_by_descending_column(self, route, n, k, q):
        result = route(n, k, q)
        columns = [column for column, _ in result.cells]
        assert columns == sorted(set(columns), reverse=True)
        listed = []
        for column, rows in result.cells:
            assert rows.dtype == np.min_scalar_type(q - 1) == np.uint8
            assert rows.ndim == 2 and rows.flags.c_contiguous and not rows.flags.writeable
            points = [tuple(row) for row in rows.tolist()]
            assert all(a < b for a, b in zip(points, points[1:]))
            assert {next(i for i, x in enumerate(point) if x) for point in points} == {column}
            listed += points
        assert result.count == len(listed) == len(result.points) == expected_count(n, k, q)
        assert result.points == frozenset(listed)

    @pytest.mark.parametrize("n,k,q", REFERENCE_INSTANCES + [(3, 3, 5), (4, 2, 2)])
    def test_kernel_cells_arrive_sorted(self, n, k, q, monkeypatch):
        # the basis is in reduced echelon form, so the coefficient rows, built
        # in lexicographic order, give their points in lexicographic order
        collect = variety._collect
        arrived = []

        def watched(cells, what, q):
            for column, rows in cells:
                points = [tuple(row) for row in rows.tolist()]
                arrived.append(points == sorted(points))
                yield column, rows

        monkeypatch.setattr(variety, "_collect",
                            lambda cells, what, q: collect(watched(cells, what, q), what, q))
        rational_points(n, k, q, budget=2**64)
        assert arrived and all(arrived)

    @pytest.mark.parametrize("q", [13, 101])
    def test_text_is_the_sorted_points_joined(self, q):
        # residues of two and three digits: the table pads them with NULs
        result = oracle_points(2, 2, q)
        assert result.text() == "".join(" ".join(map(str, point)) + "\n"
                                        for point in sorted(result.points))

    def test_equality_compares_fields_and_cells(self):
        found, oracle = rational_points(2, 2, 3), oracle_points(2, 2, 3)
        assert found == rational_points(2, 2, 3) and oracle == oracle_points(2, 2, 3)
        assert found.same_points(oracle) and found != oracle  # examined differs
        (column, rows), *rest = oracle.cells
        assert not oracle.same_points(replace(oracle, cells=((column, rows[:-1]), *rest)))
        assert oracle != replace(oracle, cells=tuple(rest))

    def test_wide_residues_sort_by_value(self):
        # past q = 256 a residue takes two bytes, whose little-endian order is not their value's
        rows = np.array([[1, 256, 0], [1, 1, 7], [1, 1, 7]], dtype=np.uint16)
        ordered, distinct = variety._sorted_cell(rows)
        assert ordered.tolist() == sorted(rows.tolist()) and distinct == 2

    def test_repeated_column_is_an_error(self):
        rows = np.array([[1, 0, 0, 0, 0, 0]])
        with pytest.raises(ArithmeticError, match="cell at coordinate 0 after one at 0"):
            variety._collect(iter([(0, rows), (0, rows)]), "cells", 2)


def det_mod(rows, p):
    """Determinant over GF(p) by elimination with row swaps."""
    a = [row[:] for row in rows]
    size = len(a)
    det = 1
    for c in range(size):
        pivot = next((r for r in range(c, size) if a[r][c] % p), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det = (det * a[c][c]) % p
        inv = pow(a[c][c], p - 2, p)
        for r in range(c + 1, size):
            if a[r][c] % p:
                factor = (a[r][c] * inv) % p
                a[r] = [(x - factor * y) % p for x, y in zip(a[r], a[c])]
    return det % p


def normalize_projective(v, field):
    """Scale so the first nonzero coordinate is 1; rejects the zero vector."""
    p = field.p
    reduced = [x % p for x in v]
    lead = next((x for x in reduced if x), None)
    if lead is None:
        raise ValueError("the zero vector has no projective representative")
    inv = pow(lead, -1, p)
    return tuple((x * inv) % p for x in reduced)


def subspace_count(m, k, q):
    """Number of k-dimensional subspaces of GF(q)^m (Gaussian binomial)."""
    acc = Fraction(1)
    for i in range(k):
        acc *= Fraction(q ** (m - i) - 1, q ** (k - i) - 1)
    assert acc.denominator == 1
    return int(acc)


def reference_oracle(n, k, q):
    """Every k-subspace by reduced echelon basis, kept when isotropic, then minors.

    Returns the normalized points and the number of subspaces enumerated.  The
    pairing is written out from its definition: +1 on (i, 2n+1-i) for i <= n.
    """
    field = PrimeField(q)
    m = 2 * n

    def pairing(x, y):
        return sum(x[i] * y[m - 1 - i] - x[m - 1 - i] * y[i] for i in range(n))

    col_combos = list(combinations(range(m), k))
    points = set()
    examined = 0
    for pivots in combinations(range(m), k):
        free_cells = [(i, j) for i in range(k) for j in range(pivots[i] + 1, m)
                      if j not in pivots]
        for values in product(range(q), repeat=len(free_cells)):
            rows = [[0] * m for _ in range(k)]
            for i, pc in enumerate(pivots):
                rows[i][pc] = 1
            for (i, j), v in zip(free_cells, values):
                rows[i][j] = v
            examined += 1
            if any(pairing(rows[i], rows[j]) % q
                   for i in range(k) for j in range(i + 1, k)):
                continue
            vec = [det_mod([[row[c] for c in cols] for row in rows], q)
                   for cols in col_combos]
            points.add(normalize_projective(vec, field))
    return frozenset(points), examined


class TestOracleAgainstReference:
    @pytest.mark.parametrize("n,k,q", REFERENCE_INSTANCES)
    def test_same_points_as_full_enumeration(self, n, k, q):
        points, examined = reference_oracle(n, k, q)
        assert examined == subspace_count(2 * n, k, q)
        result = oracle_points(n, k, q)
        assert result.points == points
        assert result.count == expected_count(n, k, q)

    def test_normalize_rejects_zero(self):
        with pytest.raises(ValueError):
            normalize_projective([0, 0], PrimeField(3))

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_wedge_minors_match_determinants(self, q):
        rng = random.Random(q)
        for k in range(1, 6):
            for m in range(k, 11):
                bases = np.array([[[rng.randrange(q) for _ in range(m)] for _ in range(k)]
                                  for _ in range(3)], dtype=np.int64)
                expected = [[det_mod([[row[c] for c in cols] for row in basis], q)
                             for cols in combinations(range(m), k)]
                            for basis in bases.tolist()]
                assert _wedge_minors(bases, q).tolist() == expected


class TestOraclePoints:
    def test_coordinate_subspace_present(self):
        for q in (2, 3):
            result = oracle_points(2, 2, q)
            e12 = tuple([1] + [0] * 5)
            assert e12 in result.points

    def test_examined_counts_all_subspaces(self):
        # 35 subspaces; the search visits 11 first rows and 15 complete bases
        result = oracle_points(2, 2, 2)
        assert result.examined == 26
        assert result.count == 15

    @pytest.mark.parametrize("n,k,q,nodes,count", [
        (3, 3, 3, 1884, 1120),
        (4, 3, 2, 16005, 11475),
        (4, 4, 2, 5040, 2295),
    ])
    def test_nodes_and_counts_beyond_the_ladder(self, n, k, q, nodes, count):
        result = oracle_points(n, k, q)
        assert result.examined == nodes
        assert result.count == expected_count(n, k, q) == count

    @pytest.mark.slow
    def test_four_four_two_equals_kernel_search(self):
        found = rational_points(4, 4, 2, budget=1 << 43)
        assert oracle_points(4, 4, 2).points == found.points

    @pytest.mark.slow
    def test_four_four_three_count(self):
        result = oracle_points(4, 4, 3)
        assert result.examined == 156256
        assert result.count == expected_count(4, 4, 3) == 91840

    def test_oracle_points_satisfy_relations_and_kernel(self):
        n, k, q = 3, 3, 2
        field = PrimeField(q)
        pm = plucker_matrix(n, k, signed=True)
        rels = quadratic_relations(n, k)
        result = oracle_points(n, k, q)
        assert result.count == 135
        for point in result.points:
            w = list(point)
            sparse = tuple((j, v) for j, v in enumerate(w) if v)
            assert pm.apply(sparse, field) == (0,) * pm.support.rows
            assert all(evaluate_relation(rel, w, n, k, field) == 0 for rel in rels)

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError) as err:
            oracle_points(3, 3, 2, budget=10)
        # the nodes visited plus the batch refused: the 8 first rows of pivot
        # set (0, 1, 2), then the 32 second rows that would follow them
        assert err.value.required == 40
        assert "at least 40" in str(err.value)
        assert "echelon row 2 of 3" in str(err.value)
        assert oracle_points(3, 3, 2, budget=281).examined == 281
        with pytest.raises(BudgetExceededError):
            oracle_points(3, 3, 2, budget=280)

    def test_int64_limit_refused_before_the_field_is_built(self):
        # q = 2**61 - 1 is prime; testing that by trial division would not finish
        started = time.perf_counter()
        with pytest.raises(ValueError, match=r"\(q-1\)\*\*2 < 2\*\*63") as err:
            oracle_points(2, 2, 2**61 - 1)
        assert not isinstance(err.value, BudgetExceededError)
        assert time.perf_counter() - started < 1.0

    def test_unnormalized_minor_vector_is_an_error(self, monkeypatch):
        minors = variety._wedge_minors
        monkeypatch.setattr(variety, "_wedge_minors",
                            lambda bases, q: 2 * minors(bases, q) % q)
        with pytest.raises(ArithmeticError, match="first nonzero"):
            oracle_points(2, 2, 3)

    def test_rolled_minor_vector_is_an_error(self, monkeypatch):
        # every minor moved one coordinate on: the first nonzero of a rolled
        # vector can still be 1, but not always at its pivot set's coordinate
        minors = variety._wedge_minors
        monkeypatch.setattr(variety, "_wedge_minors",
                            lambda bases, q: np.roll(minors(bases, q), 1, axis=1))
        with pytest.raises(ArithmeticError, match="first nonzero"):
            oracle_points(2, 2, 2)

    def test_repeated_point_is_an_error(self, monkeypatch):
        minors = variety._wedge_minors
        monkeypatch.setattr(variety, "_wedge_minors",
                            lambda bases, q: minors(bases[:1].repeat(len(bases), 0), q))
        # each of the four isotropic pivot sets collapses to one point
        with pytest.raises(ArithmeticError, match="gave 4 points"):
            oracle_points(2, 2, 3)

    def test_peak_memory_stays_near_the_points_held(self):
        tracemalloc.start()
        try:
            result = oracle_points(4, 3, 2)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.count == 11475
        assert peak <= 1.5 * held


class TestHeldPointsRefusal:
    @pytest.mark.parametrize("n,k,q,held", [(4, 4, 3, 6_428_800), (5, 5, 2, 19_085_220)])
    def test_largest_reached_instances_are_accepted(self, n, k, q, held):
        assert expected_count(n, k, q) * math.comb(2 * n, k) == held <= MAX_HELD_COORDINATES
        variety._refuse_held_points(n, k, q)

    @pytest.mark.parametrize("route,n,k,q", [(rational_points, 5000, 2, 3),
                                             (rational_points, 8000, 8000, 2),
                                             (oracle_points, 2000, 2000, 2)])
    def test_refused_at_once_on_the_coordinates_alone(self, route, n, k, q):
        # C(2n, k) already passes the limit: no closed form, no q**d, and no
        # integer past 64 bits written out in the message
        started = time.perf_counter()
        with pytest.raises(BudgetExceededError) as err:
            route(n, k, q)
        assert time.perf_counter() - started < 1.0
        assert err.value.required == math.comb(2 * n, k)
        assert "the held-coordinate limit" in str(err.value)
        assert len(str(err.value)) < 300

    @pytest.mark.parametrize("route", [rational_points, oracle_points])
    def test_composite_q_is_an_error_before_the_limit(self, route):
        # C(10000, 2) passes the limit, but q is checked first: a usage error
        with pytest.raises(ValueError, match="not prime") as err:
            route(5000, 2, 4)
        assert not isinstance(err.value, BudgetExceededError)

    @pytest.mark.parametrize("route,budget", [(oracle_points, DEFAULT_BUDGET),
                                              (rational_points, 3**50)])
    def test_refused_before_any_work(self, route, budget):
        started = time.perf_counter()
        with pytest.raises(BudgetExceededError) as err:
            route(5, 2, 3, budget=budget)
        assert err.value.required == 24_209_680 * 45 == 1_089_435_600
        assert err.value.budget == MAX_HELD_COORDINATES
        assert "at least 1089435600, the held-coordinate limit" in str(err.value)
        assert str(MAX_HELD_COORDINATES) in str(err.value)
        assert time.perf_counter() - started < 1.0


def point_census():
    path = Path(__file__).resolve().parent.parent / "scripts" / "point_census.py"
    spec = importlib.util.spec_from_file_location("point_census", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the admitted instances the kernel route accepts under DEFAULT_BUDGET
KERNEL_ACCEPTED = [(2, 2, q) for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)] + [
    (3, 2, 2), (3, 2, 3), (3, 3, 2), (3, 3, 3)]


def test_routes_agree_on_the_admitted_domain():
    accepted = []
    for n, k, q in point_census().admitted():
        try:
            found = rational_points(n, k, q, budget=DEFAULT_BUDGET)
        except BudgetExceededError:
            continue
        accepted.append((n, k, q))
        assert oracle_points(n, k, q, budget=DEFAULT_BUDGET).points == found.points, (n, k, q)
        assert found.count == expected_count(n, k, q), (n, k, q)
    assert accepted == KERNEL_ACCEPTED


@pytest.mark.parametrize("n,k,q,count,rows", [(3, 3, 5, 19_656, 538_754),
                                              (4, 3, 2, 11_475, 1_384_086)])
def test_kernel_route_past_the_default_budget(n, k, q, count, rows):
    # d = 14 and d = 48: q**d passes DEFAULT_BUDGET, so only a lifted budget
    # reaches the search on kernels this wide
    found = rational_points(n, k, q, budget=2**64)
    assert found.count == expected_count(n, k, q) == count
    assert found.points == oracle_points(n, k, q).points
    assert found.examined == rows
