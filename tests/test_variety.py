import math
import random

import numpy as np
import pytest

from isofractal.combinat import index_tuples
from isofractal.gf import PrimeField, kernel_basis
from isofractal.plucker import plucker_matrix
from isofractal.variety import (
    BudgetExceededError,
    QuadraticRelation,
    _monomials,
    _pullback_forms,
    evaluate_relation,
    expected_count,
    oracle_points,
    quadratic_relations,
    rational_points,
    subspace_count,
)


class TestQuadraticRelations:
    def test_counts(self):
        assert len(quadratic_relations(2, 2)) == 16
        assert len(quadratic_relations(3, 3)) == math.comb(6, 2) * math.comb(6, 4) == 225

    def test_lex_order(self):
        rels = quadratic_relations(2, 2)
        assert rels[0].alpha == (1,) and rels[0].beta == (1, 2, 3)
        # first relation whose index tuples are disjoint
        first_disjoint = next(
            r for r in rels if not set(r.alpha) & set(r.beta)
        )
        assert first_disjoint.alpha == (1,) and first_disjoint.beta == (2, 3, 4)
        as_pairs = [(r.alpha, r.beta) for r in rels]
        assert as_pairs == sorted(as_pairs)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            quadratic_relations(2, 3)


def vector_with(n, k, assignments):
    w = [0] * math.comb(2 * n, k)
    cols = index_tuples(k, 2 * n)
    for label, value in assignments.items():
        w[cols.index(label)] = value
    return w


class TestEvaluateRelation:
    def test_decomposable_coordinate_vanishes(self):
        rel = QuadraticRelation((1,), (2, 3, 4))
        w = vector_with(2, 2, {(1, 2): 1})
        assert evaluate_relation(rel, w, 2, 2, PrimeField(3)) == 0

    def test_known_nonzero_value(self):
        rel = QuadraticRelation((1,), (2, 3, 4))
        w = vector_with(2, 2, {(1, 2): 1, (3, 4): 1})
        # -X12 X34 + X13 X24 - X14 X23 = -1
        assert evaluate_relation(rel, w, 2, 2, PrimeField(3)) == 2
        assert evaluate_relation(rel, w, 2, 2, PrimeField(5)) == 4

    def test_zero_vector(self):
        rel = QuadraticRelation((1,), (2, 3, 4))
        w = vector_with(2, 2, {})
        assert evaluate_relation(rel, w, 2, 2, PrimeField(2)) == 0

    def test_dimension_mismatch(self):
        rel = QuadraticRelation((1,), (2, 3, 4))
        with pytest.raises(ValueError):
            evaluate_relation(rel, [0, 1], 2, 2, PrimeField(2))


class TestPullbackForms:
    @pytest.mark.parametrize("n,k,q", [(2, 2, 3), (3, 2, 2), (3, 3, 3)])
    def test_forms_agree_with_raw_relations(self, n, k, q):
        field = PrimeField(q)
        basis = np.array(
            kernel_basis(plucker_matrix(n, k, signed=True).field_matrix(field)),
            dtype=np.int64,
        )
        rels = quadratic_relations(n, k)
        forms = _pullback_forms(rels, basis, n, k, q)
        first, second = _monomials(len(basis))
        rng = random.Random(2303)
        for _ in range(200):
            c = np.array([rng.randrange(q) for _ in range(len(basis))], dtype=np.int64)
            pulled = forms @ (c[first] * c[second]) % q
            w = [int(v) for v in c @ basis % q]
            raw = [evaluate_relation(rel, w, n, k, field) for rel in rels]
            assert pulled.tolist() == raw


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


class TestRationalPoints:
    def test_two_two_two(self):
        result = rational_points(2, 2, 2)
        assert result.count == 15
        assert result.examined == 31

    def test_two_two_three(self):
        assert rational_points(2, 2, 3).count == 40

    def test_classification_partitions_the_stream(self):
        result = rational_points(2, 2, 3)
        rejected = result.examined - result.count
        assert result.examined == (3**5 - 1) // 2
        assert rejected == result.examined - 40

    def test_oracle_equality_small(self):
        for n, k, q in [(2, 2, 2), (2, 2, 3), (3, 2, 2)]:
            found = rational_points(n, k, q)
            oracle = oracle_points(n, k, q)
            assert found.points == oracle.points
            assert found.count == expected_count(n, k, q)

    def test_mode_agreement_in_characteristic_two(self):
        signed = rational_points(3, 3, 2, mode="signed")
        unsigned = rational_points(3, 3, 2, mode="unsigned")
        assert signed.points == unsigned.points

    def test_points_are_normalized_kernel_members(self):
        result = rational_points(2, 2, 3)
        pm = plucker_matrix(2, 2, signed=True)
        field = PrimeField(3)
        for point in result.points:
            lead = next(x for x in point if x)
            assert lead == 1
            assert pm.apply(list(point), field) == (0,)

    def test_budget_refusal_names_required(self):
        with pytest.raises(BudgetExceededError) as err:
            rational_points(3, 3, 2, budget=100)
        assert err.value.required == 2**14
        assert "16384" in str(err.value)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            rational_points(2, 2, 2, mode="both")

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
        assert oracle.examined == 10795
        assert found.points == oracle.points


class TestOraclePoints:
    def test_coordinate_subspace_present(self):
        for q in (2, 3):
            result = oracle_points(2, 2, q)
            e12 = tuple([1] + [0] * 5)
            assert e12 in result.points

    def test_examined_counts_all_subspaces(self):
        result = oracle_points(2, 2, 2)
        assert result.examined == 35
        assert result.count == 15

    def test_oracle_points_satisfy_relations_and_kernel(self):
        n, k, q = 3, 3, 2
        field = PrimeField(q)
        pm = plucker_matrix(n, k, signed=True)
        rels = quadratic_relations(n, k)
        result = oracle_points(n, k, q)
        assert result.count == 135
        for point in result.points:
            w = list(point)
            assert pm.apply(w, field) == (0,) * pm.support.rows
            assert all(evaluate_relation(rel, w, n, k, field) == 0 for rel in rels)

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError) as err:
            oracle_points(3, 3, 2, budget=10)
        assert err.value.required == subspace_count(6, 3, 2)
