"""Rational points of the isotropic Grassmannian over prime fields.

Two independent routes produce the same point set:

* ``rational_points``: solve the linear system, pull every quadratic exchange
  relation back to a quadratic form in the kernel coefficients, and search the
  coefficients level by level, dropping a partial assignment as soon as a
  reduced form whose variables are all set is nonzero,
* ``oracle_points``: enumerate every k-dimensional subspace by its reduced
  echelon basis, keep the ones on which the symplectic pairing vanishes, and
  push them through the minor (wedge coordinate) map.

``expected_count`` evaluates the closed-form cardinality, which both routes
must reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from .combinat import IndexTuple, index_tuples, rank
from .gf import (FieldMatrix, FieldVector, PrimeField, kernel_basis,
                 normalize_projective, projective_count, rref)
from .plucker import SymplecticForm, plucker_matrix

DEFAULT_BUDGET = 1 << 25


class BudgetExceededError(ValueError):
    """Enumeration would exceed the configured budget; carries the needed value."""

    def __init__(self, required: int, budget: int, what: str):
        super().__init__(
            f"{what} needs a budget of {required}, configured budget is {budget}"
        )
        self.required = required
        self.budget = budget


@dataclass(frozen=True)
class QuadraticRelation:
    """One exchange relation: a (k-1)-tuple paired with a (k+1)-tuple."""

    alpha: IndexTuple
    beta: IndexTuple


def quadratic_relations(n: int, k: int) -> list[QuadraticRelation]:
    """All relation index pairs in lexicographic order."""
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    if k + 1 > 2 * n:
        raise ValueError(f"need k + 1 <= 2n, got k={k}, n={n}")
    return [
        QuadraticRelation(alpha, beta)
        for alpha in index_tuples(k - 1, 2 * n)
        for beta in index_tuples(k + 1, 2 * n)
    ]


def _relation_terms(
    rel: QuadraticRelation, n: int, k: int
) -> list[tuple[int, int, int]]:
    """Compile a relation to (sign, first coordinate rank, second coordinate rank).

    Terms whose extended tuple repeats an entry vanish and are dropped.  The
    sign combines the alternating position sign with the parity of sorting the
    appended entry into place.
    """
    m = 2 * n
    alpha_set = set(rel.alpha)
    terms = []
    for pos, b in enumerate(rel.beta, start=1):
        if b in alpha_set:
            continue
        inversions = sum(1 for a in rel.alpha if a > b)
        sign = (-1) ** (pos + inversions)
        first = tuple(sorted(rel.alpha + (b,)))
        second = tuple(v for v in rel.beta if v != b)
        terms.append((sign, rank(first, m), rank(second, m)))
    return terms


def evaluate_relation(
    rel: QuadraticRelation, w: list[int] | FieldVector, n: int, k: int, field: PrimeField
) -> int:
    """Value of the exchange relation on a coordinate vector over GF(p).

    A coordinate on a tuple with a repeated entry is zero; a coordinate on an
    unsorted tuple is the sorted coordinate times the sorting sign.
    """
    if len(w) != math.comb(2 * n, k):
        raise ValueError(f"vector length {len(w)} != C({2 * n}, {k})")
    p = field.p
    total = 0
    for sign, i1, i2 in _relation_terms(rel, n, k):
        total += sign * w[i1] * w[i2]
    return total % p


@dataclass(frozen=True)
class PointSet:
    """Normalized projective points found, plus the number of classes examined."""

    n: int
    k: int
    q: int
    points: frozenset[FieldVector]
    examined: int

    @property
    def count(self) -> int:
        return len(self.points)


def expected_count(n: int, k: int, q: int) -> int:
    """Closed-form number of rational points; exact big-integer evaluation."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    PrimeField(q)  # validates primality
    acc = Fraction(1)
    for i in range(k):
        acc *= Fraction(q ** (2 * n - 2 * i) - 1, q ** (i + 1) - 1)
    if acc.denominator != 1:
        raise ArithmeticError(f"count formula did not reduce to an integer: {acc}")
    return int(acc)


def subspace_count(m: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^m (Gaussian binomial)."""
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= m, got k={k}, m={m}")
    acc = Fraction(1)
    for i in range(k):
        acc *= Fraction(q ** (m - i) - 1, q ** (k - i) - 1)
    assert acc.denominator == 1
    return int(acc)


def _monomials(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Monomials c_a c_b (a <= b) as index arrays, by descending highest variable b."""
    second, first = np.tril_indices(d)
    return first[::-1], second[::-1]


def _pullback_forms(relations: list[QuadraticRelation], basis: np.ndarray,
                    n: int, k: int, q: int) -> np.ndarray:
    """Row r: relation r at c @ basis as a form in c, one column per monomial.

    With M = sum of sign * B[:, i1] B[:, i2]^T over the terms, u_aa = M_aa and
    u_ab = M_ab + M_ba; nothing is halved, so every characteristic works.
    """
    first, second = _monomials(len(basis))
    forms = np.zeros((len(relations), len(first)), dtype=np.int64)
    for r, rel in enumerate(relations):
        terms = _relation_terms(rel, n, k)  # never empty: |beta| = |alpha| + 2
        signs, i1, i2 = (np.array(col, dtype=np.int64) for col in zip(*terms))
        m = (basis[:, i1] * signs) @ basis[:, i2].T
        upper = np.triu(m) + np.tril(m, -1).T
        forms[r] = upper[first, second]
    return forms % q


def rational_points(n: int, k: int, q: int, mode: str = "signed",
                    budget: int = DEFAULT_BUDGET) -> PointSet:
    """Kernel representatives surviving every quadratic relation.

    The relations, pulled back to forms in the d kernel coefficients, are
    reduced to an echelon basis whose forms are each keyed to the first level
    (coefficient) that sets all their variables.  For each leading position
    (fixed to 1) a frontier of partial coefficient vectors is extended by the q
    values of each next coefficient, dropping rows where a form keyed to that
    level is nonzero.  ``examined`` counts the projective classes decided.
    ``mode="unsigned"`` takes every coefficient as +1; that is the isotropic
    system only when q == 2 or k == 2, where every sign is +1 anyway.

    Raises :class:`BudgetExceededError` when q**d exceeds the budget, and
    ``ValueError`` unless d*d*(q - 1)**3 < 2**63, since the largest int64
    intermediate, a form on the frontier, sums d*d products below q**3.  The
    d >= 1 case, (q - 1)**3 < 2**63, is checked before the field is built, so
    a huge q is refused without testing its primality.
    """
    if mode not in ("signed", "unsigned"):
        raise ValueError(f"mode must be 'signed' or 'unsigned', got {mode!r}")
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    if (q - 1) ** 3 >= 2**63:
        raise ValueError(f"q={q} overflows int64: need d*d*(q-1)**3 < 2**63 "
                         "for a kernel of dimension d >= 1")
    field = PrimeField(q)
    pm = plucker_matrix(n, k, signed=(mode == "signed"))
    basis = kernel_basis(pm.field_matrix(field))
    d = len(basis)
    if d * d * (q - 1) ** 3 >= 2**63:
        raise ValueError(f"q={q} with kernel dimension d={d} overflows int64: "
                         "need d*d*(q-1)**3 < 2**63")
    if q**d > budget:
        raise BudgetExceededError(required=q**d, budget=budget,
                                  what=f"kernel enumeration for (n={n}, k={k}, q={q})")
    basis_arr = np.array(basis, dtype=np.int64)  # d >= 1: C(2n, k) > C(2n, k - 2)
    forms = _pullback_forms(quadratic_relations(n, k), basis_arr, n, k, q)
    first, second = _monomials(d)
    echelon = rref(FieldMatrix(field, forms[forms.any(axis=1)].tolist(), len(first)))
    rows = np.array(echelon.matrix.entries[: echelon.rank], dtype=np.int64)
    upper = np.zeros((echelon.rank, d, d), dtype=np.int64)
    upper[:, first, second] = rows.reshape(echelon.rank, len(first))
    keys = second[list(echelon.pivots)]

    points: set[FieldVector] = set()
    for lead in range(d):
        frontier = np.zeros((1, lead + 1), dtype=np.int64)
        frontier[0, lead] = 1
        for level in range(lead, d):
            if level > lead:
                frontier = np.column_stack([np.repeat(frontier, q, axis=0),
                                            np.tile(np.arange(q), len(frontier))])
            level_forms = upper[keys == level, : level + 1, : level + 1]
            values = np.einsum("ra,fab,rb->rf", frontier, level_forms, frontier) % q
            frontier = frontier[~values.any(axis=1)]
        for row in (frontier @ basis_arr) % q:
            points.add(normalize_projective([int(v) for v in row], field))
    return PointSet(n=n, k=k, q=q, points=frozenset(points),
                    examined=projective_count(d, q))


def _det_mod(rows: list[list[int]], field: PrimeField) -> int:
    """Determinant over GF(p) by elimination with row swaps."""
    p = field.p
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
        inv = field.inv(a[c][c])
        for r in range(c + 1, size):
            if a[r][c] % p:
                factor = (a[r][c] * inv) % p
                a[r] = [(x - factor * y) % p for x, y in zip(a[r], a[c])]
    return det % p


def oracle_points(n: int, k: int, q: int, budget: int = DEFAULT_BUDGET) -> PointSet:
    """Brute-force route: wedge coordinates of every isotropic k-subspace.

    Subspaces of GF(q)^(2n) are enumerated by reduced echelon basis (one basis
    per subspace), kept when the symplectic pairing vanishes on every basis
    pair, and mapped through all k x k minors in lexicographic column order.
    """
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    field = PrimeField(q)
    m = 2 * n
    total = subspace_count(m, k, q)
    if total > budget:
        raise BudgetExceededError(
            required=total,
            budget=budget,
            what=f"subspace enumeration for (n={n}, k={k}, q={q})",
        )
    form = SymplecticForm(n)
    col_combos = [tuple(c - 1 for c in t) for t in index_tuples(k, m)]
    points: set[FieldVector] = set()
    examined = 0
    for pivots in combinations(range(m), k):
        pivot_set = set(pivots)
        free_cells = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, m)
            if j not in pivot_set
        ]
        for values in product(range(q), repeat=len(free_cells)):
            rows = [[0] * m for _ in range(k)]
            for i, pc in enumerate(pivots):
                rows[i][pc] = 1
            for (i, j), v in zip(free_cells, values):
                rows[i][j] = v
            examined += 1
            if any(
                form.pair_vectors(rows[i], rows[j]) % q
                for i in range(k)
                for j in range(i + 1, k)
            ):
                continue
            vec = [
                _det_mod([[rows[i][c] for c in cols] for i in range(k)], field)
                for cols in col_combos
            ]
            points.add(normalize_projective(vec, field))
    return PointSet(n=n, k=k, q=q, points=frozenset(points), examined=examined)
