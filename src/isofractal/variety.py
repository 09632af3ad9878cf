"""Rational points of the isotropic Grassmannian over prime fields.

Two independent routes produce the same point set:

* ``rational_points``: solve the linear system, pull every quadratic exchange
  relation back to a quadratic form in the kernel coefficients, and search the
  coefficients level by level, dropping a partial assignment as soon as a
  reduced form whose variables are all set is nonzero,
* ``oracle_points``: build the reduced echelon basis of every isotropic
  k-dimensional subspace row by row, extending a partial basis only by rows
  that pair to zero with the rows already chosen, and push the bases through
  the minor (wedge coordinate) map in streamed numpy batches.  It uses neither
  the linear system nor the relations, and its budget bounds the search nodes
  (accepted echelon rows) as they are visited.

``expected_count`` evaluates the closed-form cardinality, which both routes
must reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, permutations, product

import numpy as np

from .combinat import IndexTuple, index_tuples, rank
from .gf import (FieldMatrix, FieldVector, PrimeField, SparseRow, kernel_basis,
                 normalize_projective, projective_count, rref)
from .plucker import SymplecticForm, plucker_matrix

DEFAULT_BUDGET = 1 << 25


class BudgetExceededError(ValueError):
    """Enumeration would exceed the configured budget; carries a lower bound on the need."""

    def __init__(self, required: int, budget: int, what: str):
        # q**d can run to thousands of digits, past the int-to-str limit; past
        # 64 bits the message names the power of two below it, still a bound
        shown = required if required.bit_length() <= 64 else f"2**{required.bit_length() - 1}"
        super().__init__(
            f"{what} needs a budget of at least {shown}, configured budget is {budget}"
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
    """Normalized projective points found, plus the work done to find them.

    ``examined`` counts projective kernel classes for ``rational_points`` and
    search nodes (accepted echelon rows) for ``oracle_points``.
    """

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


def _refuse_kernel_search(d: int, q: int, budget: int, what: str) -> None:
    """Refuse a search over a kernel of dimension d or more: int64 limit first, then budget.

    q**d > budget whenever d exceeds the budget's bit length, so the
    comparison never forms q**d for a larger d.
    """
    if d * d * (q - 1) ** 3 >= 2**63:
        raise ValueError(f"q={q} with kernel dimension d >= {d} overflows int64: "
                         "need d*d*(q-1)**3 < 2**63")
    if d > budget.bit_length() or q**d > budget:
        raise BudgetExceededError(required=q**d, budget=budget, what=what)


def _sparse_rows(a: np.ndarray) -> tuple[SparseRow, ...]:
    """The rows of a 2-d array as ``(column, value)`` pairs, gathered in one numpy pass."""
    rows, cols = np.nonzero(a)
    pairs = list(zip(cols.tolist(), a[rows, cols].tolist()))
    ends = np.cumsum(np.count_nonzero(a, axis=1)).tolist()
    return tuple(tuple(pairs[start:end]) for start, end in zip([0] + ends, ends))


def rational_points(n: int, k: int, q: int, budget: int = DEFAULT_BUDGET) -> PointSet:
    """Kernel representatives surviving every quadratic relation.

    The relations, pulled back to forms in the d kernel coefficients, are
    reduced to an echelon basis whose forms are each keyed to the first level
    (coefficient) that sets all their variables.  For each leading position
    (fixed to 1) a frontier of partial coefficient vectors is extended by the q
    values of each next coefficient, dropping rows where a form keyed to that
    level is nonzero.  ``examined`` counts the projective classes decided.

    Raises ``ValueError`` for a budget below 1, and unless d*d*(q - 1)**3 <
    2**63, since the largest int64 intermediate, a form on the frontier, sums
    d*d products below q**3; then :class:`BudgetExceededError` when q**d
    exceeds the budget.  The d >= 1 case, (q - 1)**3 < 2**63, is checked before
    the field is built, so a huge q is refused without testing its primality.
    Both refusals are first made for d >= C(2n, k) - C(2n, k - 2), the column
    count less the row count of the system, before the system is built, and
    then for the exact d.
    """
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    if budget < 1:
        raise ValueError(f"budget must be a positive integer, got {budget}")
    if (q - 1) ** 3 >= 2**63:
        raise ValueError(f"q={q} overflows int64: need d*d*(q-1)**3 < 2**63 "
                         "for a kernel of dimension d >= 1")
    field = PrimeField(q)
    what = f"kernel enumeration for (n={n}, k={k}, q={q})"
    _refuse_kernel_search(math.comb(2 * n, k) - math.comb(2 * n, k - 2), q, budget, what)
    pm = plucker_matrix(n, k, signed=True)
    basis = kernel_basis(pm.field_matrix(field))
    d = len(basis)
    _refuse_kernel_search(d, q, budget, what)
    basis_arr = np.array(basis, dtype=np.int64)  # d >= 1: C(2n, k) > C(2n, k - 2)
    forms = _pullback_forms(quadratic_relations(n, k), basis_arr, n, k, q)
    first, second = _monomials(d)
    echelon = rref(FieldMatrix(field, _sparse_rows(forms), len(first)))
    reduced = echelon.matrix.nonzeros[: echelon.rank]
    cols, residues = np.fromiter(chain.from_iterable(chain.from_iterable(reduced)),
                                 dtype=np.int64).reshape(-1, 2).T
    owner = np.repeat(np.arange(echelon.rank), [len(row) for row in reduced])
    upper = np.zeros((echelon.rank, d, d), dtype=np.int64)
    upper[owner, first[cols], second[cols]] = residues
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


def _wedge_minors(bases: np.ndarray, q: int) -> np.ndarray:
    """All k x k minors mod q of each k x m basis, columns in lexicographic order.

    Leibniz expansion over the k! permutations, one gather per permutation and
    row.  Each product and each running sum is reduced mod q at once, so no
    intermediate reaches 2**63 while (q - 1)**2 < 2**63.
    """
    _, k, m = bases.shape
    cols = np.array(list(combinations(range(m), k)), dtype=np.intp)
    total = np.zeros((len(bases), len(cols)), dtype=np.int64)
    for perm in permutations(range(k)):
        term = bases[:, 0, cols[:, perm[0]]]
        for i in range(1, k):
            term *= bases[:, i, cols[:, perm[i]]]
            term %= q
        if sum(a > b for a, b in combinations(perm, 2)) % 2:
            total -= term
        else:
            total += term
        total %= q
    return total


_CHUNK = 256  # leaves per minor pass; holding every basis at once costs memory


def oracle_points(n: int, k: int, q: int, budget: int = DEFAULT_BUDGET) -> PointSet:
    """Brute-force route: wedge coordinates of every isotropic k-subspace.

    Each subspace of GF(q)^(2n) has one reduced echelon basis, with pivots
    p_0 < ... < p_(k-1).  The search builds those bases row by row, pivot set
    by pivot set, and extends a partial basis only by rows that pair to zero
    with every row already chosen, so no non-isotropic subspace is built.  The
    pairing with the earlier row j is the linear form dual(r_j).  As r_j is 1
    at p_j and zero before p_j and at the other pivots, dual(r_j) is +-1 at
    the partner cell c_j = 2n-1-p_j, zero past it, and zero at the partner
    cell of every other pivot.  Hence:

    * a pivot set holding a partner pair {p_j, c_j} pairs row j and the row
      pivoting at c_j to +-1 whatever the free cells hold; it is skipped;
    * otherwise row i must satisfy, for each earlier j with c_j > p_i, one
      equation, and only that equation touches cell c_j, a free cell of row i:
      the small affine system is already solved for those cells, and its
      solutions are the q**(free cells - equations) choices of the rest.  The
      earlier rows with c_j < p_i vanish on row i's cells.

    Complete bases are streamed in chunks of ``_CHUNK`` through one numpy pass
    computing all C(2n, k) minors, in lexicographic column order.  An echelon
    basis has pivot minor 1 and zero minors before it, so its minor vector is
    already normalized; this is checked, as is that the distinct subspaces gave
    distinct points.  Either check failing raises ``ArithmeticError``.

    ``examined`` counts the search nodes, that is the accepted echelon rows at
    every depth.  They are counted as they are visited, and visiting more than
    ``budget`` raises :class:`BudgetExceededError` whose ``required`` is a
    lower bound (nodes visited + 1) and whose message names the depth reached;
    a budget below 1 raises ``ValueError``.  The minors are exact in int64
    only while (q - 1)**2 < 2**63; a larger q raises ``ValueError`` before the
    field is built.
    """
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    if budget < 1:
        raise ValueError(f"budget must be a positive integer, got {budget}")
    if (q - 1) ** 2 >= 2**63:
        raise ValueError(f"q={q} overflows int64: the minors need (q-1)**2 < 2**63")
    PrimeField(q)  # validates primality
    m = 2 * n
    form = SymplecticForm(n)
    points: set[FieldVector] = set()
    chunk: list[list[list[int]]] = []
    nodes = leaves = 0

    def flush() -> None:
        minors = _wedge_minors(np.array(chunk, dtype=np.int64), q)
        lead = minors[np.arange(len(minors)), (minors != 0).argmax(axis=1)]
        if (lead != 1).any():
            raise ArithmeticError("an echelon basis has a minor vector whose first "
                                  "nonzero is not 1")
        points.update(map(tuple, minors.tolist()))
        chunk.clear()

    def extend(pivots: tuple[int, ...], rows: list[list[int]],
               duals: list[list[int]]) -> None:
        nonlocal nodes, leaves
        i = len(rows)
        pivot = pivots[i]
        solved = [(duals[j], m - 1 - p) for j, p in enumerate(pivots[:i])
                  if m - 1 - p > pivot]
        fixed = set(pivots) | {c for _, c in solved}
        cells = [c for c in range(pivot + 1, m) if c not in fixed]
        for values in product(range(q), repeat=len(cells)):
            row = [0] * m
            row[pivot] = 1
            for c, v in zip(cells, values):
                row[c] = v
            for w, c in solved:
                row[c] = -w[c] * sum(a * b for a, b in zip(w, row)) % q
            if nodes == budget:
                raise BudgetExceededError(
                    required=nodes + 1, budget=budget,
                    what=(f"isotropic subspace search for (n={n}, k={k}, q={q}), "
                          f"stopped at echelon row {i + 1} of {k},"))
            nodes += 1
            if i + 1 < k:
                extend(pivots, rows + [row], duals + [form.dual(row)])
                continue
            chunk.append(rows + [row])
            leaves += 1
            if len(chunk) == _CHUNK:
                flush()

    for pivots in combinations(range(m), k):
        if not any(m - 1 - p in pivots for p in pivots):
            extend(pivots, [], [])
    if chunk:
        flush()
    if len(points) != leaves:
        raise ArithmeticError(f"{leaves} isotropic subspaces gave {len(points)} points")
    return PointSet(n=n, k=k, q=q, points=frozenset(points), examined=nodes)
