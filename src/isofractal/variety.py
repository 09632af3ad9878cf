"""Rational points of the isotropic Grassmannian over prime fields.

Two independent routes produce the same point set:

* ``rational_points``: solve the linear system, reduce the kernel basis to
  echelon form in coordinate order, pull every quadratic exchange relation
  back to a form in its coefficients, and search them level by level, each
  form evaluated once per partial assignment as g + v*h + u*v**2 in the next
  coefficient v and only the survivors kept,
* ``oracle_points``: for each pivot set, build the reduced echelon bases of
  the isotropic k-dimensional subspaces level by level, the same shape as the
  kernel search: a numpy frontier of partial bases grows by one echelon row
  per level, taking every value of the row's free cells and solving the
  cells that make it pair to zero with the rows above.  The pairing of x and
  y is x_i y_(2n-1-i) - x_(2n-1-i) y_i summed over i < n (0-based): +1 on the
  basis pairs (i, 2n+1-i), i <= n, in 1-based terms.  As a linear form in y
  it is x reversed with its first n cells negated, and the oracle forms it as
  that signed reversal.  The complete bases go through the minor (wedge
  coordinate) map, a Laplace expansion one row at a time, in slices.  It uses
  neither the linear system nor the relations, and its budget bounds the
  search nodes (accepted echelon rows), checked once per level before the
  level is built.

Both hand their points a cell at a time to one collector, which checks that
they are normalized and distinct, and both count the rows their search builds.

``expected_count`` evaluates the closed-form cardinality, which both routes
must reproduce.  It also sizes the point set up front: both routes refuse an
instance whose points would hold more than ``MAX_HELD_COORDINATES``
coordinates.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product

import numpy as np

from .combinat import IndexTuple, index_tuples
from .gf import FieldMatrix, FieldVector, PrimeField, SparseRow, kernel_basis, rref
from .plucker import plucker_matrix

DEFAULT_BUDGET = 1 << 25
# Both routes return each point as a tuple of C(2n, k) coordinates in a set.
# Until points are held as arrays, the limit bounds coordinates, not bytes:
# the cost per coordinate grows as points get shorter.  oracle_points(2, 2,
# 173) is admitted with 31.2M coordinates in points of 6 and peaks at
# 1,233 MB VmHWM, 41 bytes per coordinate.  (5, 5, 2) holds 19.1M
# coordinates, (5, 2, 3) would hold 1.09G.
MAX_HELD_COORDINATES = 1 << 25
_RELATION_BATCH = 64  # relations per pullback matmul


def _shown(value: int) -> str:
    """``value`` for a message, or past 64 bits the power of two below it.

    q**d or C(2n, k) can run to thousands of digits, past the int-to-str limit.
    """
    return str(value) if value.bit_length() <= 64 else f"2**{value.bit_length() - 1}"


class BudgetExceededError(ValueError):
    """Work or held points would pass a limit; carries a lower bound on the need.

    The limit is the configured budget, or ``MAX_HELD_COORDINATES`` for the
    points both routes return.
    """

    def __init__(self, required: int, budget: int, what: str,
                 limit: str = "configured budget"):
        super().__init__(f"{what} needs a budget of at least {_shown(required)}, "
                         f"{limit} is {budget}")
        self.required = required
        self.budget = budget


def quadratic_relations(n: int, k: int) -> list[tuple[IndexTuple, IndexTuple]]:
    """All exchange relations in lexicographic order.

    Each is a pair (alpha, beta) of a (k-1)-tuple and a (k+1)-tuple.
    """
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    return [(alpha, beta)
            for alpha in index_tuples(k - 1, 2 * n)
            for beta in index_tuples(k + 1, 2 * n)]


def _relation_terms(
    rel: tuple[IndexTuple, IndexTuple], index: dict[IndexTuple, int]
) -> list[tuple[int, int, int]]:
    """Compile a relation (alpha, beta) to (sign, first coordinate index, second coordinate index).

    ``index`` maps each k-tuple label to its coordinate.  Terms whose extended
    tuple repeats an entry vanish and are dropped.  The sign combines the
    alternating position sign with the parity of sorting the appended entry
    into place.
    """
    alpha, beta = rel
    terms = []
    for pos, b in enumerate(beta, start=1):
        if b in alpha:
            continue
        inversions = sum(1 for a in alpha if a > b)
        first = tuple(sorted(alpha + (b,)))
        second = beta[: pos - 1] + beta[pos:]
        terms.append(((-1) ** (pos + inversions), index[first], index[second]))
    return terms


@dataclass(frozen=True)
class PointSet:
    """Normalized projective points found, plus the work done to find them.

    ``examined`` counts the rows the search built: coefficient rows for
    ``rational_points``, echelon rows (search nodes) for ``oracle_points``.
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


def _monomials(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Monomials c_a c_b (a <= b) as index arrays, by descending highest variable b."""
    second, first = np.tril_indices(d)
    return first[::-1], second[::-1]


def _pullback_forms(relations: list[tuple[IndexTuple, IndexTuple]], basis: np.ndarray,
                    n: int, k: int, q: int) -> np.ndarray:
    """Row r: relation r at c @ basis as a form in c, one column per monomial.

    With M = sum of sign * B[:, i1] B[:, i2]^T over the terms, u_aa = M_aa and
    u_ab = M_ab + M_ba; nothing is halved, so every characteristic works.  A
    relation has at most k + 1 terms (never none: |beta| = |alpha| + 2), so
    every relation is padded to k + 1 with zero-signed terms, and the M of
    ``_RELATION_BATCH`` relations at a time, which bounds the d x d
    temporaries, come from one batched matmul.
    """
    index = {label: i for i, label in enumerate(index_tuples(k, 2 * n))}
    padded = [terms + [(0, 0, 0)] * (k + 1 - len(terms))
              for terms in (_relation_terms(rel, index) for rel in relations)]
    terms = np.array(padded, dtype=np.int64)
    columns = basis.T
    first, second = _monomials(len(basis))
    forms = np.empty((len(relations), len(first)), dtype=np.int64)
    for start in range(0, len(relations), _RELATION_BATCH):
        signs, i1, i2 = terms[start: start + _RELATION_BATCH].transpose(2, 0, 1)
        m = (columns[i1] * signs[..., None]).transpose(0, 2, 1) @ columns[i2]
        forms[start: start + _RELATION_BATCH] = (m[:, first, second]
                                                 + m[:, second, first] * (first != second))
    return forms % q


def _refuse_held_points(n: int, k: int, q: int) -> None:
    """Refuse an instance whose point set alone would pass MAX_HELD_COORDINATES.

    Both routes return every point as a tuple of C(2n, k) coordinates, and
    every instance has a point, so C(2n, k) alone is a lower bound on the
    coordinates held: past the limit the instance is refused at once.  Else
    the closed form gives the point count, before any work is done.  q is
    checked to be prime first, so a composite q is a ``ValueError`` either way.
    """
    PrimeField(q)
    columns = math.comb(2 * n, k)
    held = columns if columns > MAX_HELD_COORDINATES else expected_count(n, k, q) * columns
    if held > MAX_HELD_COORDINATES:
        raise BudgetExceededError(
            required=held, budget=MAX_HELD_COORDINATES,
            what=(f"holding the points of (n={n}, k={k}, q={q}), "
                  f"{_shown(columns)} coordinates each,"),
            limit="the held-coordinate limit MAX_HELD_COORDINATES")


def _collect(cells: Iterator[tuple[int, np.ndarray]], what: str) -> frozenset[FieldVector]:
    """The points of every cell as tuples, once each is 0 before its cell's column and 1 at it.

    A cell is a lead of the kernel route, or a slice of a pivot set of the
    oracle.  The points must also be distinct; either check failing raises
    ``ArithmeticError``.
    """
    points: set[FieldVector] = set()
    found = 0
    for column, rows in cells:
        if rows[:, :column].any() or (rows[:, column] != 1).any():
            raise ArithmeticError(f"{what} gave a point whose first nonzero is not 1 "
                                  f"at coordinate {column}")
        found += len(rows)
        points.update(map(tuple, rows.tolist()))
    if len(points) != found:
        raise ArithmeticError(f"{found} {what} gave {len(points)} points")
    return frozenset(points)


def _sparse_rows(a: np.ndarray) -> tuple[SparseRow, ...]:
    """The rows of a 2-d array of residues as sparse ``(column, residue)`` rows."""
    rows, cols = np.nonzero(a)
    pairs = list(zip(cols.tolist(), a[rows, cols].tolist()))
    ends = np.cumsum(np.count_nonzero(a, axis=1)).tolist()
    return tuple(tuple(pairs[start:end]) for start, end in zip([0] + ends, ends))


def _echelon(rows: tuple[SparseRow, ...], ncols: int,
             field: PrimeField) -> tuple[np.ndarray, tuple[int, ...]]:
    """The nonzero reduced echelon rows of sparse rows, as a dense int64 array, and their pivots."""
    pivots, reduced = rref(FieldMatrix(field, rows, ncols))
    cols, values = np.fromiter(chain.from_iterable(chain.from_iterable(reduced)),
                               dtype=np.int64).reshape(-1, 2).T
    dense = np.zeros((len(pivots), ncols), dtype=np.int64)
    dense[np.repeat(np.arange(len(pivots)), [len(row) for row in reduced]), cols] = values
    return dense, pivots


def rational_points(n: int, k: int, q: int, budget: int = DEFAULT_BUDGET) -> PointSet:
    """Kernel representatives surviving every quadratic relation.

    The d kernel vectors are reduced to echelon form by coordinate order, and
    the relations, pulled back to forms in their coefficients, to an echelon
    basis of forms, each keyed to the first level (coefficient) that sets all
    its variables.  For each lead, fixed to 1 with the coefficients before it
    0, a frontier holds the coefficients from the lead up to the level.  On a
    row extended by v, a form keyed to the level is g + v*h + u*v**2: g the
    form on the row, h its part linear in v, u its diagonal constant.  Each
    form is evaluated once per row, and only the (row, v) pairs on which every
    form vanishes are kept.  ``examined`` counts the rows built: before each
    level, the frontier rows times the values of the level's coefficient.

    A combination led by coefficient i is 1 at pivot i and zero before it, so
    the points come out normalized and distinct; the collector checks both
    facts per lead, and either failing raises ``ArithmeticError``.

    Refusals come in the oracle's order.  First the usage checks:
    ``ValueError`` for a budget below 1, and unless (q - 1)**3 < 2**63, the
    int64 limit below for d = 1, so a huge q is refused without testing its
    primality.  Then, before any work, a point set that would pass
    ``MAX_HELD_COORDINATES`` coordinates is refused with
    :class:`BudgetExceededError` (a composite q is a ``ValueError`` there).
    Last, once the system is built and d is known: ``ValueError`` unless
    d*d*(q - 1)**3 < 2**63, since the largest int64 intermediate, g on the
    frontier, sums at most d*d products below q**3 (h is reduced mod q before
    it meets v); then :class:`BudgetExceededError` when q**d exceeds the
    budget.
    """
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    if budget < 1:
        raise ValueError(f"budget must be a positive integer, got {budget}")
    if (q - 1) ** 3 >= 2**63:
        raise ValueError(f"q={q} overflows int64: need d*d*(q-1)**3 < 2**63 "
                         "for a kernel of dimension d >= 1")
    _refuse_held_points(n, k, q)
    field = PrimeField(q)
    pm = plucker_matrix(n, k, signed=True)
    kernel = kernel_basis(pm.field_matrix(field))
    # d >= 1: C(2n, k) > C(2n, k - 2)
    d = len(kernel)
    if d * d * (q - 1) ** 3 >= 2**63:
        raise ValueError(f"q={q} with kernel dimension d={d} overflows int64: "
                         "need d*d*(q-1)**3 < 2**63")
    if q**d > budget:
        raise BudgetExceededError(required=q**d, budget=budget,
                                  what=f"kernel enumeration for (n={n}, k={k}, q={q})")
    basis, pivots = _echelon(kernel, math.comb(2 * n, k), field)
    forms = _pullback_forms(quadratic_relations(n, k), basis, n, k, q)
    first, second = _monomials(d)
    reduced, form_pivots = _echelon(_sparse_rows(forms), forms.shape[1], field)
    # the pivots ascend and the monomials descend, so the keys descend: reverse
    keys = second[list(form_pivots)][::-1]
    upper = np.zeros((len(keys), d, d), dtype=np.int64)
    upper[:, first, second] = reduced[::-1]
    bounds = np.searchsorted(keys, np.arange(d + 1))

    examined = 0

    def cells() -> Iterator[tuple[int, np.ndarray]]:
        nonlocal examined
        for lead in range(d):
            frontier = np.zeros((1, 0), dtype=np.int64)
            for level in range(lead, d):
                values = np.arange(q) if level > lead else np.ones(1, dtype=np.int64)
                examined += len(frontier) * len(values)
                level_forms = upper[bounds[level]: bounds[level + 1],
                                    lead: level + 1, lead: level + 1]
                g = np.einsum("pa,rab,pb->pr", frontier, level_forms[:, :-1, :-1], frontier) % q
                h = frontier @ level_forms[:, :-1, -1].T % q
                u = level_forms[:, -1, -1]
                vanish = ~((g[:, None, :] + values[:, None] * h[:, None, :]
                            + values[:, None] ** 2 * u) % q).any(axis=2)
                parent, child = np.nonzero(vanish)
                frontier = np.column_stack([frontier[parent], values[child]])
                if not len(frontier):
                    break
            else:
                yield pivots[lead], frontier @ basis[lead:] % q

    points = _collect(cells(), "kernel combinations")
    return PointSet(n=n, k=k, q=q, points=points, examined=examined)


def _wedge_minors(bases: np.ndarray, q: int) -> np.ndarray:
    """All k x k minors mod q of each k x m basis, columns in lexicographic order.

    Laplace expansion along one row at a time: the minor of rows 0..i on
    columns s_0 < ... < s_i is the sum over t of (-1)**(i + t) times the entry
    of row i at s_t times the minor of rows 0..i-1 on the other columns.  Each
    level reads the C(m, i) minors of the level before through one index
    table and is reduced mod q once, so no intermediate passes (i + 1) *
    (q - 1)**2, which the caller keeps below 2**63.
    """
    _, k, m = bases.shape
    minors = np.ones((len(bases), 1), dtype=np.int64)
    for i in range(k):
        below = {cols: r for r, cols in enumerate(combinations(range(m), i))}
        cols = list(combinations(range(m), i + 1))
        rest = [[below[s[:t] + s[t + 1:]] for t in range(i + 1)] for s in cols]
        signs = (-1) ** (i + np.arange(i + 1))
        minors = bases[:, i, np.array(cols)] * minors[:, np.array(rest)] @ signs % q
    return minors


_CHUNK = 256  # bases per minor pass; a whole cell at once tripled the traced peak at (4, 3, 2)


def oracle_points(n: int, k: int, q: int, budget: int = DEFAULT_BUDGET) -> PointSet:
    """Brute-force route: wedge coordinates of every isotropic k-subspace.

    Each subspace of GF(q)^(2n) has one reduced echelon basis, with pivots
    p_0 < ... < p_(k-1).  For each pivot set in lexicographic order, a numpy
    frontier of partial bases is extended one echelon row per level, by rows
    that pair to zero with every row already chosen, so no non-isotropic
    subspace is built.  The pairing with the earlier row j is the linear form
    w = r_j reversed, negated in its first n cells (see the module docstring).
    As r_j is 1 at p_j and zero before p_j and at the other pivots, w is +-1
    at the partner cell c_j = 2n-1-p_j, zero past it, and zero at the partner
    cell of every other pivot.  Hence:

    * a pivot set holding a partner pair {p_j, c_j} pairs row j and the row
      pivoting at c_j to +-1 whatever the free cells hold; it is skipped;
    * otherwise row i must satisfy, for each earlier j with c_j > p_i, one
      equation, and only that equation touches cell c_j, a free cell of row i.
      A level takes every value of row i's other free cells for every partial
      basis and sets each such c_j at once to -w[c_j] * (w . row).  The
      earlier rows with c_j < p_i vanish on row i's cells.

    The complete bases of a pivot set go through ``_wedge_minors`` in slices
    of ``_CHUNK``, giving all C(2n, k) minors in lexicographic column order.
    An echelon basis has pivot minor 1 and zero minors before it, so its minor
    vector is already normalized at the pivot set's own coordinate.  Each
    slice is a cell of the collector, which checks that, and that the
    distinct subspaces gave distinct points: either failing raises
    ``ArithmeticError``.

    ``examined`` counts the search nodes, that is the accepted echelon rows at
    every depth.  Each level's batch is counted before it is built, and a
    batch that would take the count past ``budget`` raises
    :class:`BudgetExceededError`, whose ``required`` is the nodes visited plus
    that batch and whose message names the echelon row; a budget below 1
    raises ``ValueError``.  The pairing sums 2n products below q**2 in int64,
    so ``ValueError`` is raised unless 2n*(q-1)**2 < 2**63, before the field
    is built; then the point set is refused as by ``rational_points`` when it
    would pass ``MAX_HELD_COORDINATES``.
    """
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    if budget < 1:
        raise ValueError(f"budget must be a positive integer, got {budget}")
    if 2 * n * (q - 1) ** 2 >= 2**63:
        raise ValueError(f"q={q} overflows int64: the pairing needs "
                         f"2n*(q-1)**2 < 2**63, here n={n}")
    _refuse_held_points(n, k, q)  # validates primality
    m = 2 * n
    sign = np.repeat([-1, 1], n)
    examined = 0

    def cells() -> Iterator[tuple[int, np.ndarray]]:
        nonlocal examined
        for column, pivots in enumerate(combinations(range(m), k)):
            if any(m - 1 - p in pivots for p in pivots):
                continue
            bases = np.zeros((1, 0, m), dtype=np.int64)
            for i, pivot in enumerate(pivots):
                solved = [(j, m - 1 - p) for j, p in enumerate(pivots[:i]) if m - 1 - p > pivot]
                fixed = set(pivots) | {c for _, c in solved}
                free = [c for c in range(pivot + 1, m) if c not in fixed]
                batch = len(bases) * q ** len(free)
                if examined + batch > budget:
                    raise BudgetExceededError(
                        required=examined + batch, budget=budget,
                        what=(f"isotropic subspace search for (n={n}, k={k}, q={q}), "
                              f"stopped at echelon row {i + 1} of {k},"))
                values = np.array(list(product(range(q), repeat=len(free))), dtype=np.int64)
                grown = np.zeros((len(bases), len(values), i + 1, m), dtype=np.int64)
                grown[:, :, :i] = bases[:, None]
                grown[:, :, i, pivot] = 1
                grown[:, :, i, free] = values
                for j, c in solved:
                    w = bases[:, j, ::-1] * sign
                    pairing = np.einsum("pc,pvc->pv", w, grown[:, :, i])
                    grown[:, :, i, c] = -w[:, None, c] * pairing % q
                bases = grown.reshape(-1, i + 1, m)
                examined += len(bases)
            for start in range(0, len(bases), _CHUNK):
                yield column, _wedge_minors(bases[start: start + _CHUNK], q)

    points = _collect(cells(), "isotropic subspaces")
    return PointSet(n=n, k=k, q=q, points=points, examined=examined)
