"""Rational points of the isotropic Grassmannian over prime fields.

Two independent routes produce the same point set:

* ``rational_points``: solve the linear system, reduce the kernel basis to
  echelon form in coordinate order, pull every quadratic exchange relation
  back on the sparse echelon rows to a sparse form in its coefficients,
  reduce the forms to echelon form, and search them level by level: each
  reduced form is tested at the level of its highest variable, from a table
  of the monomials that level's forms use, evaluated once per partial
  assignment as g + v*h + u*v**2 in the next coefficient v, and only the
  survivors kept,
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
they are normalized and distinct and holds each cell as one sorted array of
small unsigned integers, and both count the rows their search builds.

``expected_count`` evaluates the closed-form cardinality, which both routes
must reproduce.  It also sizes the point set up front: both routes refuse an
instance whose points would hold more than ``MAX_HELD_COORDINATES``
coordinates.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, product

import numpy as np

from .combinat import IndexTuple, check_domain, index_tuples
from .gf import FieldMatrix, FieldVector, PrimeField, SparseRow, kernel_basis, rref
from .plucker import plucker_matrix

DEFAULT_BUDGET = 1 << 25
# Both routes hold each point as C(2n, k) coordinates in a per-cell array of
# np.min_scalar_type(q - 1), one byte each for every admitted q, so the limit
# bounds the held points to 32 MB.  The search's own scratch memory is not
# bounded by it: oracle_points(2, 2, 173) is admitted with 31.2M coordinates
# and peaks at 144 MB VmHWM.  (5, 5, 2) holds 19.1M coordinates, (5, 2, 3)
# would hold 1.09G.
MAX_HELD_COORDINATES = 1 << 25


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
    check_domain(n, k)
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


@dataclass(frozen=True, eq=False)
class PointSet:
    """Normalized projective points found, plus the work done to find them.

    ``cells`` holds the points as ``(column, rows)`` pairs, one for each
    coordinate at which some point has its first nonzero, in descending
    column order: the order of the points file.  ``rows`` is a read-only
    C-contiguous array of dtype ``np.min_scalar_type(q - 1)``, one point a
    row, its rows strictly increasing in lexicographic order.  ``points``
    builds the set of tuples from the cells on each read.

    ``examined`` counts the rows the search built: coefficient rows for
    ``rational_points``, echelon rows (search nodes) for ``oracle_points``.
    Two point sets are equal when n, k, q, ``examined`` and every cell are;
    ``same_points`` compares the cells alone.
    """

    n: int
    k: int
    q: int
    cells: tuple[tuple[int, np.ndarray], ...]
    examined: int

    @property
    def count(self) -> int:
        return sum(len(rows) for _, rows in self.cells)

    @property
    def points(self) -> frozenset[FieldVector]:
        return frozenset(chain.from_iterable(map(tuple, rows.tolist()) for _, rows in self.cells))

    def same_points(self, other: PointSet) -> bool:
        """Whether both hold the same points: the same columns, with equal arrays."""
        return len(self.cells) == len(other.cells) and all(
            column == other_column and np.array_equal(rows, other_rows)
            for (column, rows), (other_column, other_rows) in zip(self.cells, other.cells))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return ((self.n, self.k, self.q, self.examined)
                == (other.n, other.k, other.q, other.examined) and self.same_points(other))

    def text(self) -> str:
        """The points file: one point a line, its residues separated by spaces.

        Each residue is written once, to a table of ``str(v) + " "`` padded
        with NULs to one width; each cell indexes it, the last separator of
        each row becomes a newline, and the NULs are dropped.
        """
        width = len(str(self.q - 1)) + 1
        table = np.frombuffer(b"".join(f"{v} ".encode().ljust(width, b"\0")
                                       for v in range(self.q)), dtype=np.uint8)
        table = table.reshape(self.q, width)
        parts = []
        for _, rows in self.cells:
            chars = table[rows]
            last = chars[:, -1]
            last[last == ord(" ")] = ord("\n")
            parts.append(chars.tobytes().replace(b"\0", b""))
        return b"".join(parts).decode("ascii")


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


def _pullback_forms(relations: list[tuple[IndexTuple, IndexTuple]],
                    echelon: tuple[SparseRow, ...], n: int, k: int,
                    q: int) -> tuple[SparseRow, ...]:
    """Row r: relation r at c @ B as a sparse form in c, one column per monomial.

    B is the sparse echelon basis, its rows indexed by the coordinates they
    touch.  A term sign * x_i1 * x_i2 adds sign * B[a, i1] * B[b, i2] to the
    monomial c_a c_b, columns as in ``_monomials`` and read in either order:
    u_aa = M_aa and u_ab = M_ab + M_ba for M = sum of sign * B[:, i1] B[:, i2]^T,
    nothing halved, so every characteristic works.  The sums are exact ints,
    reduced mod q once per form, and the zero entries are dropped.
    """
    index = {label: i for i, label in enumerate(index_tuples(k, 2 * n))}
    touching: list[list[tuple[int, int]]] = [[] for _ in index]
    for a, row in enumerate(echelon):
        for i, v in row:
            touching[i].append((a, v))
    first, second = _monomials(len(echelon))
    column = np.empty((len(echelon),) * 2, dtype=np.int64)
    column[first, second] = column[second, first] = np.arange(len(first))
    column = column.tolist()
    forms = []
    for rel in relations:
        sums: dict[int, int] = {}
        for sign, i1, i2 in _relation_terms(rel, index):
            for a, x in touching[i1]:
                for b, y in touching[i2]:
                    m = column[a][b]
                    sums[m] = sums.get(m, 0) + sign * x * y
        residues = ((m, s % q) for m, s in sorted(sums.items()))
        forms.append(tuple((m, r) for m, r in residues if r))
    return tuple(forms)


def _refuse_held_points(n: int, k: int, q: int) -> None:
    """Refuse an instance whose point set alone would pass MAX_HELD_COORDINATES.

    Both routes hold every point as C(2n, k) coordinates, and every instance
    has a point, so C(2n, k) alone is a lower bound on the
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


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row as one bytes key, the keys ordered as the rows are lexicographically.

    Big-endian unsigned values compare as their bytes do, one by one; numpy
    ignores trailing NULs in a key, but NUL is the smallest byte, so the
    order holds.
    """
    big_endian = np.ascontiguousarray(rows, dtype=rows.dtype.newbyteorder(">"))
    return big_endian.view(f"S{big_endian.shape[1] * big_endian.itemsize}").ravel()


def _sorted_cell(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """rows in lexicographic order, sorted only if neighbours are not, and how many are distinct."""
    keys = _row_keys(rows)
    if (keys[1:] < keys[:-1]).any():
        rows = rows[np.lexsort(rows.T[::-1])]
        keys = _row_keys(rows)
    return rows, len(rows) - int(np.count_nonzero(keys[1:] == keys[:-1]))


def _collect(cells: Iterator[tuple[int, np.ndarray]], what: str,
             q: int) -> tuple[tuple[int, np.ndarray], ...]:
    """The cells of a ``PointSet``, from one batch per cell by ascending column.

    A cell is a lead of the kernel route, or a pivot set of the oracle.  Each
    point must be 0 before its cell's column and 1 at it, and the points must
    be distinct; either check failing raises ``ArithmeticError``.  Each batch
    is cast to ``np.min_scalar_type(q - 1)`` once checked, and sorted only if
    its neighbours are out of lexicographic order.  The cells are disjoint
    by column, so equal neighbours are the only repeated points; a column
    that does not follow the one before also raises.
    """
    held: list[tuple[int, np.ndarray]] = []
    found = distinct = 0
    for column, rows in cells:
        if rows[:, :column].any() or (rows[:, column] != 1).any():
            raise ArithmeticError(f"{what} gave a point whose first nonzero is not 1 "
                                  f"at coordinate {column}")
        if held and column <= held[-1][0]:
            raise ArithmeticError(f"{what} gave a cell at coordinate {column} "
                                  f"after one at {held[-1][0]}")
        rows, unique = _sorted_cell(np.ascontiguousarray(rows, dtype=np.min_scalar_type(q - 1)))
        found += len(rows)
        distinct += unique
        rows.flags.writeable = False
        held.append((column, rows))
    if distinct != found:
        raise ArithmeticError(f"{found} {what} gave {distinct} points")
    return tuple(reversed(held))


def _entries(rows: Sequence[SparseRow]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row, column and residue of every entry of sparse rows, as int64 arrays."""
    cols, values = np.fromiter(chain.from_iterable(chain.from_iterable(rows)),
                               dtype=np.int64).reshape(-1, 2).T
    return np.repeat(np.arange(len(rows)), [len(row) for row in rows]), cols, values


def _level_tables(reduced: tuple[SparseRow, ...], form_pivots: tuple[int, ...],
                  d: int) -> list[tuple[np.ndarray, ...]]:
    """Per level b, the reduced forms tested there as (first, second, g, h, u).

    A reduced form's pivot monomial holds its highest variable c_b, and no
    other of its monomials goes past b, so it is tested at level b.  Only the
    monomials the level's forms use are held, one column per form: g has one
    row per monomial c_i c_j with i <= j < b, whose variables are the index
    arrays first and second; h has one row per a < b, for c_a c_b; and u holds
    the coefficient of c_b**2.
    """
    first, second = _monomials(d)
    by_level: list[list[SparseRow]] = [[] for _ in range(d)]
    for pivot, row in zip(form_pivots, reduced):
        by_level[second[pivot]].append(row)
    tables = []
    for level, rows in enumerate(by_level):
        form, cols, values = _entries(rows)
        below = second[cols] < level
        # not np.unique, whose first call adds about 0.5 MB resident under numpy 2.4
        monomials = np.array(sorted(set(cols[below].tolist())), dtype=np.int64)
        g = np.zeros((len(monomials), len(rows)), dtype=np.int64)
        g[np.searchsorted(monomials, cols[below]), form[below]] = values[below]
        # the others are c_a c_level, a <= level: the last row of h is u
        h = np.zeros((level + 1, len(rows)), dtype=np.int64)
        h[first[cols[~below]], form[~below]] = values[~below]
        tables.append((first[monomials], second[monomials], g, h[:-1], h[-1]))
    return tables


def rational_points(n: int, k: int, q: int, budget: int = DEFAULT_BUDGET) -> PointSet:
    """Kernel representatives surviving every quadratic relation.

    The d kernel vectors are reduced to echelon form by coordinate order, and
    the relations, pulled back on those rows to forms in their coefficients,
    to an echelon basis of forms.  Both stay sparse ``(column, residue)``
    rows; each reduced form is tested at the level of its highest variable,
    from one table per level of the monomials its forms use
    (``_level_tables``).  For each lead, fixed to 1 with the coefficients
    before it 0, a frontier holds the coefficients up to the level, zeros
    before the lead.  On a row extended by v, a form tested at the level is
    g + v*h + u*v**2: g the form on the row, h its part linear in v, u the
    coefficient of v**2.  Each form is evaluated once per row, and only the
    (row, v) pairs on which every form vanishes are kept; the survivors of
    the last level, times the echelon basis, are the lead's points.
    ``examined`` counts the rows built: before each level, the frontier rows
    times the values of the level's coefficient.

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
    frontier, sums at most d*(d + 1)/2 products below q**3 (h is reduced mod
    q before it meets v); then :class:`BudgetExceededError` when q**d exceeds
    the budget.
    """
    check_domain(n, k)
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
    ncols = math.comb(2 * n, k)
    pivots, echelon = rref(FieldMatrix(field, kernel, ncols))
    forms = _pullback_forms(quadratic_relations(n, k), echelon, n, k, q)
    form_pivots, reduced = rref(FieldMatrix(field, forms, d * (d + 1) // 2))
    tables = _level_tables(reduced, form_pivots, d)
    row, col, residue = _entries(echelon)
    basis = np.zeros((d, ncols), dtype=np.int64)
    basis[row, col] = residue

    examined = 0

    def cells() -> Iterator[tuple[int, np.ndarray]]:
        nonlocal examined
        for lead in range(d):
            frontier = np.zeros((1, lead), dtype=np.int64)
            for level in range(lead, d):
                values = np.arange(q) if level > lead else np.ones(1, dtype=np.int64)
                examined += len(frontier) * len(values)
                first, second, g_coeffs, h_coeffs, u = tables[level]
                if len(u):
                    g = (frontier[:, first] * frontier[:, second]) @ g_coeffs % q
                    h = frontier @ h_coeffs % q
                    vanish = ~((g[:, None, :] + values[:, None] * h[:, None, :]
                                + values[:, None] ** 2 * u) % q).any(axis=2)
                    parent, child = np.nonzero(vanish)
                else:  # no form is tested here: every row takes every value
                    parent, child = np.divmod(np.arange(len(frontier) * len(values)), len(values))
                frontier = np.column_stack([frontier[parent], values[child]])
                if not len(frontier):
                    break
            else:
                yield pivots[lead], frontier @ basis % q

    held = _collect(cells(), "kernel combinations", q)
    return PointSet(n=n, k=k, q=q, cells=held, examined=examined)


def _wedge_minors(bases: np.ndarray, q: int) -> np.ndarray:
    """All k x k minors mod q of each k x m basis, columns in lexicographic order.

    Laplace expansion along one row at a time: the minor of rows 0..i on
    columns s_0 < ... < s_i is the sum over t of (-1)**(i + t) times the entry
    of row i at s_t times the minor of rows 0..i-1 on the other columns.  Each
    level reads the C(m, i) minors of the level before through one index
    table, adds its i + 1 terms one t at a time, so no (bases x C(m, i + 1) x
    (i + 1)) product is built, and is reduced mod q once, so no intermediate
    passes (i + 1) * (q - 1)**2, which the caller keeps below 2**63.
    """
    _, k, m = bases.shape
    minors = np.ones((len(bases), 1), dtype=np.int64)
    for i in range(k):
        cols, rest, signs = _laplace_table(i, m)
        level = np.zeros((len(bases), len(cols)), dtype=np.int64)
        for t, sign in enumerate(signs.tolist()):
            term = sign * minors[:, rest[:, t]]
            term *= bases[:, i, cols[:, t]]
            level += term
        minors = level % q
    return minors


@lru_cache(maxsize=64)
def _laplace_table(i: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row i of ``_wedge_minors``: the (i + 1)-subsets s of the m columns, the
    index of each s less s_t among the i-subsets, and (-1)**(i + t), for t <= i.
    """
    below = {cols: r for r, cols in enumerate(combinations(range(m), i))}
    cols = list(combinations(range(m), i + 1))
    rest = [[below[s[:t] + s[t + 1:]] for t in range(i + 1)] for s in cols]
    return np.array(cols), np.array(rest), (-1) ** (i + np.arange(i + 1))


def _minor_cell(bases: np.ndarray, ncols: int, q: int) -> np.ndarray:
    """The ``ncols`` minors of every basis, computed in int64 slices of
    ``_CHUNK // ncols`` bases and written into one array of the bases' dtype.
    """
    cell = np.empty((len(bases), ncols), dtype=bases.dtype)
    step = max(1, _CHUNK // ncols)
    for start in range(0, len(bases), step):
        cell[start: start + step] = _wedge_minors(bases[start: start + step].astype(np.int64), q)
    return cell


# minors per pass of _wedge_minors, the width of its largest int64 level:
# 128 bases a pass kept the traced peak of oracle_points(4, 3, 2) at 1.42
# times the points held, 4096 minors (73 bases) at 1.25, and passes of 128
# bases took 2.4 s at (2, 2, 173), of 4096 minors (682 bases) 1.5 s
_CHUNK = 4096


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

    The frontier holds residues in ``np.min_scalar_type(q - 1)``; the pairing
    is summed in int64.  The complete bases of a pivot set go through
    ``_wedge_minors`` in int64 slices of ``_CHUNK`` minors, giving all C(2n, k)
    minors in lexicographic column order, written into one array per pivot
    set.  An echelon basis has pivot minor 1 and zero minors before it, so its
    minor vector is already normalized at the pivot set's own coordinate.
    Each pivot set is a cell of the collector, which checks that, and that
    the distinct subspaces gave distinct points: either failing raises
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
    check_domain(n, k)
    if budget < 1:
        raise ValueError(f"budget must be a positive integer, got {budget}")
    if 2 * n * (q - 1) ** 2 >= 2**63:
        raise ValueError(f"q={q} overflows int64: the pairing needs "
                         f"2n*(q-1)**2 < 2**63, here n={n}")
    _refuse_held_points(n, k, q)  # validates primality
    m = 2 * n
    ncols = math.comb(m, k)
    sign = np.repeat([-1, 1], n)
    dtype = np.min_scalar_type(q - 1)
    examined = 0

    def isotropic_bases(pivots: tuple[int, ...]) -> np.ndarray:
        """The reduced echelon bases, pivoting at ``pivots``, of the isotropic subspaces."""
        nonlocal examined
        bases = np.zeros((1, 0, m), dtype=dtype)
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
            values = np.array(list(product(range(q), repeat=len(free))), dtype=dtype)
            grown = np.zeros((len(bases), len(values), i + 1, m), dtype=dtype)
            grown[:, :, :i] = bases[:, None]
            grown[:, :, i, pivot] = 1
            grown[:, :, i, free] = values
            for j, c in solved:
                w = bases[:, j, ::-1] * sign
                pairing = np.einsum("pc,pvc->pv", w, grown[:, :, i], dtype=np.int64)
                # in place: a frontier-sized int64 temporary took 45 MB at (2, 2, 173)
                pairing *= -w[:, None, c]
                pairing %= q
                grown[:, :, i, c] = pairing
            bases = grown.reshape(-1, i + 1, m)
            examined += len(bases)
        return bases

    # nothing here holds a pivot set's bases once its minors are computed, nor
    # its cell once the collector has it: that search scratch and the unsorted
    # cell would otherwise live beside the next pivot set's search or the
    # collector's sorted copy
    cells = ((column, _minor_cell(isotropic_bases(pivots), ncols, q))
             for column, pivots in enumerate(combinations(range(m), k))
             if not any(m - 1 - p in pivots for p in pivots))
    held = _collect(cells, "isotropic subspaces", q)
    return PointSet(n=n, k=k, q=q, cells=held, examined=examined)
