"""The sparse linear system cutting the isotropic subspaces out of the Grassmannian.

The symplectic form enters only through its basis pairs, the index pairs
(i, 2n+1-i) of ``combinat.partner``.  One linear form per (k-2)-tuple: the
sum, over the basis pairs disjoint from the tuple, of the wedge coordinate
indexed by tuple plus pair.  Collecting the forms gives a C(2n, k-2) x
C(2n, k) coefficient matrix.  Two coefficient modes exist side by side:

* unsigned: every occurring coordinate enters with coefficient +1,
* signed: each coordinate carries the reordering sign of the pair contraction,
  which is what the contraction map itself produces.

The two modes share their support, hence all support-level structure (weights,
zero columns, block decomposition) is mode independent, while the kernels
differ away from characteristic 2.  A :class:`PluckerMatrix` stores each row
once, as ``(column, sign)`` pairs in ascending column order (the layout of
``FieldMatrix.nonzeros``), next to ``n`` and ``k``; the row and column labels,
the 0/1 support and the sign of each entry are views derived on first read.
``contraction`` applies the contraction map itself, term by term on basis
wedges, from a table of its terms built once per (n, k) by the wedge rule and
never from the matrix rows.  ``decompose`` builds the block structure
of the support from the pair-free parts of the labels, one block per cell of
the row partition, and checks each block against its member of the recursive
family bit for bit, with no component search and no equivalence search.  A
block names its member by the plain pair (k, ell).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

from .bitmatrix import MAX_DIMENSION, BinaryMatrix, check_rows
# Unused here; the benchmark's traced passes rebind these two module attributes.
from .bitmatrix import bipartite_components, permutation_equivalent  # noqa: F401
from .combinat import (
    IndexTuple,
    _insert_pair,
    index_tuples,
    pair_free_part,
    partner,
    row_partition,
)
from .fractal import fractal_matrix
from .gf import FieldMatrix, FieldVector, PrimeField, SparseRow


@dataclass(frozen=True)
class PluckerMatrix:
    """Coefficient matrix of the pair-contraction forms, stored row-sparse.

    ``signed_rows[i]`` holds row i as ``(column, sign)`` pairs in ascending
    column order, the layout of ``FieldMatrix.nonzeros``; the sign is the
    reordering sign of the pair contraction and is the coefficient only when
    ``signed`` is set (otherwise every coefficient is +1).  There are
    C(2n, k) columns.  ``row_labels``, ``col_labels``, ``support`` and
    ``signs`` are views derived on first read; the labels from (n, k) alone.
    """

    n: int
    k: int
    signed: bool
    signed_rows: tuple[tuple[tuple[int, int], ...], ...]

    @cached_property
    def row_labels(self) -> tuple[IndexTuple, ...]:
        """The (k-2)-tuples over [2n] in lexicographic order, one per row."""
        return tuple(index_tuples(self.k - 2, 2 * self.n))

    @cached_property
    def col_labels(self) -> tuple[IndexTuple, ...]:
        """The k-tuples over [2n] in lexicographic order, one per column."""
        return tuple(index_tuples(self.k, 2 * self.n))

    @property
    def _ncols(self) -> int:
        return math.comb(2 * self.n, self.k)

    @cached_property
    def support(self) -> BinaryMatrix:
        """The 0/1 pattern of the rows."""
        return BinaryMatrix(
            len(self.signed_rows),
            self._ncols,
            tuple(tuple(j for j, _ in row) for row in self.signed_rows),
        )

    @cached_property
    def signs(self) -> dict[tuple[int, int], int]:
        """The reordering sign of each entry, keyed by (row, column)."""
        return {(i, j): s for i, row in enumerate(self.signed_rows) for j, s in row}

    def _coefficient_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        if self.signed:
            return self.signed_rows
        return tuple(tuple((j, 1) for j, _ in row) for row in self.signed_rows)

    def field_matrix(self, field: PrimeField) -> FieldMatrix:
        p = field.p  # every coefficient is +-1, a nonzero residue for any p
        rows = tuple(tuple((j, c % p) for j, c in row) for row in self._coefficient_rows())
        return FieldMatrix(field, rows, self._ncols)

    def apply(self, w: SparseRow, field: PrimeField) -> FieldVector:
        """Sparse matrix-vector product over GF(p), as a tuple of Python ints.

        ``w`` holds the nonzero coordinates of a vector as ``(column, value)``
        pairs, columns strictly ascending inside the C(2n, k) columns (else
        ``ValueError``): the form of a row of ``kernel_basis``.  Values are
        read with ``operator.index``, so the sums are exact for any p and a
        float value is a ``TypeError``.
        """
        check_rows((tuple(j for j, _ in w),), self._ncols)
        x = [0] * self._ncols
        for j, v in w:
            x[j] = operator.index(v)
        p = field.p
        return tuple(sum(c * x[j] for j, c in row) % p for row in self._coefficient_rows())


def plucker_matrix(n: int, k: int, signed: bool = False) -> PluckerMatrix:
    """Build the coefficient matrix, rows and columns in lexicographic order.

    Row i, for the i-th (k-2)-tuple, has one entry per basis pair disjoint
    from the tuple, at the column of the merged k-tuple.  Inserting the pairs
    in the order of their smaller member gives lexicographically increasing
    merged tuples, so each row comes out in ascending column order.  More than
    ``MAX_DIMENSION`` columns raise ``ValueError`` before any label is listed.
    The labels are dropped once the rows are built.
    """
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    if math.comb(2 * n, k) > MAX_DIMENSION:  # the column count; there are fewer rows
        raise ValueError(f"the (n={n}, k={k}) system has {math.comb(2 * n, k)} columns, "
                         f"past the limit {MAX_DIMENSION}")
    col_index = {t: j for j, t in enumerate(index_tuples(k, 2 * n))}
    pairs = [(i, partner(i, n)) for i in range(1, n + 1)]
    rows = []
    for base in index_tuples(k - 2, 2 * n):
        row = []
        for lo, hi in pairs:
            merged_sign = _insert_pair(base, lo, hi)
            if merged_sign is not None:
                row.append((col_index[merged_sign[0]], merged_sign[1]))
        rows.append(tuple(row))
    return PluckerMatrix(n=n, k=k, signed=signed, signed_rows=tuple(rows))


@lru_cache(maxsize=16)
def _contraction_terms(n: int, k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The terms of each k-tuple over [2n], tuples in lexicographic order.

    A term is ``(index, sign)``: for every pair of positions r < s holding
    partnered indices, the index of the tuple with those two factors removed
    among the (k-2)-tuples and the sign (-1)**(r+s+1) of removing them
    (1-based positions r+1 < s+1).
    """
    target_index = {t: i for i, t in enumerate(index_tuples(k - 2, 2 * n))}
    terms = []
    for beta in index_tuples(k, 2 * n):
        supp = set(beta)
        col = []
        for r, e in enumerate(beta):
            mate = partner(e, n)
            if mate <= e or mate not in supp:
                continue
            s = beta.index(mate)  # r < s since mate > e and beta is increasing
            reduced = tuple(v for t, v in enumerate(beta) if t != r and t != s)
            col.append((target_index[reduced], 1 if (r + s + 1) % 2 == 0 else -1))
        terms.append(tuple(col))
    return tuple(terms)


def contraction(n: int, k: int, w: list[int] | FieldVector, field: PrimeField) -> FieldVector:
    """Contract a wedge coordinate vector by the symplectic pairing.

    Works term by term on basis wedges: for every coordinate of ``w`` and
    every pair of positions holding partnered indices, the coordinate is added
    to the output at the reduced tuple with the positional sign of removing
    those two factors.  The terms of each coordinate are worked out once per
    (n, k); a call makes one pass over the nonzero coordinates, read as Python
    ints (as :meth:`PluckerMatrix.apply` reads them), so the sums are exact.
    Independent of :func:`plucker_matrix` by construction.
    """
    if n < 1 or not 2 <= k <= 2 * n:
        raise ValueError(f"need n >= 1 and 2 <= k <= 2n, got n={n}, k={k}")
    if len(w) != math.comb(2 * n, k):
        raise ValueError(f"vector length {len(w)} != {math.comb(2 * n, k)} coordinates")
    p = field.p
    out = [0] * math.comb(2 * n, k - 2)
    for x, col in zip(map(operator.index, w), _contraction_terms(n, k)):
        x %= p
        if x:
            for i, sign in col:
                out[i] += sign * x
    return tuple(v % p for v in out)


@dataclass(frozen=True)
class Block:
    """One block of the support: its rows, its columns and its family member (k, ell)."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    fractal: tuple[int, int]


@dataclass(frozen=True)
class DecompositionReport:
    """Computed block structure of the support, with bookkeeping and flags."""

    n: int
    k: int
    blocks: tuple[Block, ...]
    zero_rows: tuple[int, ...]
    zero_columns: tuple[int, ...]
    flags: tuple[str, ...]

    def block_census(self) -> dict[tuple[int, int], int]:
        census: dict[tuple[int, int], int] = {}
        for b in self.blocks:
            census[b.fractal] = census.get(b.fractal, 0) + 1
        return census

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "blocks": [
                {
                    "rows": list(b.rows),
                    "cols": list(b.cols),
                    "fractal": list(b.fractal),
                }
                for b in self.blocks
            ],
            "zero_rows": list(self.zero_rows),
            "zero_columns": list(self.zero_columns),
            "flags": list(self.flags),
        }


def _pair_indexed_census(n: int, k: int) -> dict[tuple[int, int], int]:
    """Block census in its pair-indexed form, kept as the flagging baseline.

    For odd k this indexes the single-free-index blocks by the n pairs with an
    undiminished row-weight parameter; the free index actually ranges over all
    2n basis positions with the touched pair removed, so the empirical census
    diverges (this form fails the row-count identity, which is exactly what
    the flags surface).
    """
    census: dict[tuple[int, int], int] = {}
    if k % 2 == 0:
        r = (k + 2) // 2
        census[(n - (k - 2) // 2, k // 2)] = 1
        for ell in range(1, r - 1):
            key = (n - ell - (k - 2) // 2, (k - 2 * ell) // 2)
            census[key] = census.get(key, 0) + math.comb(n, 2 * ell) * 2 ** (2 * ell)
    else:
        r = (k + 1) // 2
        census[(n - (k - 3) // 2, (k - 1) // 2)] = n
        for ell in range(1, r - 1):
            key = (
                (n - 1 - 2 * ell) - ((k - 3) - 2 * ell) // 2,
                ((k - 1) - 2 * ell) // 2,
            )
            census[key] = census.get(key, 0) + math.comb(n, 2 * ell + 1) * 2 ** (2 * ell + 1)
    return census


def decompose(n: int, k: int) -> DecompositionReport:
    """Build the block structure of the support from the labels and check it.

    There is one block per cell of :func:`row_partition`.  For the cell
    labelled S, with |S| = k - 2j and j >= 1, the rows are the cell's members
    (S plus j - 1 whole pairs) and the columns are the column labels whose
    pair-free part is S (S plus j whole pairs), both in lexicographic order.
    That block must equal A(n - k + j + 1, j) bit for bit, and there must be
    C(n, k - 2j) * 2**(k - 2j) of them.  The block weights must add up to the
    support's weight, so every one lies in a block and the pair-free column
    labels are exactly the zero columns.  Blocks are reported by smallest row.
    Structural violations raise ``AssertionError``; divergences from the
    pair-indexed form of the block census are reported as flags.  The cost is
    linear in the ones of the support.
    """
    if not 2 <= k <= n <= 9:
        raise ValueError(f"need 2 <= k <= n <= 9, got k={k}, n={n}")
    pm = plucker_matrix(n, k, signed=False)
    support = pm.support

    zero_cols: list[int] = []
    cols_by_label: dict[IndexTuple, list[int]] = {}
    for c, beta in enumerate(pm.col_labels):
        label = pair_free_part(beta, n)
        if label == beta:
            zero_cols.append(c)
        else:
            cols_by_label.setdefault(label, []).append(c)

    row_index = {t: r for r, t in enumerate(pm.row_labels)}
    blocks = []
    weight = 0
    for label, members in row_partition(n, k):
        j = (k - len(label)) // 2
        a = n - k + j + 1
        rows = tuple(row_index[member] for member in members)
        cols = tuple(cols_by_label.get(label, ()))
        sub = support.submatrix(rows, cols)
        if sub != fractal_matrix(a, j):
            raise AssertionError(f"the block at cell {label} is not A({a}, {j})")
        weight += sub.weight
        blocks.append(Block(rows, cols, (a, j)))
    blocks.sort(key=lambda block: block.rows[0])
    zero_rows = tuple(r for r, w in enumerate(support.row_weights()) if not w)

    if weight != support.weight:
        raise AssertionError("the support has ones outside the blocks")
    if len(zero_cols) != math.comb(n, k) * 2**k:
        raise AssertionError("zero column count disagrees with the closed form")

    report = DecompositionReport(
        n=n,
        k=k,
        blocks=tuple(blocks),
        zero_rows=zero_rows,
        zero_columns=tuple(zero_cols),
        flags=(),
    )
    census = report.block_census()
    closed_form = {
        (n - k + j + 1, j): math.comb(n, k - 2 * j) * 2 ** (k - 2 * j)
        for j in range(1, k // 2 + 1)
    }
    if census != closed_form:
        raise AssertionError(f"block census {census} disagrees with the closed form {closed_form}")

    flags = []
    baseline = _pair_indexed_census(n, k)
    for key in sorted(set(census) | set(baseline)):
        found = census.get(key, 0)
        stated = baseline.get(key, 0)
        if found != stated:
            flags.append(
                f"block A({key[0]}, {key[1]}): found {found} copies, "
                f"the pair-indexed census predicts {stated}"
            )
    return replace(report, flags=tuple(flags))
