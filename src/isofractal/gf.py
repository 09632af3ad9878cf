"""Exact linear algebra over prime fields.

Reduced row echelon form with deterministic pivoting (first nonzero entry,
columns scanned left to right), returned as its pivot columns and nonzero
rows, and nullspace bases.

Matrices are stored row-sparse: each row is its nonzero ``(column, residue)``
pairs in ascending column order, so the contraction system, whose rows hold
at most n entries, is built and eliminated in memory proportional to its
nonzeros.  Sparse rows are the only form a matrix or vector takes here:
``rref`` returns its reduced rows, and ``kernel_basis`` its basis vectors,
in that form.

Elimination works component by component.  ``bitmatrix.row_components``, the
union-find that also splits the contraction system's support into blocks,
splits the bipartite graph of rows and columns into connected components;
zero rows and zero columns take no part.  Each component is eliminated by one
sparse Gauss-Jordan on its rows, each a ``{column: residue}`` map: columns in
ascending order, the pivot being the first remaining row that is nonzero in
the column.  The result equals whole-matrix elimination.  Columns of
different components have disjoint row supports, so a column is independent
of the earlier columns exactly when it is independent of the earlier columns
of its own component: the pivots agree.  The reduced row echelon form is
unique, so the components' reduced rows, ordered by pivot column, are the
nonzero rows of the reduced form of the whole matrix.  For the
contraction system the components are the family members of its direct-sum
decomposition, and the kernel is the direct sum of their kernels plus unit
vectors at the zero columns.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitmatrix import check_rows, row_components


@dataclass(frozen=True)
class PrimeField:
    """GF(p) for a prime p; primality is checked by trial division."""

    p: int

    def __post_init__(self) -> None:
        p = self.p
        if p < 2:
            raise ValueError(f"modulus {p} is not prime")
        d = 2
        while d * d <= p:
            if p % d == 0:
                raise ValueError(f"modulus {p} is not prime")
            d += 1


FieldVector = tuple[int, ...]
SparseRow = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class FieldMatrix:
    """An immutable matrix of residues over a prime field, stored row-sparse.

    ``nonzeros[i]`` holds row i as ``(column, residue)`` pairs, columns
    strictly ascending inside ``[0, ncols)`` and residues ``int``s in
    ``[1, p)``; a numpy integer would reach ``pow`` in ``rref`` and fail there.
    The constructor checks every row, with the row check ``BinaryMatrix`` uses.
    """

    field: PrimeField
    nonzeros: tuple[SparseRow, ...]
    ncols: int

    def __post_init__(self) -> None:
        if self.ncols < 0 or type(self.nonzeros) is not tuple:
            raise ValueError(f"expected a tuple of rows and ncols >= 0, got {self.ncols}")
        p = self.field.p
        for i, row in enumerate(self.nonzeros):
            if type(row) is not tuple or not all(type(v) is int and 0 < v < p for _, v in row):
                raise ValueError(f"row {i} is not a tuple of (column, residue) pairs "
                                 f"with int residues in [1, {p})")
        check_rows((tuple(j for j, _ in row) for row in self.nonzeros), self.ncols)

    @property
    def nrows(self) -> int:
        return len(self.nonzeros)

    def __repr__(self) -> str:
        return f"FieldMatrix(GF({self.field.p}), {self.nrows}x{self.ncols})"


def rref(m: FieldMatrix) -> tuple[tuple[int, ...], tuple[SparseRow, ...]]:
    """The pivot columns and the nonzero rows of the reduced row echelon form.

    Returns ``(pivots, rows)``: the pivot columns ascending, and the reduced
    nonzero rows as ``(column, residue)`` pairs, row i being 1 at
    ``pivots[i]``.  The rank is ``len(pivots)``.  Each connected component of
    the row/column graph is eliminated on its own sparse rows; see the module
    docstring for why the assembled result equals whole-matrix elimination.
    """
    p = m.field.p
    reduced: list[tuple[int, dict[int, int]]] = []
    for block_rows in row_components([[j for j, _ in row] for row in m.nonzeros], m.ncols):
        remaining = [dict(m.nonzeros[i]) for i in block_rows]
        done: list[dict[int, int]] = []
        for c in sorted({j for row in remaining for j in row}):
            index = next((i for i, row in enumerate(remaining) if c in row), None)
            if index is None:
                continue
            pivot = remaining.pop(index)
            inv = pow(pivot[c], -1, p)
            if inv != 1:
                pivot = {j: (v * inv) % p for j, v in pivot.items()}
            for row in remaining + done:
                factor = row.get(c)
                if factor:
                    for j, v in pivot.items():
                        value = (row.get(j, 0) - factor * v) % p
                        if value:
                            row[j] = value
                        else:
                            del row[j]
            done.append(pivot)
            reduced.append((c, pivot))
    reduced.sort(key=lambda pivot_row: pivot_row[0])
    return (tuple(c for c, _ in reduced),
            tuple(tuple(sorted(row.items())) for _, row in reduced))


def kernel_basis(m: FieldMatrix) -> tuple[SparseRow, ...]:
    """A deterministic basis of the right nullspace, one sparse row per free column.

    Free columns are taken in ascending order.  The row for free column f is
    ``(c, p - v)`` for each reduced pivot row with pivot c and entry v at f,
    in pivot order, followed by ``(f, 1)``: ``(column, residue)`` pairs in
    ascending column order, the form of the rows ``rref`` returns.  A reduced
    pivot row is nonzero only inside its own component, so a free column
    takes entries from its component's pivots alone, and a zero column gives
    the unit row ``((f, 1),)``.
    """
    p = m.field.p
    pivots, rows = rref(m)
    back: dict[int, list[tuple[int, int]]] = {}
    for pivot, row in zip(pivots, rows):
        for j, v in row[1:]:  # a reduced row opens with its pivot's 1
            back.setdefault(j, []).append((pivot, p - v))
    pivot_set = set(pivots)
    return tuple(tuple(back.get(f, ())) + ((f, 1),)
                 for f in range(m.ncols) if f not in pivot_set)
