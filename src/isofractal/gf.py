"""Exact linear algebra over prime fields.

Reduced row echelon form with deterministic pivoting (first nonzero entry,
columns scanned left to right), returned as its pivot columns and nonzero
rows, and nullspace bases.

Matrices are stored row-sparse: each row is its nonzero ``(column, residue)``
pairs in ascending column order, so the contraction system, whose rows hold
at most n entries, is built and eliminated in memory proportional to its
nonzeros.  Sparse rows are the only form a matrix is built from.
``kernel_basis`` alone returns a dense result: one numpy array with a row per
basis vector, filled by a single scatter from the reduced rows.  Its dtype is
``np.min_scalar_type(p - 1)``, the smallest unsigned integer type that holds
every residue: uint8 for every p <= 256.  Widen the array (``astype`` or
``tolist``) before doing arithmetic on it: under NumPy's promotion rules a
Python int times a uint8 array stays uint8 and wraps.

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
from itertools import chain

import numpy as np

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


def sparse_entries(rows: tuple[SparseRow, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row index, column and residue of each entry of sparse rows, as int64 arrays."""
    cols, values = np.fromiter(chain.from_iterable(chain.from_iterable(rows)),
                               dtype=np.int64).reshape(-1, 2).T
    return np.repeat(np.arange(len(rows)), [len(row) for row in rows]), cols, values


def kernel_basis(m: FieldMatrix) -> np.ndarray:
    """A deterministic basis of the right nullspace, one row per free column.

    Returns an array of shape ``(d, m.ncols)``, d the nullity, entries
    residues in ``[0, p)``, of dtype ``np.min_scalar_type(p - 1)``: uint8 up
    to p = 256, then uint16, uint32 and uint64.  Nearly every cell is zero,
    so the itemsize sets the memory.  Arithmetic on the array must widen it
    first: a Python int times a uint8 array stays uint8 and wraps.

    Free columns are taken in ascending order; row i has a 1 at the i-th free
    column and back-substituted pivot entries elsewhere.  A reduced pivot row
    is nonzero only inside its own component, so a free column takes entries
    from its component's pivots alone, and a zero column gives a unit vector.
    The array is filled by one scatter from the reduced rows, so no Python
    object is made per coordinate.

    Raises ``ValueError``, before elimination, unless p - 1 < 2**63, the
    largest residue the int64 arrays of ``sparse_entries`` hold; so the dtype
    is at most uint64, never ``object``.
    """
    p = m.field.p
    if p - 1 >= 2**63:
        raise ValueError(f"p={p} overflows int64: kernel entries need p - 1 < 2**63")
    pivots, rows = rref(m)
    row_of, cols, values = sparse_entries(rows)
    pivots = np.array(pivots, dtype=np.int64)
    pivot_of = pivots[row_of]
    # a reduced row is 1 at its pivot and nonzero elsewhere only at free columns
    back = cols != pivot_of
    is_free = np.ones(m.ncols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    # entry e goes to the basis row led by free column owner[e], at column place[e]
    owner = np.concatenate([free, cols[back]])
    place = np.concatenate([free, pivot_of[back]])
    entries = np.concatenate([np.ones(len(free), dtype=np.int64), p - values[back]])
    basis = np.zeros((len(free), m.ncols), dtype=np.min_scalar_type(p - 1))
    basis[(np.cumsum(is_free) - 1)[owner], place] = entries
    return basis

