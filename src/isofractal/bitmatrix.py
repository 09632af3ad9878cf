"""Sparse (0,1)-matrices: the value type shared throughout the package.

A :class:`BinaryMatrix` is an immutable list of rows with explicit dimensions:
row r is the ascending tuple of the columns holding a one in row r.  The
matrices handled here are very sparse (a few ones per row) and every builder
writes its rows directly, block by block, so the row-sparse form is both the
natural build target and the order every text form is written in; the column
adjacency is derived once on first use, and dense rows are materialized only
for the ascii text form.

Besides the value type this module provides:

* ``check_rows`` and ``MAX_DIMENSION``: the row check and the size limit that
  ``gf.FieldMatrix`` and the matrix builders share, and ``check_size``, the
  one check of every builder's parameters against that limit,
* ``bipartite_components``: the connected components of the row/column
  incidence graph, the blocks of a block-diagonal matrix,
* ``row_components``: the union-find behind ``bipartite_components``, over
  each row's column indices, which ``gf.rref`` shares,
* ``permutation_equivalent``: an exact search for row/column permutations
  carrying one matrix onto another, witness included (colour refinement plus
  backtracking, after McKay & Piperno, "Practical graph isomorphism II",
  2014); library API only, since every family identity the package checks
  holds bit for bit,
* text serialization in MatrixMarket coordinate, alist, and plain ascii form,
  each built one string per row (the alist form also one per column) and
  joined once, never one string per entry: the MatrixMarket writer peaks at
  about 2.5 times its text on A(9, 8).  The MatrixMarket form of a 0/1
  matrix switched by a row and a column sign vector, which the signed
  contraction system needs, shares the header and size line; the alist
  writer builds its column lists for the one call, so writing a matrix
  leaves nothing cached on it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import lt
from typing import Iterable, Sequence

Coord = tuple[int, int]
Row = tuple[int, ...]

FORMATS = ("matrixmarket", "alist", "ascii")

# Largest row or column count of any matrix the package reads or builds, and
# largest count of ones of any it builds.  A MatrixMarket size line, or the
# parameters of the builders (checked by ``check_size``), fix what is allocated
# before any entry is read or set, so the bound keeps a short file or a few
# small numbers from asking for gigabytes: A(10, 10) has 923,780 ones and
# raises the peak RSS by 58 MB, A(12, 12) has 16,224,936.
MAX_DIMENSION = 2**24


def check_size(what: str, *, rows: tuple[int, int], cols: tuple[int, int],
               ones: tuple[int, int, int]) -> None:
    """Raise ``ValueError`` when the matrix ``what`` would pass ``MAX_DIMENSION``.

    ``rows`` and ``cols`` are pairs (n, r) standing for C(n, r), ``ones`` a
    triple (f, n, r) standing for f * C(n, r).  The sides are checked before
    the ones.  No count past the limit is computed, so any parameters are
    refused at once, and the message names the limit, not the count.
    """
    for (f, n, r), part in (((1, *rows), "rows or columns"), ((1, *cols), "rows or columns"),
                            (ones, "ones")):
        m = min(r, n - r)
        # C(n, m) >= 2**m, so a count this far past the limit is never computed
        if m >= MAX_DIMENSION.bit_length() or f * math.comb(n, m) > MAX_DIMENSION:
            raise ValueError(f"{what} has too many {part}, past the limit {MAX_DIMENSION}")


def check_rows(rows: Iterable[Row], ncols: int) -> None:
    """Raise ``ValueError`` unless every row is a tuple of increasing columns in [0, ncols)."""
    for r, row in enumerate(rows):
        if type(row) is not tuple or (row and (
                row[0] < 0 or row[-1] >= ncols or not all(map(lt, row, row[1:])))):
            raise ValueError(f"row {r} is not an increasing tuple of columns in [0, {ncols})")


@dataclass(frozen=True)
class BinaryMatrix:
    """An immutable (0,1)-matrix stored row-sparse (0-based).

    ``row_adj[r]`` is the strictly increasing tuple of the columns of the ones
    in row r.  The constructor checks each row: a tuple whose first and last
    entries lie in ``[0, cols)`` and whose entries strictly increase.
    """

    rows: int
    cols: int
    row_adj: tuple[Row, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError(f"negative dimensions {self.rows}x{self.cols}")
        if type(self.row_adj) is not tuple or len(self.row_adj) != self.rows:
            raise ValueError(f"expected a tuple of {self.rows} rows")
        check_rows(self.row_adj, self.cols)

    @classmethod
    def from_coords(cls, rows: int, cols: int, coords: Iterable[Coord]) -> BinaryMatrix:
        """The matrix with ones at the given (row, column) pairs; repeats count once."""
        adj: list[list[int]] = [[] for _ in range(rows)]
        for r, c in coords:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"coordinate ({r}, {c}) outside {rows}x{cols}")
            adj[r].append(c)
        return cls(rows, cols, tuple(tuple(sorted(set(a))) for a in adj))

    @classmethod
    def all_ones(cls, rows: int, cols: int) -> BinaryMatrix:
        return cls(rows, cols, (tuple(range(cols)),) * rows)

    @classmethod
    def zero(cls, rows: int, cols: int) -> BinaryMatrix:
        return cls(rows, cols, ((),) * rows)

    def _col_lists(self) -> list[list[int]]:
        """The rows of the ones in each column, ascending, built afresh."""
        adj: list[list[int]] = [[] for _ in range(self.cols)]
        for r, row in enumerate(self.row_adj):
            for c in row:
                adj[c].append(r)
        return adj

    @cached_property
    def _col_adj(self) -> tuple[Row, ...]:
        # cached for col_support and _vertex_adj only: a memoized family
        # member keeps whatever is cached on it for the life of the process
        return tuple(map(tuple, self._col_lists()))

    @cached_property
    def _vertex_adj(self) -> tuple[Row, ...]:
        """Neighbours of each vertex: rows ``0..rows-1``, then columns shifted by ``rows``."""
        return tuple(tuple(self.rows + c for c in a) for a in self.row_adj) + self._col_adj

    def col_support(self, c: int) -> Row:
        return self._col_adj[c]

    def row_weights(self) -> list[int]:
        return [len(a) for a in self.row_adj]

    def col_weights(self) -> list[int]:
        counts = Counter(chain.from_iterable(self.row_adj))
        return [counts[c] for c in range(self.cols)]

    @cached_property
    def weight(self) -> int:
        return sum(map(len, self.row_adj))

    @property
    def density(self) -> float:
        if self.rows == 0 or self.cols == 0:
            return 0.0
        return self.weight / (self.rows * self.cols)

    def submatrix(self, row_indices: Sequence[int], col_indices: Sequence[int]) -> BinaryMatrix:
        """Induced submatrix on distinct indices; index order gives the new order.

        Walks the selected rows only, so a slice costs the ones of its own
        rows, not the weight of the whole matrix; a row that meets no kept
        column is passed over in one set test.  Indices outside the matrix
        raise ``IndexError``, repeated ones ``ValueError``.
        """
        if row_indices and not (0 <= min(row_indices) and max(row_indices) < self.rows):
            raise IndexError(f"row indices outside [0, {self.rows})")
        if col_indices and not (0 <= min(col_indices) and max(col_indices) < self.cols):
            raise IndexError(f"column indices outside [0, {self.cols})")
        cmap = {c: j for j, c in enumerate(col_indices)}
        if len(cmap) != len(col_indices) or len(set(row_indices)) != len(row_indices):
            raise ValueError("repeated row or column indices")
        adj, keys = self.row_adj, cmap.keys()
        kept = [() if keys.isdisjoint(adj[r]) else tuple(cmap[c] for c in adj[r] if c in cmap)
                for r in row_indices]
        if any(map(lt, col_indices[1:], col_indices)):
            kept = [tuple(sorted(row)) for row in kept]
        return BinaryMatrix(len(kept), len(cmap), tuple(kept))

    def to_text_rows(self) -> list[str]:
        out = []
        for row in self.row_adj:
            chars = ["0"] * self.cols
            for c in row:
                chars[c] = "1"
            out.append("".join(chars))
        return out

    def __str__(self) -> str:
        return "\n".join(self.to_text_rows())


@dataclass(frozen=True)
class PermutationPair:
    """Witness permutations: row r of the source becomes row ``row_perm[r]`` of the target."""

    row_perm: tuple[int, ...]
    col_perm: tuple[int, ...]

    @classmethod
    def identity(cls, rows: int, cols: int) -> PermutationPair:
        return cls(tuple(range(rows)), tuple(range(cols)))

    @property
    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.row_perm)) and all(
            i == v for i, v in enumerate(self.col_perm)
        )

    def apply(self, m: BinaryMatrix) -> BinaryMatrix:
        if len(self.row_perm) != m.rows or len(self.col_perm) != m.cols:
            raise ValueError("permutation sizes do not match the matrix")
        if set(self.row_perm) != set(range(m.rows)) or set(self.col_perm) != set(range(m.cols)):
            raise ValueError("row_perm and col_perm must be permutations")
        col_of = self.col_perm.__getitem__
        adj: list[Row] = [()] * m.rows
        for r, row in zip(self.row_perm, m.row_adj):
            adj[r] = tuple(sorted(map(col_of, row)))
        return BinaryMatrix(m.rows, m.cols, tuple(adj))


def row_components(rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """Row indices of each connected component of the row/column graph.

    ``rows[i]`` lists the column indices of row i, each in ``range(ncols)``.
    One union-find pass over the columns joins the columns of every row.
    Components are ordered by their smallest row, rows ascending within each;
    zero rows belong to no component.
    """
    parent = list(range(ncols))

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for row in rows:
        if row:
            root = find(row[0])
            for j in row[1:]:
                parent[find(j)] = root
    groups: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        if row:
            groups.setdefault(find(row[0]), []).append(i)
    return list(groups.values())


def bipartite_components(
    m: BinaryMatrix,
) -> tuple[list[tuple[tuple[int, ...], tuple[int, ...]]], tuple[int, ...], tuple[int, ...]]:
    """Connected components of the row/column incidence graph.

    Returns ``(components, zero_rows, zero_cols)`` where each component is a
    pair of sorted row and column index tuples, components ordered by their
    smallest row index.  Rows and columns without any ones are reported
    separately and belong to no component.
    """
    zero_rows = tuple(r for r, row in enumerate(m.row_adj) if not row)
    zero_cols = tuple(c for c in range(m.cols) if not m.col_support(c))
    components = [
        (tuple(rows), tuple(sorted({c for r in rows for c in m.row_adj[r]})))
        for rows in row_components(m.row_adj, m.cols)
    ]
    return components, zero_rows, zero_cols


# --- permutation equivalence -------------------------------------------------
#
# Exact search: colour refinement of one vertex set, the rows followed by the
# columns shifted by ``rows``, over the bipartite incidence graph, then
# individualization with backtracking on the residual classes (McKay & Piperno,
# "Practical graph isomorphism II", 2014).  The rows start as one class and
# the columns as another; the first round splits both by weight.  Each round
# interns the signatures of the first matrix's vertices, then the second's, in
# one table, so colours stay comparable; a null answer is returned only once
# every candidate assignment in some class has been exhausted.


def _refine(a: BinaryMatrix, b: BinaryMatrix, ca: list[int], cb: list[int]
            ) -> tuple[list[int], list[int]] | None:
    ncolors = len(set(ca))
    while True:
        table: dict[tuple[int, tuple[int, ...]], int] = {}
        ca = [table.setdefault((ca[v], tuple(sorted(ca[u] for u in adj))), len(table))
              for v, adj in enumerate(a._vertex_adj)]
        cb = [table.setdefault((cb[v], tuple(sorted(cb[u] for u in adj))), len(table))
              for v, adj in enumerate(b._vertex_adj)]
        if Counter(ca) != Counter(cb):
            return None
        if len(table) == ncolors:
            return ca, cb
        ncolors = len(table)


def _search(a: BinaryMatrix, b: BinaryMatrix, ca: list[int], cb: list[int]
            ) -> PermutationPair | None:
    refined = _refine(a, b, ca, cb)
    if refined is None:
        return None
    ca, cb = refined
    counts = Counter(ca)
    for side in (ca[: a.rows], ca[a.rows:]):
        multi = [(counts[color], color) for color in side if counts[color] > 1]
        if multi:
            break
    else:
        vertex_of = {color: w for w, color in enumerate(cb)}
        witness = PermutationPair(tuple(vertex_of[color] for color in ca[: a.rows]),
                                  tuple(vertex_of[color] - a.rows for color in ca[a.rows:]))
        return witness if witness.apply(a) == b else None
    target = min(multi)[1]
    fresh = max(ca) + 1
    v = ca.index(target)
    for w in [w for w, color in enumerate(cb) if color == target]:
        found = _search(a, b, ca[:v] + [fresh] + ca[v + 1:], cb[:w] + [fresh] + cb[w + 1:])
        if found is not None:
            return found
    return None


def permutation_equivalent(a: BinaryMatrix, b: BinaryMatrix) -> PermutationPair | None:
    """Row/column permutations carrying ``a`` onto ``b``, or None if none exists.

    The search is exact: cheap prefilters (dimensions, weight multisets) are
    followed by signature refinement and exhaustive backtracking, so a null
    answer is a proof of inequivalence at these sizes.
    """
    if (a.rows, a.cols) != (b.rows, b.cols):
        return None
    if a == b:
        return PermutationPair.identity(a.rows, a.cols)
    if sorted(a.row_weights()) != sorted(b.row_weights()):
        return None
    if sorted(a.col_weights()) != sorted(b.col_weights()):
        return None
    sides = [0] * a.rows + [1] * a.cols
    return _search(a, b, sides, list(sides))


# --- serialization ------------------------------------------------------------


class ParseError(ValueError):
    """Malformed serialized matrix; carries the offending 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def serialize(m: BinaryMatrix, fmt: str) -> str:
    if fmt == "matrixmarket":
        return _to_matrixmarket(m)
    if fmt == "alist":
        return _to_alist(m)
    if fmt == "ascii":
        return _to_ascii(m)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def deserialize(text: str, fmt: str) -> BinaryMatrix:
    if fmt == "matrixmarket":
        return _from_matrixmarket(text)
    if fmt == "alist":
        return _from_alist(text)
    if fmt == "ascii":
        return _from_ascii(text)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


MATRIXMARKET_HEADER = "%%MatrixMarket matrix coordinate integer general"


def _matrixmarket(rows: int, cols: int, nnz: int, row_texts: Iterable[str]) -> str:
    """The header and size line, then the entry lines, one string per nonzero row."""
    return "".join([f"{MATRIXMARKET_HEADER}\n{rows} {cols} {nnz}\n", *row_texts])


def _to_matrixmarket(m: BinaryMatrix) -> str:
    # the entry lines of row r are "r c+1 1"
    return _matrixmarket(m.rows, m.cols, m.weight, (
        f"{r} " + f" 1\n{r} ".join([str(c + 1) for c in row]) + " 1\n"
        for r, row in enumerate(m.row_adj, 1) if row))


def _signed_matrixmarket(support: BinaryMatrix, row_signs: Sequence[int],
                         col_signs: Sequence[int]) -> str:
    """MatrixMarket text of ``support`` with ``row_signs[i] * col_signs[j]`` at each one (i, j).

    ``deserialize`` reads back only the 0/1 form.
    """
    # the entry lines of row i are "i j+1 value"
    return _matrixmarket(support.rows, support.cols, support.weight, (
        f"{i} " + f"\n{i} ".join([f"{j + 1} {r * col_signs[j]}" for j in row]) + "\n"
        for i, (r, row) in enumerate(zip(row_signs, support.row_adj), 1) if row))


def _from_matrixmarket(text: str) -> BinaryMatrix:
    lines = text.splitlines()
    # only the header serialize writes: a symmetric or skew file stores one
    # entry of each mirrored pair, a pattern or real file other entry fields
    if not lines or lines[0].lower().split() != MATRIXMARKET_HEADER.lower().split():
        raise ParseError(1, f"expected the header {MATRIXMARKET_HEADER!r}")
    idx = 1
    while idx < len(lines) and (not lines[idx].strip() or lines[idx].lstrip().startswith("%")):
        idx += 1
    if idx >= len(lines):
        raise ParseError(len(lines) or 1, "missing size line")
    parts = lines[idx].split()
    if len(parts) != 3:
        raise ParseError(idx + 1, f"size line needs 3 fields, got {len(parts)}")
    try:
        rows, cols, nnz = (int(p) for p in parts)
    except ValueError:
        raise ParseError(idx + 1, "size line fields must be integers") from None
    if rows < 0 or cols < 0:
        raise ParseError(idx + 1, f"negative dimensions {rows}x{cols}")
    if max(rows, cols) > MAX_DIMENSION:
        raise ParseError(idx + 1, f"dimensions {rows}x{cols} exceed {MAX_DIMENSION}")
    coords = []
    lineno = idx + 1
    for line in lines[idx + 1:]:
        lineno += 1
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        fields = stripped.split()
        if len(fields) != 3:
            raise ParseError(lineno, f"entry needs 3 fields, got {len(fields)}")
        try:
            r, c, v = (int(f) for f in fields)
        except ValueError:
            raise ParseError(lineno, "entry fields must be integers") from None
        if v != 1:
            raise ParseError(lineno, f"entry value must be 1, got {v}")
        if not (1 <= r <= rows and 1 <= c <= cols):
            raise ParseError(lineno, f"coordinate ({r}, {c}) outside {rows}x{cols}")
        coords.append((r - 1, c - 1))
    m = BinaryMatrix.from_coords(rows, cols, coords)
    if m.weight != nnz:
        raise ParseError(lineno, f"declared {nnz} entries, found {m.weight}")
    if len(coords) != nnz:
        raise ParseError(lineno, f"declared {nnz} entries, found {len(coords)} entry lines")
    return m


def _to_alist(m: BinaryMatrix) -> str:
    col_lists = m._col_lists()
    max_col = max(map(len, col_lists), default=0)
    max_row = max(map(len, m.row_adj), default=0)

    def padded(indices: Sequence[int], width: int) -> str:
        return " ".join([str(i + 1) for i in indices] + ["0"] * (width - len(indices))) + "\n"

    head = (f"{m.cols} {m.rows}\n{max_col} {max_row}\n"
            + " ".join([str(len(x)) for x in col_lists]) + "\n"
            + " ".join([str(len(x)) for x in m.row_adj]) + "\n")
    lines = [head, *(padded(x, max_col) for x in col_lists)]
    # one string per line; the column lists are freed before the row lines are built
    del col_lists
    lines.extend(padded(x, max_row) for x in m.row_adj)
    return "".join(lines)


def _ints(line: str, lineno: int) -> list[int]:
    try:
        return [int(f) for f in line.split()]
    except ValueError:
        raise ParseError(lineno, "fields must be integers") from None


def _from_alist(text: str) -> BinaryMatrix:
    lines = text.splitlines()
    if len(lines) < 4:
        raise ParseError(max(len(lines), 1), "alist needs at least 4 lines")
    head = _ints(lines[0], 1)
    if len(head) != 2:
        raise ParseError(1, "first line must be 'cols rows'")
    cols, rows = head
    col_weights = _ints(lines[2], 3)
    row_weights = _ints(lines[3], 4)
    if len(col_weights) != cols:
        raise ParseError(3, f"expected {cols} column weights, got {len(col_weights)}")
    if len(row_weights) != rows:
        raise ParseError(4, f"expected {rows} row weights, got {len(row_weights)}")
    expected = 4 + cols + rows
    if len(lines) < expected:
        raise ParseError(len(lines), f"expected {expected} lines, got {len(lines)}")
    by_row: list[list[int]] = [[] for _ in range(rows)]
    for c in range(cols):
        lineno = 5 + c
        entries = [v for v in _ints(lines[4 + c], lineno) if v != 0]
        if len(entries) != col_weights[c]:
            raise ParseError(lineno, f"column {c + 1} lists {len(entries)} rows, "
                                     f"weight says {col_weights[c]}")
        for v in entries:
            if not 1 <= v <= rows:
                raise ParseError(lineno, f"row index {v} outside [1, {rows}]")
            by_row[v - 1].append(c)
    adj = []
    for r in range(rows):
        lineno = 5 + cols + r
        entries = [v for v in _ints(lines[4 + cols + r], lineno) if v != 0]
        if len(entries) != row_weights[r]:
            raise ParseError(lineno, f"row {r + 1} lists {len(entries)} columns, "
                                     f"weight says {row_weights[r]}")
        listed = set(by_row[r])
        for v in entries:
            if not 1 <= v <= cols:
                raise ParseError(lineno, f"column index {v} outside [1, {cols}]")
            if v - 1 not in listed:
                raise ParseError(lineno, f"entry ({r + 1}, {v}) missing from column lists")
        adj.append(tuple(sorted(listed)))
    total = sum(col_weights)
    if total != sum(map(len, adj)) or total != sum(row_weights):
        raise ParseError(4, "row and column weight totals disagree")
    # checked last, so that every other fault keeps the line it is reported at
    maxima = [max(col_weights, default=0), max(row_weights, default=0)]
    if _ints(lines[1], 2) != maxima:
        raise ParseError(2, "expected the largest column and row weights, "
                            f"'{maxima[0]} {maxima[1]}'")
    return BinaryMatrix(rows, cols, tuple(adj))


def _to_ascii(m: BinaryMatrix) -> str:
    if m.rows == 0 and m.cols == 0:
        return ""
    if m.rows == 0 or m.cols == 0:
        raise ValueError(f"ascii form cannot represent a {m.rows}x{m.cols} matrix")
    return "\n".join(m.to_text_rows()) + "\n"


def _from_ascii(text: str) -> BinaryMatrix:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return BinaryMatrix.zero(0, 0)
    cols = len(lines[0])
    adj = []
    for r, line in enumerate(lines):
        if len(line) != cols:
            raise ParseError(r + 1, f"row length {len(line)} differs from {cols}")
        row = []
        for c, ch in enumerate(line):
            if ch == "1":
                row.append(c)
            elif ch != "0":
                raise ParseError(r + 1, f"unexpected character {ch!r}")
        adj.append(tuple(row))
    return BinaryMatrix(len(lines), cols, tuple(adj))
