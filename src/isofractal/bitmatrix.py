"""Sparse (0,1)-matrices and the assembly operations used throughout the package.

A :class:`BinaryMatrix` is an immutable coordinate set with explicit
dimensions.  The matrices handled here are very sparse (a few ones per row),
so the coordinate representation with cached row/column adjacency beats dense
storage; dense rows are materialized only for the ascii text form.

Besides the value type this module provides:

* ``stack_identity_below`` and ``paste_right``: the two paste operations the
  recursive matrix family is assembled from,
* ``direct_sum`` and ``bipartite_components``: block-diagonal assembly and its
  inverse (connected components of the row/column incidence graph),
* ``row_components``: the union-find behind ``bipartite_components``, over
  each row's column indices, which ``gf.rref`` shares,
* ``permutation_equivalent``: an exact search for row/column permutations
  carrying one matrix onto another, witness included,
* text serialization in MatrixMarket coordinate, alist, and plain ascii form.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

Coord = tuple[int, int]

FORMATS = ("matrixmarket", "alist", "ascii")


@dataclass(frozen=True)
class BinaryMatrix:
    """An immutable (0,1)-matrix stored as the set of its 1-coordinates (0-based)."""

    rows: int
    cols: int
    ones: frozenset[Coord]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError(f"negative dimensions {self.rows}x{self.cols}")
        for r, c in self.ones:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError(f"coordinate ({r}, {c}) outside {self.rows}x{self.cols}")

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[int]], cols: int | None = None) -> BinaryMatrix:
        nrows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        ones = set()
        for r, row in enumerate(data):
            if len(row) != cols:
                raise ValueError(f"ragged row {r}: {len(row)} entries, expected {cols}")
            for c, v in enumerate(row):
                if v not in (0, 1):
                    raise ValueError(f"entry {v!r} at ({r}, {c}) is not 0 or 1")
                if v:
                    ones.add((r, c))
        return cls(nrows, cols, frozenset(ones))

    @classmethod
    def identity(cls, n: int) -> BinaryMatrix:
        return cls(n, n, frozenset((i, i) for i in range(n)))

    @classmethod
    def all_ones(cls, rows: int, cols: int) -> BinaryMatrix:
        return cls(rows, cols, frozenset((r, c) for r in range(rows) for c in range(cols)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> BinaryMatrix:
        return cls(rows, cols, frozenset())

    @cached_property
    def _row_adj(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.rows)]
        for r, c in sorted(self.ones):
            adj[r].append(c)
        return tuple(tuple(a) for a in adj)

    @cached_property
    def _col_adj(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.cols)]
        for r, c in sorted(self.ones):
            adj[c].append(r)
        return tuple(tuple(a) for a in adj)

    @cached_property
    def _vertex_adj(self) -> tuple[tuple[int, ...], ...]:
        """Neighbours of each vertex: rows ``0..rows-1``, then columns shifted by ``rows``."""
        return tuple(tuple(self.rows + c for c in a) for a in self._row_adj) + self._col_adj

    def row_support(self, r: int) -> tuple[int, ...]:
        return self._row_adj[r]

    def col_support(self, c: int) -> tuple[int, ...]:
        return self._col_adj[c]

    def row_weight(self, r: int) -> int:
        return len(self._row_adj[r])

    def col_weight(self, c: int) -> int:
        return len(self._col_adj[c])

    def row_weights(self) -> list[int]:
        return [len(a) for a in self._row_adj]

    def col_weights(self) -> list[int]:
        return [len(a) for a in self._col_adj]

    @property
    def weight(self) -> int:
        return len(self.ones)

    @property
    def density(self) -> float:
        if self.rows == 0 or self.cols == 0:
            return 0.0
        return len(self.ones) / (self.rows * self.cols)

    def submatrix(self, row_indices: Sequence[int], col_indices: Sequence[int]) -> BinaryMatrix:
        """Induced submatrix on distinct indices; index order gives the new order.

        Walks the cached row adjacency of the selected rows only, so a slice
        costs the ones of its own rows, not the weight of the whole matrix.
        """
        if row_indices and not (0 <= min(row_indices) and max(row_indices) < self.rows):
            raise IndexError(f"row indices outside [0, {self.rows})")
        cmap = {c: j for j, c in enumerate(col_indices)}
        adj = self._row_adj
        ones = frozenset(
            (i, cmap[c]) for i, r in enumerate(row_indices) for c in adj[r] if c in cmap
        )
        return BinaryMatrix(len(row_indices), len(col_indices), ones)

    def to_text_rows(self) -> list[str]:
        return ["".join("1" if (r, c) in self.ones else "0" for c in range(self.cols))
                for r in range(self.rows)]

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
        return BinaryMatrix(
            m.rows,
            m.cols,
            frozenset((self.row_perm[r], self.col_perm[c]) for r, c in m.ones),
        )


def stack_identity_below(m: BinaryMatrix) -> BinaryMatrix:
    """Paste the cols x cols identity under ``m``."""
    if m.cols < 1:
        raise ValueError("cannot stack an identity under a zero-column matrix")
    coords = set(m.ones)
    coords.update((m.rows + j, j) for j in range(m.cols))
    return BinaryMatrix(m.rows + m.cols, m.cols, frozenset(coords))


def paste_right(parts: Sequence[BinaryMatrix]) -> BinaryMatrix:
    """Concatenate matrices side by side, aligning every part at the bottom row.

    The first part must be the tallest and heights must be non-increasing;
    positions above a shorter part are zero.
    """
    if not parts:
        raise ValueError("paste_right needs at least one part")
    heights = [p.rows for p in parts]
    for i in range(1, len(heights)):
        if heights[i] > heights[i - 1]:
            raise ValueError(
                f"part {i} is taller than part {i - 1} ({heights[i]} > {heights[i - 1]})"
            )
    total_rows = heights[0]
    coords: set[Coord] = set()
    offset = 0
    for p in parts:
        shift = total_rows - p.rows
        coords.update((r + shift, c + offset) for r, c in p.ones)
        offset += p.cols
    return BinaryMatrix(total_rows, offset, frozenset(coords))


def direct_sum(parts: Sequence[BinaryMatrix]) -> BinaryMatrix:
    """Block-diagonal assembly; the empty sum is the 0x0 matrix."""
    row_off = 0
    col_off = 0
    coords: set[Coord] = set()
    for p in parts:
        coords.update((row_off + r, col_off + c) for r, c in p.ones)
        row_off += p.rows
        col_off += p.cols
    return BinaryMatrix(row_off, col_off, frozenset(coords))


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
    zero_rows = tuple(r for r in range(m.rows) if not m.row_support(r))
    zero_cols = tuple(c for c in range(m.cols) if not m.col_support(c))
    components = [
        (tuple(rows), tuple(sorted({c for r in rows for c in m.row_support(r)})))
        for rows in row_components(m._row_adj, m.cols)
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
        return witness if witness.apply(a).ones == b.ones else None
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
    if a.ones == b.ones:
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


def _to_matrixmarket(m: BinaryMatrix) -> str:
    lines = [MATRIXMARKET_HEADER, f"{m.rows} {m.cols} {len(m.ones)}"]
    lines.extend(f"{r + 1} {c + 1} 1" for r, c in sorted(m.ones))
    return "\n".join(lines) + "\n"


def _from_matrixmarket(text: str) -> BinaryMatrix:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ParseError(1, "missing MatrixMarket header")
    header = lines[0].lower().split()
    if "coordinate" not in header:
        raise ParseError(1, "only coordinate format is supported")
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
    coords = set()
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
        coords.add((r - 1, c - 1))
    if len(coords) != nnz:
        raise ParseError(lineno, f"declared {nnz} entries, found {len(coords)}")
    return BinaryMatrix(rows, cols, frozenset(coords))


def _to_alist(m: BinaryMatrix) -> str:
    col_lists = [m.col_support(c) for c in range(m.cols)]
    row_lists = [m.row_support(r) for r in range(m.rows)]
    max_col = max((len(x) for x in col_lists), default=0)
    max_row = max((len(x) for x in row_lists), default=0)

    def padded(indices: tuple[int, ...], width: int) -> str:
        vals = [i + 1 for i in indices] + [0] * (width - len(indices))
        return " ".join(str(v) for v in vals)

    lines = [
        f"{m.cols} {m.rows}",
        f"{max_col} {max_row}",
        " ".join(str(len(x)) for x in col_lists),
        " ".join(str(len(x)) for x in row_lists),
    ]
    lines.extend(padded(x, max_col) for x in col_lists)
    lines.extend(padded(x, max_row) for x in row_lists)
    return "\n".join(lines) + "\n"


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
    coords = set()
    for c in range(cols):
        lineno = 5 + c
        entries = [v for v in _ints(lines[4 + c], lineno) if v != 0]
        if len(entries) != col_weights[c]:
            raise ParseError(lineno, f"column {c + 1} lists {len(entries)} rows, "
                                     f"weight says {col_weights[c]}")
        for v in entries:
            if not 1 <= v <= rows:
                raise ParseError(lineno, f"row index {v} outside [1, {rows}]")
            coords.add((v - 1, c))
    for r in range(rows):
        lineno = 5 + cols + r
        entries = [v for v in _ints(lines[4 + cols + r], lineno) if v != 0]
        if len(entries) != row_weights[r]:
            raise ParseError(lineno, f"row {r + 1} lists {len(entries)} columns, "
                                     f"weight says {row_weights[r]}")
        for v in entries:
            if not 1 <= v <= cols:
                raise ParseError(lineno, f"column index {v} outside [1, {cols}]")
            if (r, v - 1) not in coords:
                raise ParseError(lineno, f"entry ({r + 1}, {v}) missing from column lists")
    total = sum(col_weights)
    if total != len(coords) or total != sum(row_weights):
        raise ParseError(4, "row and column weight totals disagree")
    return BinaryMatrix(rows, cols, frozenset(coords))


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
    coords = set()
    for r, line in enumerate(lines):
        if len(line) != cols:
            raise ParseError(r + 1, f"row length {len(line)} differs from {cols}")
        for c, ch in enumerate(line):
            if ch == "1":
                coords.add((r, c))
            elif ch != "0":
                raise ParseError(r + 1, f"unexpected character {ch!r}")
    return BinaryMatrix(len(lines), cols, frozenset(coords))
