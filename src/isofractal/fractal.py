"""The recursive self-similar matrix family A(k, ell).

A(k, ell) is the (0,1)-matrix with k ones per row, ell per column, and
dimensions C(k+ell-1, ell-1) x C(k+ell-1, ell).  A member is named by the
plain pair (k, ell), which each builder checks against k, ell >= 1 and the
size limit ``MAX_DIMENSION`` on its sides and its ones.  It is built here by
two independent routes that must agree bit for bit:

* the paste route: A(k, 1) is the 1 x k all-ones row, and A(k, ell) sets
  A(j, ell-1) with the identity under it side by side for j = k down to 1,
  each part aligned at the bottom row, writing the rows of the result directly,
* the block route: the 2x2 recursion with A(k, ell-1) on top, an identity
  block bottom-left, and A(k-1, ell) bottom-right.

Both routes shift column indices by looking them up in one list of column
ints rather than adding an offset, so a paste-route member holds one int
object per column (its column count) and a block-route member at most two,
where adding would make a new int for nearly every entry.

Keeping both routes alive makes their agreement a meaningful structural test;
``verify_fractal`` runs that test along with the dimension and weight laws.
Agreement over a whole sweep also covers the recursion: the block route is
literally [A(k, ell-1), 0; I, A(k-1, ell)], so where both routes agree at
(k, ell), (k, ell-1) and (k-1, ell) the paste route has those four blocks.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .bitmatrix import MAX_DIMENSION, BinaryMatrix

# Entries kept by each memoized builder: verify --suite all plus the largest
# emits hold 65 and 36, the whole decompose range 15, in one process.  With
# one int per column, the 64 paste-route entries of an A(9, 8) build take
# 3.6 MB (tracemalloc) and both memos 8.5 MB.
_CACHE_SIZE = 128


def _check_params(k: int, ell: int) -> None:
    if k < 1 or ell < 1:
        raise ValueError(f"need k >= 1 and ell >= 1, got k={k}, ell={ell}")
    # C(k+ell-1, ell-1) rows and C(k+ell-1, ell) columns; the larger is this one
    size = math.comb(k + ell - 1, min(k, ell))
    if size > MAX_DIMENSION:
        raise ValueError(f"A({k}, {ell}) has a side of {size}, past the limit {MAX_DIMENSION}")
    ones = math.comb(k + ell - 1, ell - 1) * k  # k per row
    if ones > MAX_DIMENSION:
        raise ValueError(f"A({k}, {ell}) has {ones} ones, past the limit {MAX_DIMENSION}")


@lru_cache(maxsize=_CACHE_SIZE)
def fractal_matrix(k: int, ell: int) -> BinaryMatrix:
    """Build A(k, ell) by the paste route.  Memoized, bounded; results are immutable."""
    _check_params(k, ell)
    if ell == 1:
        return BinaryMatrix.all_ones(1, k)
    # part j has C(j+ell-1, ell-1) rows, so the first part (j = k) is the tallest
    rows = math.comb(k + ell - 1, ell - 1)
    column = list(range(math.comb(k + ell - 1, ell)))
    adj: list[list[int]] = [[] for _ in range(rows)]
    offset = 0
    for j in range(k, 0, -1):
        part = fractal_matrix(j, ell - 1)
        top = rows - part.rows - part.cols
        # looked up, not added: a sum would be a new int object per entry
        part_columns = column[offset: offset + part.cols]
        shift = part_columns.__getitem__
        for r, row in enumerate(part.row_adj, top):
            adj[r].extend(map(shift, row))
        for r, c in enumerate(part_columns, top + part.rows):
            adj[r].append(c)
        offset += part.cols
    return BinaryMatrix(rows, offset, tuple(map(tuple, adj)))


@lru_cache(maxsize=_CACHE_SIZE)
def fractal_matrix_blockwise(k: int, ell: int) -> BinaryMatrix:
    """Build A(k, ell) by the 2x2 block recursion.  Independent of the paste route."""
    _check_params(k, ell)
    if ell == 1:
        return BinaryMatrix.all_ones(1, k)
    if k == 1:
        return BinaryMatrix.all_ones(ell, 1)
    top = fractal_matrix_blockwise(k, ell - 1)
    right = fractal_matrix_blockwise(k - 1, ell)
    # the identity block is square, C(k+ell-2, ell-1) = top.cols = right.rows
    shift = list(range(top.cols, top.cols + right.cols)).__getitem__
    bottom = tuple((i,) + tuple(map(shift, row)) for i, row in enumerate(right.row_adj))
    return BinaryMatrix(top.rows + right.rows, top.cols + right.cols, top.row_adj + bottom)


def verify_fractal(k_max: int, ell_max: int) -> dict:
    """Check construction laws for all 1 <= k <= k_max, 1 <= ell <= ell_max.

    Per parameter pair: both routes agree bit-exactly, dimensions follow the
    binomial law, every row weight is k and every column weight is ell.  Route
    agreement across the sweep implies the 2x2 block recursion for the paste
    route (see the module docstring).  Failures are report entries, not
    exceptions.
    """
    if k_max < 1 or ell_max < 1:
        raise ValueError("bounds must be positive")
    checks = []
    for k in range(1, k_max + 1):
        for ell in range(1, ell_max + 1):
            a = fractal_matrix(k, ell)
            b = fractal_matrix_blockwise(k, ell)
            n = k + ell - 1
            expected_shape = (math.comb(n, ell - 1), math.comb(n, ell))
            entry = {
                "k": k,
                "ell": ell,
                "routes_agree": a == b,
                "shape_ok": (a.rows, a.cols) == expected_shape,
                "row_weights_ok": all(w == k for w in a.row_weights()),
                "col_weights_ok": all(w == ell for w in a.col_weights()),
                "ones": a.weight,
                "density": a.density,
            }
            entry["passed"] = all(
                entry[key]
                for key in ("routes_agree", "shape_ok", "row_weights_ok", "col_weights_ok")
            )
            checks.append(entry)
    return {
        "k_max": k_max,
        "ell_max": ell_max,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
