"""Strictly increasing index tuples and the symplectic pair bookkeeping built on them.

An index tuple is a plain ``tuple[int, ...]`` of strictly increasing 1-based
entries bounded by some ``m``; the empty tuple is a first-class value.  Since
the entries are sorted, two tuples are equal exactly when their supports are
equal.  These tuples index matrix rows, matrix columns, and wedge coordinates
throughout the package, always in lexicographic order so that positions are
stable across runs.

On top of the raw tuples this module provides the pairing of a symplectic
basis (``partner``: the n index pairs (i, 2n+1-i) partition [2n]) and the
partition of tuples by the pair-free part of their support, each cell a plain
``(label, members)`` pair.  The wedge reordering sign of inserting a pair is
read off bitmask labels where the contraction system is built, in ``plucker``.
"""

from __future__ import annotations

from itertools import combinations

IndexTuple = tuple[int, ...]


def index_tuples(s: int, m: int) -> list[IndexTuple]:
    """All strictly increasing s-tuples over [1, m], in lexicographic order.

    ``s == 0`` yields the single empty tuple.
    """
    if s < 0 or s > m:
        raise ValueError(f"need 0 <= s <= m, got s={s}, m={m}")
    return list(combinations(range(1, m + 1), s))


def partner(e: int, n: int) -> int:
    """The index paired with ``e`` in [2n]: the one summing with it to 2n+1."""
    if not 1 <= e <= 2 * n:
        raise ValueError(f"index {e} outside [1, {2 * n}]")
    return 2 * n + 1 - e


def pair_free_part(t: IndexTuple, n: int) -> IndexTuple:
    """Entries of ``t`` whose pair partner is absent from ``t``."""
    supp = set(t)
    return tuple(e for e in t if partner(e, n) not in supp)


def check_domain(n: int, k: int) -> None:
    """Raise ``ValueError`` unless 2 <= k <= n, the domain of the (n, k) system and its points."""
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")


def row_partition(n: int, k: int) -> tuple[tuple[IndexTuple, tuple[IndexTuple, ...]], ...]:
    """Group the (k-2)-tuples over [2n] by the pair-free part of their support.

    Returns one ``(label, members)`` pair per cell: a tuple lands in the cell
    labeled by its entries whose partner is absent, and the remaining entries
    always form whole pairs.  Members are in lexicographic order.  Cells are
    ordered by label size and then lexicographically, so cells sharing a
    free-entry count are grouped together.
    """
    check_domain(n, k)
    cells: dict[IndexTuple, list[IndexTuple]] = {}
    for t in index_tuples(k - 2, 2 * n):
        cells.setdefault(pair_free_part(t, n), []).append(t)
    ordered = sorted(cells, key=lambda lab: (len(lab), lab))
    return tuple((lab, tuple(cells[lab])) for lab in ordered)
