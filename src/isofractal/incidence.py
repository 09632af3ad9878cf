"""Incidence matrices of configurations over the symplectic pair set.

For even k the configuration has ground set C(k/2 pairs of n) and one subset
per (k-2)/2-tuple of pairs, namely all its one-pair extensions.
``incidence_matrix`` builds its incidence matrix as the containment matrix
between (k/2 - 1)-subsets and (k/2)-subsets of the pair indices [n], rows and
columns in lexicographic order, from each row label's one-element extensions;
it is the one place the containment relation is computed.  Odd k is served by
the same containment matrix at floor parameters, which is the form in which
odd blocks occur inside the big linear system.

In lexicographic order every incidence matrix is a member of the recursive
family bit for bit: ``incidence_matrix(n, k)`` equals
A(n - floor((k-2)/2), floor(k/2)).  ``verify_incidence_fractal_match`` checks
this by plain equality.  The nested triangle enumeration of the square case's
row labels (grouped by their first (m-6)/2 entries, then by the two trailing
entries) is the lexicographic order itself, so it needs no separate check.
"""

from __future__ import annotations

from .bitmatrix import BinaryMatrix, check_size
# Unused here; the benchmark's traced passes rebind this module attribute.
from .bitmatrix import permutation_equivalent  # noqa: F401
from .combinat import check_domain, index_tuples
from .fractal import fractal_matrix


def incidence_matrix(n: int, k: int) -> BinaryMatrix:
    """Containment matrix between floor((k-2)/2)- and floor(k/2)-subsets of [n].

    Rows and columns are in lexicographic label order; the entry is 1 exactly
    when the row label's support is contained in the column label's support.
    Column labels always have one element more than row labels, so row i's
    ones are the extensions of its label by one element; only those are built.
    For even k this is the incidence matrix of the pair-tuple configuration:
    row i marks the one-pair extensions of the i-th (k-2)/2-tuple of pairs.
    Sides or ones past the size limit raise ``ValueError``
    (``bitmatrix.check_size``) before any label is listed.
    """
    check_domain(n, k)
    low = (k - 2) // 2
    check_size(f"the (n={n}, k={k}) incidence matrix", rows=(n, low), cols=(n, low + 1),
               ones=(n - low, n, low))
    row_labels = index_tuples(low, n)
    col_index = {b: j for j, b in enumerate(index_tuples(low + 1, n))}
    # extending a label by a larger element gives a lexicographically larger
    # column label, so each row comes out in ascending column order
    adj = tuple(
        tuple(col_index[tuple(sorted(a + (e,)))] for e in range(1, n + 1) if e not in a)
        for a in row_labels
    )
    return BinaryMatrix(len(row_labels), len(col_index), adj)


def verify_configuration(n: int, k: int) -> dict:
    """Check the structural laws of the even-k configuration matrix.

    Row weight n - (k-2)/2, column weight k/2, pairwise row intersections of
    at most one column, pairwise distinct rows, the neighbor criterion (two
    rows share a column exactly when their labels overlap in (k-4)/2 entries).
    Failures are report entries; the density is reported as a plain value.
    """
    check_domain(n, k)
    if k % 2:
        raise ValueError(f"configuration checks need even k, got {k}")
    m = incidence_matrix(n, k)
    label_sets = [set(label) for label in index_tuples((k - 2) // 2, n)]
    supports = [set(row) for row in m.row_adj]

    expected_row_weight = n - (k - 2) // 2
    row_weight_ok = all(len(s) == expected_row_weight for s in supports)
    col_weight_ok = all(w == k // 2 for w in m.col_weights())

    intersections_ok = True
    neighbor_ok = True
    overlap_target = (k - 4) // 2  # negative for k = 2, where there is one row
    for i, (support, label) in enumerate(zip(supports, label_sets)):
        for j in range(i + 1, m.rows):
            shared = len(support & supports[j])
            if shared > 1:
                intersections_ok = False
            if (shared > 0) != (len(label & label_sets[j]) == overlap_target):
                neighbor_ok = False

    distinct_ok = len({frozenset(s) for s in supports}) == m.rows

    report = {
        "n": n,
        "k": k,
        "rows": m.rows,
        "cols": m.cols,
        "row_weight_ok": row_weight_ok,
        "col_weight_ok": col_weight_ok,
        "intersections_ok": intersections_ok,
        "rows_distinct_ok": distinct_ok,
        "neighbor_criterion_ok": neighbor_ok,
        "density": m.density,
    }
    report["passed"] = all(
        report[key]
        for key in ("row_weight_ok", "col_weight_ok", "intersections_ok",
                    "rows_distinct_ok", "neighbor_criterion_ok")
    )
    return report


def verify_incidence_fractal_match(m: int, n_max: int = 10) -> dict:
    """Check that incidence matrices are members of the recursive family, bit for bit.

    For the square case of size ``m`` (even, 8 to 12), with r = (m+2)/2: the
    lex-ordered matrix, whose row order is also the triangle order, must
    equal A(r, r-1).  For all 2 <= k <= n <= n_max: incidence_matrix(n, k)
    must equal A(n - floor((k-2)/2), floor(k/2)).  Equality is a stronger
    claim than permutation equivalence, so no witness search is needed.
    """
    if m % 2 or not 8 <= m <= 12:
        raise ValueError(f"need an even m with 8 <= m <= 12, got {m}")
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    r = (m + 2) // 2
    square = incidence_matrix(m, m)
    square_equal = square == fractal_matrix(r, r - 1)
    sweep = [
        {"n": n, "k": k,
         "equal": incidence_matrix(n, k) == fractal_matrix(n - (k - 2) // 2, k // 2)}
        for n in range(2, n_max + 1)
        for k in range(2, n + 1)
    ]
    return {
        "m": m,
        "square_shape": (square.rows, square.cols),
        "square_equal": square_equal,
        "sweep": sweep,
        "passed": square_equal and all(e["equal"] for e in sweep),
    }
