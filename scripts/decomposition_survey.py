#!/usr/bin/env python3
"""Survey the block structure of the linear system across a parameter grid.

For each (n, k) the blocks of the coefficient matrix support are built from
the pair-free labels and checked against the recursive family; the census, the
zero-column count, the kernel dimension of the signed system over GF(2) and
GF(3), and any divergence from the pair-indexed census baseline are printed,
with the decomposition time and the kernel time apart.  The tracemalloc peak
of ``decompose`` is read off a second, traced call, so the printed time is
untraced.
"""

import argparse
import time
import tracemalloc

from isofractal import PrimeField, decompose, plucker_matrix, rref


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=6)
    args = parser.parse_args()

    for n in range(2, args.n_max + 1):
        for k in range(2, n + 1):
            started = time.perf_counter()
            report = decompose(n, k)
            decomposed = time.perf_counter()
            tracemalloc.start()
            decompose(n, k)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            started_kernel = time.perf_counter()
            pm = plucker_matrix(n, k, signed=True)
            kernel_dims = {}
            for p in (2, 3):
                m = pm.field_matrix(PrimeField(p))
                pivots, _ = rref(m)
                kernel_dims[p] = m.ncols - len(pivots)
            finished = time.perf_counter()
            census = ", ".join(
                f"{count} x A({a},{b})"
                for (a, b), count in sorted(report.block_census().items())
            )
            print(f"(n={n}, k={k})  {census}; {len(report.zero_columns)} zero columns;"
                  f" kernel dim {kernel_dims[2]} over GF(2), {kernel_dims[3]} over GF(3)"
                  f"  [decompose {decomposed - started:.2f}s, peak {peak / 2**20:.2f} MB,"
                  f" kernel {finished - started_kernel:.2f}s]")
            for flag in report.flags:
                print(f"    flag: {flag}")


if __name__ == "__main__":
    main()
