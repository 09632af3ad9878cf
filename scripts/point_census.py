#!/usr/bin/env python3
"""Count rational points three ways: closed form, kernel search, subspace oracle."""

import argparse
import time

from isofractal import DEFAULT_BUDGET, expected_count, oracle_points, rational_points


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--instances",
        default="2,2,2 2,2,3 2,2,5 3,2,2 3,3,2 3,2,3 3,3,3",
        help="space-separated n,k,q triples",
    )
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="enumeration budget for both routes")
    parser.add_argument("--skip-oracle", action="store_true")
    args = parser.parse_args()

    for triple in args.instances.split():
        n, k, q = (int(x) for x in triple.split(","))
        expected = expected_count(n, k, q)
        started = time.perf_counter()
        found = rational_points(n, k, q, budget=args.budget)
        kernel_time = time.perf_counter() - started
        line = (f"(n={n}, k={k}, q={q})  closed form {expected}; "
                f"kernel search {found.count} of {found.examined} classes"
                f" [{kernel_time:.2f}s]")
        if not args.skip_oracle:
            started = time.perf_counter()
            oracle = oracle_points(n, k, q, budget=args.budget)
            oracle_time = time.perf_counter() - started
            line += (f"; oracle {oracle.count} of {oracle.examined} nodes"
                     f" [{oracle_time:.2f}s]"
                     f" sets {'agree' if oracle.points == found.points else 'DIFFER'}")
        print(line)


if __name__ == "__main__":
    main()
