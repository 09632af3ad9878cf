#!/usr/bin/env python3
"""Count rational points three ways: closed form, kernel search, subspace oracle."""

import argparse
import time

from isofractal import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    expected_count,
    oracle_points,
    rational_points,
)


def run_route(route, n: int, k: int, q: int, budget: int):
    """One route's point set, or None if it refused, and its report."""
    started = time.perf_counter()
    try:
        found = route(n, k, q, budget=budget)
    except BudgetExceededError as refusal:
        found, text = None, f"refused ({refusal})"
    else:
        text = f"{found.count} of {found.examined} nodes"
    return found, f"{text} [{time.perf_counter() - started:.2f}s]"


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
        found, text = run_route(rational_points, n, k, q, args.budget)
        line = f"(n={n}, k={k}, q={q})  closed form {expected}; kernel search {text}"
        if not args.skip_oracle:
            oracle, text = run_route(oracle_points, n, k, q, args.budget)
            line += f"; oracle {text}"
            if found is not None and oracle is not None:
                line += f" sets {'agree' if oracle.points == found.points else 'DIFFER'}"
        print(line)


if __name__ == "__main__":
    main()
