#!/usr/bin/env python3
"""Count rational points three ways: closed form, kernel search, subspace oracle.

``--admitted`` instead prints, one ``n,k,q`` per line and without building
anything, every instance that the held-point limit admits, so that its output
can feed ``--instances``.  The grid search over n, k and prime q stops because
the held coordinates, C(2n, k) times the point count, grow with q and with n:
the count is a polynomial in q with nonnegative coefficients, and a larger n
embeds each isotropic subspace of the smaller space.  So q stops at the first
prime refused for (n, k), and n at the first n that admits no k even at q = 2;
past it (n + 1, k) holds more than (n, k) for each k <= n, and (n + 1, n + 1)
more than (n, n).
"""

import argparse
import time
from itertools import count

from isofractal import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    expected_count,
    oracle_points,
    rational_points,
)
from isofractal.variety import _refuse_held_points


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


def admitted():
    """The (n, k, q) the held-point limit admits, by ascending n, k and q."""
    for n in count(2):
        found = []
        for k in range(2, n + 1):
            for q in count(2):
                try:
                    _refuse_held_points(n, k, q)
                except BudgetExceededError:
                    break
                except ValueError:  # q is not prime
                    continue
                found.append((n, k, q))
        if not found:
            return
        yield from found


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
    parser.add_argument("--admitted", action="store_true",
                        help="only print the admitted n,k,q triples, one a line")
    args = parser.parse_args()
    if args.admitted:
        for n, k, q in admitted():
            print(f"{n},{k},{q}")
        return

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
