#!/usr/bin/env python3
"""Count rational points three ways: closed form, kernel search, subspace oracle.

Each instance gets one line; a last line counts, per route, the instances on
which it found ``expected_count`` points and, where both routes ran, the same
points, compared cell by cell: ``oracle a/b, kernel route c/b`` (the oracle
left out under ``--skip-oracle``).  Each route of each instance runs in a
process of its own, so the peak resident memory printed beside its time, the
VmHWM of Linux's /proc/self/status, is that route's alone, the interpreter and
numpy included.

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
import multiprocessing
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


def peak_mb() -> float:
    """This process's peak resident memory, VmHWM, in MB."""
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024


def run_route(route, n: int, k: int, q: int, budget: int):
    """One route's point set, or None if it refused, and its report."""
    started = time.perf_counter()
    try:
        found = route(n, k, q, budget=budget)
    except BudgetExceededError as refusal:
        found, text = None, f"refused ({refusal})"
    else:
        text = f"{found.count} of {found.examined} nodes"
    return found, f"{text} [{time.perf_counter() - started:.2f}s, peak {peak_mb():.1f} MB]"


def run_alone(pool_context, *args):
    """``run_route`` in a fresh process, which exits once it returns."""
    with pool_context.Pool(1) as pool:
        return pool.apply(run_route, args)


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

    instances = args.instances.split()
    spawn = multiprocessing.get_context("spawn")
    oracle_right = kernel_right = 0
    for triple in instances:
        n, k, q = (int(x) for x in triple.split(","))
        expected = expected_count(n, k, q)
        found, text = run_alone(spawn, rational_points, n, k, q, args.budget)
        line = f"(n={n}, k={k}, q={q})  closed form {expected}; kernel search {text}"
        oracle, agree = None, True
        if not args.skip_oracle:
            oracle, text = run_alone(spawn, oracle_points, n, k, q, args.budget)
            line += f"; oracle {text}"
            if found is not None and oracle is not None:
                agree = oracle.same_points(found)
                line += f" sets {'agree' if agree else 'DIFFER'}"
        oracle_right += oracle is not None and oracle.count == expected and agree
        kernel_right += found is not None and found.count == expected and agree
        print(line)
    summary = f"kernel route {kernel_right}/{len(instances)}"
    print(summary if args.skip_oracle else f"oracle {oracle_right}/{len(instances)}, {summary}")


if __name__ == "__main__":
    main()
