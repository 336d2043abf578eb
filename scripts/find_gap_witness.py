#!/usr/bin/env python3
"""Search the connected-graph census for graphs whose weighted packing
optimum strictly beats every binary packing at the same budget.

Prints the first (smallest) witnesses found, one line each.
"""

import argparse

from kpacking import enumerate_connected_graphs, solve_kpf, solve_limited_packing
from kpacking.families import KNOWN_CENSUS_COUNTS


def run(min_nodes: int, max_nodes: int, budgets: tuple[int, ...], limit: int) -> int:
    """Print the first ``limit`` gap witnesses with ``min_nodes`` to
    ``max_nodes`` nodes and a budget in ``budgets``; return how many."""
    found = 0
    for n in range(min_nodes, max_nodes + 1):
        for g in enumerate_connected_graphs(n):
            for k in budgets:
                weighted = solve_kpf(g, k)
                binary = solve_limited_packing(g, k).optimum
                if weighted.optimum > binary:
                    edges = " ".join(f"{u}-{v}" for u, v in g.edges())
                    values = ",".join(map(str, weighted.witness.values))
                    print(
                        f"n={n} k={k} weighted={weighted.optimum} binary={binary} "
                        f"edges=[{edges}] witness=({values})"
                    )
                    found += 1
                    if found >= limit:
                        return found
    return found


def budget_list(text: str) -> tuple[int, ...]:
    """argparse type for ``--k``: comma-separated positive integers."""
    try:
        budgets = tuple(int(x) for x in text.split(","))
    except ValueError:
        budgets = ()
    if not budgets or min(budgets) < 1:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated positive integers, got {text!r}"
        )
    return budgets


def node_count(text: str) -> int:
    """argparse type for ``--min-n`` and ``--max-n``: a node count the
    census covers."""
    top = max(KNOWN_CENSUS_COUNTS)
    try:
        n = int(text)
    except ValueError:
        n = 0
    if not 1 <= n <= top:
        raise argparse.ArgumentTypeError(
            f"expected a node count from 1 to {top}, got {text!r}"
        )
    return n


def positive_int(text: str) -> int:
    """argparse type for ``--limit``: one positive integer."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    # a bare node is a degenerate witness for any k >= 2
    parser.add_argument("--min-n", type=node_count, default=2)
    parser.add_argument("--max-n", type=node_count, default=5)
    parser.add_argument(
        "--k", type=budget_list, default=(2, 3, 4), help="comma-separated budgets"
    )
    parser.add_argument("--limit", type=positive_int, default=10)
    args = parser.parse_args()
    found = run(args.min_n, args.max_n, args.k, args.limit)
    if not found:
        print("no gap witnesses in range")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
