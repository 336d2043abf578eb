#!/usr/bin/env python3
"""Tabulate recognition and packing verdicts across the built-in families."""

import argparse

from kpacking import FamilySpec, Graph, perfection_report, scaling_reports

ROWS = (
    ("complete", (5,)),
    ("cycle", (4,)),
    ("cycle", (5,)),
    ("cycle", (6,)),
    ("cycle", (7,)),
    ("wheel", (6,)),
    ("wheel", (7,)),
    ("web", (6, 2)),
    ("web", (7, 2)),
    ("web", (7, 3)),
    ("three_sun", ()),
    ("pyramid", (1,)),
    ("pyramid", (2,)),
    ("pyramid", (3,)),
    ("clique_cycle", (1,)),
    ("clique_cycle", (2,)),
)


def flag(value) -> str:
    if value is None:
        return "-"
    return "yes" if value else "no"


def run(k: int) -> None:
    header = (
        f"{'family':<16} {'accepted':>8} {'gq_perf':>7} {'member':>6} "
        f"{'screen':>6} {'l1':>3} {'kpf':>4} {'k*l1':>4} {'lp':>6}"
    )
    print(header)
    print("-" * len(header))
    for name, params in ROWS:
        built = FamilySpec(name, params).build()
        if not isinstance(built, Graph):
            continue
        rep = perfection_report(built)
        (scaling,) = scaling_reports(built, (k,), rep)
        label = name if not params else f"{name}({','.join(map(str, params))})"
        print(
            f"{label:<16} {flag(rep.extended_clique_node):>8} "
            f"{flag(rep.clique_graph_perfect):>7} "
            f"{flag(rep.neighbourhood_matrix_perfect):>6} "
            f"{flag(rep.structural_verdict):>6} "
            f"{scaling.l1_value:>3} {scaling.kpf_value:>4} "
            f"{scaling.k_times_l1:>4} {str(scaling.lp_value):>6}"
        )


def positive_int(text: str) -> int:
    """argparse type for ``--k``: one positive integer."""
    try:
        k = int(text)
    except ValueError:
        k = 0
    if k < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return k


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=positive_int, default=3)
    args = parser.parse_args()
    run(args.k)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
