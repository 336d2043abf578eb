"""Exact solvers for packing optimization over closed neighbourhoods.

Three variants of the same constraint system "sum over every closed
neighbourhood at most k":

* integer values in {0..k}  (the main invariant, solved by branch and bound)
* binary values             (the limited variant)
* rational values in [0,1]^n scaled by k  (the linear relaxation, solved by
  enumerating polytope vertices exactly)
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceededError, ConsistencyError
from .graphs import Graph, _bits, closed_neighbourhood_matrix
from .perfection import (
    ODD_HOLE_NODE_CAP,
    PerfectionReport,
    perfection_report,
    polytope_vertices,
)

SOLVER_NODE_CAP = 24
SOLVER_EXPLORED_CAP = 5 * 10**6  # children tried by one branch-and-bound run
BRUTEFORCE_STATE_CAP = 10**8


@dataclass(frozen=True)
class PackingFunction:
    """Node values (indexed by label order) together with the bound k."""

    values: tuple[int, ...]
    k: int

    def objective(self) -> int:
        return sum(self.values)

    def is_binary(self) -> bool:
        return all(v in (0, 1) for v in self.values)

    def is_feasible(self, g: Graph) -> bool:
        if len(self.values) != g.n:
            return False
        if any(not 0 <= v <= self.k for v in self.values):
            return False
        return all(
            sum(self.values[u - 1] for u in _bits(g.closed_mask(v))) <= self.k
            for v in g.nodes()
        )


@dataclass(frozen=True)
class SolveResult:
    optimum: int
    witness: PackingFunction
    node_order: tuple[int, ...]
    explored: int


def _branch_and_bound(g: Graph, k: int, unit_values: bool) -> SolveResult:
    """Depth-first search over the nodes by decreasing degree, each node
    trying its values from the largest feasible one down to 0.

    Giving value t to the node at depth i is one explored child.  It is
    searched only if ``total + t + min(pooled, capped)`` beats the incumbent:

    * ``pooled`` is the slack left in all n rows divided by the smallest
      closed neighbourhood among the nodes still to assign.  The slack is
      passed down the recursion: it starts at ``n * k`` and each assignment
      takes ``t * |N[u]|`` from it.
    * ``capped`` is the sum of the value caps of the nodes still to assign,
      a node's cap being the least residual over its closed neighbourhood.
      The sum stops as soon as it settles the comparison.

    Once more than ``SOLVER_EXPLORED_CAP`` children have been tried the search
    raises ``CapExceededError``.
    """
    if k < 1:
        raise ValueError("the packing bound k must be a positive integer")
    if g.n > SOLVER_NODE_CAP:
        raise CapExceededError(f"solver capped at {SOLVER_NODE_CAP} nodes")
    explored_cap = SOLVER_EXPLORED_CAP
    n = g.n
    order = sorted(g.nodes(), key=lambda v: (-g.degree(v), v))
    # per depth: the 0-based rows of N[order[i]], i.e. the constraints it enters
    rows = [[v - 1 for v in _bits(g.closed_mask(u))] for u in order]
    # smallest closed neighbourhood among nodes still to assign, per depth
    min_suffix_size = [len(row) for row in rows]
    for i in range(n - 2, -1, -1):
        min_suffix_size[i] = min(min_suffix_size[i], min_suffix_size[i + 1])
    # rows[j:] per depth j, built once so that no child copies a slice
    suffix_rows = [rows[i:] for i in range(n + 1)]
    top = 1 if unit_values else k
    residual = [k] * n
    at = residual.__getitem__
    assignment = [0] * n
    best_value = -1
    best: tuple[int, ...] | None = None
    explored = 0

    def caps_exceed(j: int, need: int) -> bool:
        # do the value caps of the nodes from depth j on sum to over need?
        capped = 0
        for row in suffix_rows[j]:
            capped += min(top, *map(at, row))
            if capped > need:
                return True
        return False

    def dfs(i: int, total: int, slack: int) -> None:
        nonlocal best_value, best, explored
        if i == n:
            if total > best_value:
                best_value = total
                best = tuple(assignment)
            return
        row = rows[i]
        size = len(row)
        for t in range(min(top, *map(at, row)), -1, -1):
            explored += 1
            if explored > explored_cap:
                raise CapExceededError(
                    f"solver explored more than {explored_cap} nodes"
                )
            # search the child only if min(pooled, capped) > need; both are
            # >= 0, and both are 0 once no node is left
            need = best_value - total - t
            child_slack = slack - t * size
            if need >= 0 and (
                i + 1 == n or child_slack // min_suffix_size[i + 1] <= need
            ):
                continue
            for v in row:
                residual[v] -= t
            if need < 0 or caps_exceed(i + 1, need):
                assignment[i] = t
                dfs(i + 1, total + t, child_slack)
            for v in row:
                residual[v] += t

    dfs(0, 0, n * k)
    assert best is not None
    values = [0] * n
    for i, v in enumerate(order):
        values[v - 1] = best[i]
    return SolveResult(
        optimum=best_value,
        witness=PackingFunction(tuple(values), k),
        node_order=tuple(order),
        explored=explored,
    )


def solve_kpf(g: Graph, k: int) -> SolveResult:
    """Maximum total of an integer node labeling with every closed
    neighbourhood summing to at most k.  Exact; witness is the
    lexicographically largest optimum under the returned node order.
    Raises ``CapExceededError`` above ``SOLVER_NODE_CAP`` nodes or
    ``SOLVER_EXPLORED_CAP`` explored children.
    """
    return _branch_and_bound(g, k, unit_values=False)


def solve_limited_packing(g: Graph, k: int) -> SolveResult:
    """Binary variant: same constraints, values restricted to {0,1}; same
    witness contract and caps as ``solve_kpf``."""
    return _branch_and_bound(g, k, unit_values=True)


def _exhaustive(g: Graph, k: int, top: int) -> SolveResult:
    if k < 1:
        raise ValueError("the packing bound k must be a positive integer")
    states = (top + 1) ** g.n
    if states > BRUTEFORCE_STATE_CAP:
        raise CapExceededError(
            f"brute force needs {states} states, cap is {BRUTEFORCE_STATE_CAP}"
        )
    closed = [g.closed_mask(v) for v in g.nodes()]
    best_value = -1
    best: tuple[int, ...] | None = None
    explored = 0
    for values in itertools.product(range(top, -1, -1), repeat=g.n):
        explored += 1
        if any(
            sum(values[u - 1] for u in _bits(mask)) > k for mask in closed
        ):
            continue
        total = sum(values)
        if total > best_value:
            best_value = total
            best = values
    assert best is not None
    return SolveResult(
        optimum=best_value,
        witness=PackingFunction(best, k),
        node_order=tuple(g.nodes()),
        explored=explored,
    )


def solve_kpf_bruteforce(g: Graph, k: int) -> SolveResult:
    """Independent oracle: exhaustive scan of all (k+1)^n assignments."""
    return _exhaustive(g, k, top=k)


def solve_limited_bruteforce(g: Graph, k: int) -> SolveResult:
    """Independent oracle for the binary variant: scan all 2^n assignments."""
    return _exhaustive(g, k, top=1)


# ---------------------------------------------------------------------------
# linear relaxation


def lp_relaxation(g: Graph, k: int):
    """Exact optimum of the relaxation: k times the best coordinate sum over
    the vertices of the unit polytope of N[g].  Returns (value, unit vertex).
    """
    if k < 1:
        raise ValueError("the packing bound k must be a positive integer")
    vertices = polytope_vertices(closed_neighbourhood_matrix(g))
    best_point = max(vertices, key=lambda p: p.coordinate_sum())
    # max() keeps the first maximizer of the sorted vertex list: deterministic
    return k * best_point.coordinate_sum(), best_point


# ---------------------------------------------------------------------------
# scaling identity


@dataclass(frozen=True)
class ScalingReport:
    """Comparison of the integer optimum against k times the binary optimum.

    ``neighbourhood_perfect`` is None when the graph exceeds the perfection
    caps; when it is True, ``equality`` is guaranteed and enforced.
    """

    k: int
    kpf_value: int
    limited_value: int
    l1_value: int
    k_times_l1: int
    lp_value: Fraction | None
    neighbourhood_perfect: bool | None
    equality: bool


def scaling_reports(
    g: Graph, ks: Iterable[int], rep: PerfectionReport | None
) -> tuple[ScalingReport, ...]:
    """One ``ScalingReport`` per k in ``ks``, with ``L_1`` solved once.

    ``rep`` is the caller's ``perfection_report(g)``, or None above
    ``ODD_HOLE_NODE_CAP``.  Raises ``ConsistencyError``, naming the k, when an
    optimum breaks a bound that holds for every graph or when N[g] is perfect
    and the identity fails.
    """
    l1 = solve_limited_packing(g, 1).optimum
    perfect = None if rep is None else rep.neighbourhood_matrix_perfect
    unit = None if rep is None else rep.unit_relaxation
    reports = []
    for k in ks:
        kpf = solve_kpf(g, k).optimum
        limited = solve_limited_packing(g, k).optimum
        scaled = k * l1
        lp_value = None if unit is None else k * unit
        if kpf < scaled:
            raise ConsistencyError(
                f"k={k}: integer optimum {kpf} below k times the binary optimum {scaled}"
            )
        if limited > kpf:
            raise ConsistencyError(
                f"k={k}: binary optimum {limited} above the integer optimum {kpf}"
            )
        if lp_value is not None and kpf > lp_value:
            raise ConsistencyError(
                f"k={k}: integer optimum {kpf} above the relaxation value {lp_value}"
            )
        if perfect and kpf != scaled:
            raise ConsistencyError(
                f"k={k}: perfect neighbourhood matrix but the scaling identity "
                f"failed: {kpf} != {scaled}"
            )
        reports.append(
            ScalingReport(k, kpf, limited, l1, scaled, lp_value, perfect, kpf == scaled)
        )
    return tuple(reports)


def check_scaling_identity(g: Graph, k: int) -> ScalingReport:
    """``scaling_reports`` for one k; the perfection facts are skipped above
    ``ODD_HOLE_NODE_CAP``."""
    rep = perfection_report(g) if g.n <= ODD_HOLE_NODE_CAP else None
    return scaling_reports(g, (k,), rep)[0]
