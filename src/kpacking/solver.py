"""Exact solvers for packing optimization over closed neighbourhoods.

Three variants of the same constraint system "sum over every closed
neighbourhood at most k":

* integer values in {0..k}  (the main invariant, solved by branch and bound)
* binary values             (the limited variant)
* rational values in [0,1]^n scaled by k  (the linear relaxation, read
  exactly from the fractional supports of the unit polytope)
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_

from .errors import CapExceededError, ConsistencyError
from .graphs import Graph, _bits, closed_neighbourhood_matrix
from .perfection import (
    ODD_HOLE_NODE_CAP,
    PerfectionReport,
    _polytope_facts,
    perfection_report,
)

SOLVER_NODE_CAP = 24
SOLVER_EXPLORED_CAP = 5 * 10**6  # children counted by one branch-and-bound run
# A run keys its nodes for the subtree memo only once it has counted this many
# children.  Keying every node from the start made the median packing
# benchmark op about 20% slower, as most searches are too small to repeat a
# subtree.
SOLVER_MEMO_THRESHOLD = 1000
# The memo takes no entries beyond this many, about 150 B each.  Unbounded,
# a capped wide search such as solve_kpf(cycle(7), 40) kept 259,885 of them
# (RSS 54 MB against 19 MB); no packing benchmark instance needs over 3,440.
SOLVER_MEMO_ENTRIES = 16384
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


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError("the packing bound k must be a positive integer")


def _branch_and_bound(g: Graph, k: int, unit_values: bool) -> SolveResult:
    """Depth-first search over the nodes by decreasing degree, each node
    trying its values from the largest feasible one down to 0.

    Giving value t to the node at depth i is one explored child.  A node
    counts all of its children, t from its value cap down to 0, when the
    search enters it, whether they are searched or pruned.  A child is
    searched only if ``total + t + min(pooled, capped)`` beats the
    incumbent:

    * ``pooled`` is the slack left in all n rows divided by the smallest
      closed neighbourhood among the nodes still to assign.  The rows
      shrink with depth, so that is the last row at every depth.  The slack
      is passed down the recursion: it starts at ``n * k`` and each
      assignment takes ``t * |N[u]|`` from it.
    * ``capped`` is the sum of the value caps of the nodes after depth i, a
      node's cap being the least of ``top`` and the residuals over its
      closed neighbourhood.  ``dfs`` gets the sum of the caps over depths
      i, i+1, ... as ``ahead``, so ``later = ahead - cap_i`` is the sum
      before t is placed.  Value t lowers the residuals of ``rows[i]``
      only, so a later row that misses ``rows[i]`` keeps its cap.  A later
      row j that meets ``rows[i]`` gets the cap ``min(a_j, b_j - t)``:
      ``a_j`` is the least of ``top`` and its residuals outside
      ``rows[i]``, and ``b_j`` its least residual inside.  So t lowers
      that cap by ``max(0, t - s_j)``, with the slack
      ``s_j = max(0, b_j - a_j)``, and ``capped`` is ``later`` less these
      drops over the meeting rows.  A searched child gets its ``capped``
      as its ``ahead``.

    All of this is lazy, so that a small search pays for little of it.  The
    meeting rows of depth i are listed once per solve, and a node reads
    their slacks once, both when a child first needs its bound.  A child
    then costs O(meeting rows) instead of O(later rows).  Until the first
    incumbent no child needs a bound, so the first dive passes ``ahead``
    None down.  A node that got None takes ``(n - i - 1) * top`` for
    ``later`` and sums the later caps only when it reads its slacks.

    ``later`` is at least every child's ``capped``, and ``need`` grows as t
    falls, so once ``later <= need`` the child and every smaller t are
    pruned at once.  At the last depth ``later`` is 0, so no leaf is
    searched unless it beats the incumbent.

    Once a run has counted ``SOLVER_MEMO_THRESHOLD`` children it replays
    repeated subtrees from a memo.  A node at depth i is keyed by
    ``(i, best_value - total, slack)`` and the residuals of its frontier
    rows: the rows that a depth before i enters and a depth from i on
    enters.  Rows that only later depths enter still hold k, and rows that
    only earlier depths enter are never read again.  Every choice in the
    subtree reads only these values, ``ahead``, ``best_value`` relative to
    ``total``, and the per-solve constants, so two nodes with one key search
    the same subtree until it first beats the incumbent.  ``ahead`` is no
    part of the key because the key fixes it: at a keyed node it is the
    exact sum of the caps of depths i onward, and those caps read only the
    frontier rows and rows still holding k.  A subtree that
    left ``best_value`` unchanged is stored with the children it counted,
    and a later node with the same key adds that count and returns: its own
    search would have counted as many children and changed nothing.  A node
    that got ``ahead`` None always beats the incumbent, so it is never
    keyed.  The memo stops taking entries at ``SOLVER_MEMO_ENTRIES``; which
    subtrees it holds changes the time of a run, never its result or its
    count.

    Once the count passes ``SOLVER_EXPLORED_CAP`` the search raises
    ``CapExceededError``.  The search tree does not depend on the count, and
    a replay adds a subtree's whole count before the check, so it raises
    exactly when the whole search would count more.
    """
    _check_k(k)
    if g.n > SOLVER_NODE_CAP:
        raise CapExceededError(f"solver capped at {SOLVER_NODE_CAP} nodes")
    explored_cap = SOLVER_EXPLORED_CAP
    over = f"solver explored more than {explored_cap} nodes"
    n = g.n
    adj = g.adj
    # 0-based node indices by decreasing degree; sorted() keeps ties ascending
    negative_degree = [-mask.bit_count() for mask in adj]
    order = sorted(range(n), key=negative_degree.__getitem__)
    # per depth: the 0-based rows of N[order[i]], i.e. the constraints it
    # enters, as a mask with bit v set for row v and as a list
    masks = [adj[u] | 1 << u for u in order]
    rows = [[v for v in range(n) if mask >> v & 1] for mask in masks]
    # the rows shrink with depth, so the last is the smallest among the nodes
    # still to assign at every depth
    smallest = len(rows[-1])
    top = 1 if unit_values else k
    # per depth i, once a child there needs its bound: the later rows that
    # meet rows[i]
    meeting: list[list[list[int]] | None] = [None] * n
    # per depth i, once the memo first keys a node there: its frontier rows
    frontier: list[list[int] | None] = [None] * n
    # subtree key -> the children it counted; None until the count first
    # passes SOLVER_MEMO_THRESHOLD
    memo: dict[tuple[int, ...], int] | None = None
    limit = min(SOLVER_MEMO_THRESHOLD, explored_cap)
    residual = [k] * n
    at = residual.__getitem__
    assignment = [0] * n
    best_value = -1
    best: tuple[int, ...] | None = None
    explored = 0

    def dfs(i: int, total: int, slack: int, ahead: int | None) -> None:
        nonlocal best_value, best, explored, memo, limit
        if i == n:
            if total > best_value:
                best_value = total
                best = tuple(assignment)
            return
        key = None
        if memo is not None and ahead is not None:
            front = frontier[i]
            if front is None:
                both = reduce(or_, masks[:i], 0) & reduce(or_, masks[i:], 0)
                front = frontier[i] = [v for v in range(n) if both >> v & 1]
            key = (i, best_value - total, slack, *map(at, front))
            counted = memo.get(key)
            if counted is not None:
                explored += counted
                if explored > explored_cap:
                    raise CapExceededError(over)
                return
            incumbent = best_value
            start = explored
        row = rows[i]
        size = len(row)
        cap = min(top, *map(at, row))
        # the children t = cap..0, searched or pruned
        explored += cap + 1
        if explored > limit:
            if explored > explored_cap:
                raise CapExceededError(over)
            # past the threshold: key the nodes entered from now on
            memo = {}
            limit = explored_cap
        # at least every child's capped: caps only fall as t grows
        later = (n - i - 1) * top if ahead is None else ahead - cap
        # s_j of each meeting row that some t <= cap can lower, read when a
        # child first needs its bound; every searched child restores the
        # residuals, so they hold for all children
        slacks = None
        for t in range(cap, -1, -1):
            # search the child only if min(pooled, capped) > need
            need = best_value - total - t
            if later <= need:
                # capped <= later <= need prunes this child, and each
                # smaller t has a larger need
                break
            child_slack = slack - t * size
            capped = None
            if need >= 0:
                if child_slack // smallest <= need:
                    continue
                if slacks is None:
                    if ahead is None:
                        # the exact sum, which the search below passes on
                        later = sum(min(top, *map(at, other)) for other in rows[i + 1:])
                    mask = masks[i]
                    meets = meeting[i]
                    if meets is None:
                        meets = meeting[i] = [
                            rows[j] for j in range(i + 1, n) if masks[j] & mask
                        ]
                    slacks = []
                    for other in meets:
                        a = top
                        b = k
                        for v in other:
                            r = residual[v]
                            if mask >> v & 1:
                                if r < b:
                                    b = r
                            elif r < a:
                                a = r
                        if b - a < cap:
                            slacks.append(b - a if b > a else 0)
                capped = later
                for s_j in slacks:
                    if t > s_j:
                        capped -= t - s_j
                if capped <= need:
                    continue
            assignment[i] = t
            if t:
                for v in row:
                    residual[v] -= t
            dfs(i + 1, total + t, child_slack, capped)
            if t:
                for v in row:
                    residual[v] += t
        if key is not None and best_value == incumbent and len(memo) < SOLVER_MEMO_ENTRIES:
            memo[key] = explored - start

    dfs(0, 0, n * k, n * top)
    # dfs holds itself through its closure; dropping the name frees the
    # search state now instead of at the next cyclic garbage collection
    del dfs
    assert best is not None
    values = [0] * n
    for i, u in enumerate(order):
        values[u] = best[i]
    return SolveResult(
        optimum=best_value,
        witness=PackingFunction(tuple(values), k),
        node_order=tuple([u + 1 for u in order]),
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
    _check_k(k)
    states = (top + 1) ** g.n
    if states > BRUTEFORCE_STATE_CAP:
        raise CapExceededError(
            f"brute force needs {states} states, cap is {BRUTEFORCE_STATE_CAP}"
        )
    # the 0-based nodes of each closed neighbourhood, listed once per call
    rows = [tuple(u - 1 for u in _bits(g.closed_mask(v))) for v in g.nodes()]
    best_value = -1
    best: tuple[int, ...] | None = None
    explored = 0
    for values in itertools.product(range(top, -1, -1), repeat=g.n):
        explored += 1
        for row in rows:
            load = 0
            for u in row:
                load += values[u]
            if load > k:
                break
        else:
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
    the vertices of the unit polytope of N[g].  Returns (value, unit vertex),
    the vertex being the first with the best sum in sorted vertex order.
    Both come from ``_polytope_facts``; no vertex is listed.
    """
    _check_k(k)
    _, unit, point = _polytope_facts(closed_neighbourhood_matrix(g))
    return k * unit, point


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
