"""Reference helpers and oracles that only the tests use."""

import itertools
import math
from fractions import Fraction

import kpacking.solver
from kpacking import (
    BinaryMatrix,
    CapExceededError,
    Graph,
    PackingFunction,
    SolveResult,
    find_induced_cycle,
    is_isomorphic,
    polytope_vertices,
    three_sun,
)
from kpacking.graphs import _bit, _bits
from kpacking.perfection import VERTEX_ENUMERATION_COLUMN_CAP, _eliminate

TOTALLY_BALANCED_COLUMN_CAP = 16


def neighbours(g: Graph, v: int) -> tuple[int, ...]:
    return tuple(_bits(g.adj[v - 1]))


def degree_sequence(g: Graph) -> tuple[int, ...]:
    return tuple(sorted(row.bit_count() for row in g.adj))


def row_support(m: BinaryMatrix, i: int) -> tuple[int, ...]:
    return tuple(_bits(m.row_masks[i - 1]))


def induced_subgraph(g: Graph, nodes) -> Graph:
    """Subgraph induced by ``nodes``, relabelled 1..|nodes| in sorted label order."""
    sel = sorted(set(nodes))
    if not sel:
        raise ValueError("node subset must be nonempty")
    if sel[0] < 1 or sel[-1] > g.n:
        raise ValueError(f"node subset out of range 1..{g.n}")
    pos = {v: i + 1 for i, v in enumerate(sel)}
    adj = [0] * len(sel)
    for v in sel:
        for u in _bits(g.adj[v - 1]):
            if u in pos:
                adj[pos[v] - 1] |= _bit(pos[u])
    return Graph(len(sel), tuple(adj))


def relabel(g: Graph, mapping: dict[int, int]) -> Graph:
    """Apply a bijection old-label -> new-label."""
    if sorted(mapping) != list(g.nodes()) or sorted(mapping.values()) != list(g.nodes()):
        raise ValueError("mapping must be a bijection on 1..n")
    return Graph.from_edges(g.n, [(mapping[u], mapping[v]) for u, v in g.edges()])


def brute_canonical_code(g: Graph) -> tuple[int, ...]:
    """Isomorphism oracle: the least upper-triangle adjacency tuple over all
    n! relabellings.  Two graphs get the same code iff they are isomorphic.
    Intended for n <= 7.
    """
    edges = set(g.edges())
    pairs = list(itertools.combinations(range(1, g.n + 1), 2))
    return min(
        tuple(int(tuple(sorted((p[u - 1], p[v - 1]))) in edges) for u, v in pairs)
        for p in itertools.permutations(range(1, g.n + 1))
    )


def maximal_cliques_bruteforce(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Reference oracle: scan all 2^n node subsets.  Intended for n <= 7."""
    cliques = []
    for size in range(1, g.n + 1):
        for members in itertools.combinations(g.nodes(), size):
            if not all(g.has_edge(u, v) for u, v in itertools.combinations(members, 2)):
                continue
            # maximal iff no outside node is adjacent to every member
            if any(
                all(g.has_edge(w, u) for u in members)
                for w in g.nodes()
                if w not in members
            ):
                continue
            cliques.append(members)
    return tuple(sorted(cliques))


def reference_kind(sub: Graph):
    """Obstruction kind of a whole 4-, 5- or 6-node graph, from its degree
    sequence, an induced cycle search and an isomorphism test against the
    3-sun: "cycle<n>", "sun" or None.
    """
    degs = degree_sequence(sub)
    if all(d == 2 for d in degs):
        # a 2-regular graph is one cycle iff a chordless cycle covers it
        if find_induced_cycle(sub, min_length=sub.n) is None:
            return None
        return f"cycle{sub.n}"
    if degs == (2, 2, 2, 4, 4, 4) and is_isomorphic(sub, three_sun()):
        return "sun"
    return None


def reference_screen(g: Graph):
    """Reference structural screen: build the induced subgraph of every 4-,
    5- and 6-node subset and classify it with ``reference_kind``.

    Returns (verdict, obstruction kind, obstruction nodes, dominated) in the
    shape of the library's structural certificate.
    """
    dominated = []
    for size in (4, 5, 6):
        for subset in itertools.combinations(g.nodes(), size):
            kind = reference_kind(induced_subgraph(g, subset))
            if kind is None:
                continue
            outside = [v for v in g.nodes() if v not in subset]
            dom = next(
                (v for v in outside if all(g.has_edge(v, u) for u in subset)), None
            )
            if dom is None:
                return False, kind, subset, None
            dominated.append((kind, subset, dom))
    return True, None, None, tuple(dominated)


def universal_nodes(g: Graph) -> tuple[int, ...]:
    """Nodes adjacent to every other node, ascending."""
    full = (1 << g.n) - 1
    return tuple(v for v in g.nodes() if g.adj[v - 1] == full & ~_bit(v))


def is_chordal(g: Graph) -> bool:
    """True iff the graph admits a perfect elimination ordering.

    Greedy simplicial-node removal; correct because chordal graphs always
    contain a simplicial node and stay chordal under node deletion.
    """
    active = (1 << g.n) - 1
    remaining = g.n
    while remaining:
        for v in _bits(active):
            nb = g.adj[v - 1] & active
            if all(nb & ~_bit(u) & ~g.adj[u - 1] == 0 for u in _bits(nb)):
                active &= ~_bit(v)
                remaining -= 1
                break
        else:
            return False
    return True


def is_totally_balanced(m: BinaryMatrix) -> bool:
    """True iff no row/column submatrix is the node-edge incidence matrix of a
    cycle of length >= 3; equivalently the bipartite row/column incidence graph
    has no induced cycle of length >= 6.
    """
    if m.cols > TOTALLY_BALANCED_COLUMN_CAP:
        raise CapExceededError(
            f"total balancedness capped at {TOTALLY_BALANCED_COLUMN_CAP} columns"
        )
    edges = [
        (i, m.rows + j)
        for i in range(1, m.rows + 1)
        for j in row_support(m, i)
    ]
    bip = Graph.from_edges(m.rows + m.cols, edges)
    return find_induced_cycle(bip, min_length=6) is None


def tight_constraint_rank(m: BinaryMatrix, point: tuple[Fraction, ...]) -> int:
    """Rank of the constraints the point satisfies with equality (rows at 1,
    coordinates at either bound).  Vertices have rank equal to the dimension.

    Ranks by Gauss-Jordan elimination over Fraction, independently of the
    library's integer kernel.
    """
    n = m.cols
    rows = [
        [Fraction((mk >> j) & 1) for j in range(n)]
        for mk in m.row_masks
        if sum(point[j - 1] for j in _bits(mk)) == 1
    ]
    rows += [
        [Fraction(int(i == j)) for i in range(n)]
        for j, c in enumerate(point)
        if c == 0 or c == 1
    ]
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        for r, row in enumerate(rows):
            if r != rank and row[col]:
                f = row[col] / prow[col]
                rows[r] = [x - f * y for x, y in zip(row, prow)]
        rank += 1
    return rank


def reference_fractional_supports(m: BinaryMatrix):
    """``perfection._fractional_supports`` with no skip rule and no shared
    solve: every one of the 2**n supports scans every distinct row, and each
    support with enough maximal rows solves its own system.  The result is
    the same ``(conflict, den, starts)``; only the order of the starts within
    one support may differ.
    """
    cap = VERTEX_ENUMERATION_COLUMN_CAP
    if m.cols > cap:
        raise CapExceededError(f"vertex enumeration capped at {cap} columns")
    n = m.cols
    row_masks = sorted(set(m.row_masks))
    conflict = [0] * n
    for mk in row_masks:
        for j in _bits(mk):
            conflict[j - 1] |= mk & ~_bit(j)

    # (F, its columns, its solutions as (numerators, denominator)) per support
    fractional: list[tuple[int, tuple[int, ...], set[tuple[tuple[int, ...], int]]]] = []
    for fmask in range(3, 1 << n):
        size = fmask.bit_count()
        if size < 2:
            continue
        restricted = []
        covered = 0
        for mk in row_masks:
            x = mk & fmask
            if x == fmask:
                # F itself would be the only maximal row
                restricted = []
                break
            if x.bit_count() >= 2 and x not in restricted:
                restricted.append(x)
                covered |= x
        if len(restricted) < size or covered != fmask:
            continue
        # by popcount descending, so each row comes after all of its supersets
        restricted.sort(key=int.bit_count, reverse=True)
        maximal: list[int] = []
        for i, x in enumerate(restricted):
            if len(maximal) + len(restricted) - i < size:
                break
            if not any(x & y == x for y in maximal):
                maximal.append(x)
        if len(maximal) < size:
            continue
        cols = tuple(_bits(fmask))
        # per maximal row: its 0/1 coefficients on F and the positions it meets
        coeffs = [[(x >> (c - 1)) & 1 for c in cols] for x in maximal]
        meets = [[i for i, a in enumerate(row) if a] for row in coeffs]
        solutions = set()
        for basis in itertools.combinations(range(len(maximal)), size):
            rows = [coeffs[b] + [1] for b in basis]
            if len(_eliminate(rows, size)) < size:
                continue
            # row i now reads rows[i][i] * x_i = rows[i][size], in lowest terms
            den = math.lcm(*(row[i] for i, row in enumerate(rows)))
            nums = tuple(row[size] * (den // row[i]) for i, row in enumerate(rows))
            if any(not 0 < a < den for a in nums):
                continue
            # the solution is positive, so rows inside a maximal row hold too
            if any(sum(nums[i] for i in at) > den for at in meets):
                continue
            solutions.add((nums, den))
        if solutions:
            fractional.append((fmask, cols, solutions))
    den = math.lcm(1, *(d for _, _, sols in fractional for _, d in sols))
    full = (1 << n) - 1
    starts = [((0,) * n, 0, full)]
    for fmask, cols, sols in fractional:
        closure = fmask
        for j in cols:
            closure |= conflict[j - 1]
        for nums, d in sols:
            point = [0] * n
            for j, a in zip(cols, nums):
                point[j - 1] = a * (den // d)
            starts.append((tuple(point), sum(point), full & ~closure))
    return conflict, den, starts


def reference_polytope_facts(m: BinaryMatrix):
    """(verdict, first fractional vertex or None, largest coordinate sum,
    first vertex with that sum), read off the full sorted vertex list of
    ``polytope_vertices``: the polytope is integral iff no vertex is
    fractional.
    """
    vertices = polytope_vertices(m)
    fractional = next(
        (p for p in vertices if any(c.denominator != 1 for c in p)), None
    )
    # max() keeps the first maximizer of the sorted list
    best = max(vertices, key=sum)
    return fractional is None, fractional, sum(best), best


def reference_branch_and_bound(g: Graph, k: int, unit_values: bool) -> SolveResult:
    """The branch-and-bound search with the value caps summed from the
    residuals for every child: same node order, child order, pruning rule
    and caps as ``solver._branch_and_bound``, so the two must agree on the
    optimum, the witness and the explored count.
    """
    if k < 1:
        raise ValueError("the packing bound k must be a positive integer")
    if g.n > kpacking.solver.SOLVER_NODE_CAP:
        raise CapExceededError("solver node cap")
    explored_cap = kpacking.solver.SOLVER_EXPLORED_CAP
    n = g.n
    order = sorted(g.nodes(), key=lambda v: (-g.degree(v), v))
    rows = [[v - 1 for v in _bits(g.closed_mask(u))] for u in order]
    min_suffix_size = [len(row) for row in rows]
    for i in range(n - 2, -1, -1):
        min_suffix_size[i] = min(min_suffix_size[i], min_suffix_size[i + 1])
    suffix_rows = [rows[i:] for i in range(n + 1)]
    top = 1 if unit_values else k
    residual = [k] * n
    at = residual.__getitem__
    assignment = [0] * n
    best_value = -1
    best = None
    explored = 0

    def caps_exceed(j, need):
        capped = 0
        for row in suffix_rows[j]:
            capped += min(top, *map(at, row))
            if capped > need:
                return True
        return False

    def dfs(i, total, slack):
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
                raise CapExceededError(f"solver explored more than {explored_cap} nodes")
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
    values = [0] * n
    for i, v in enumerate(order):
        values[v - 1] = best[i]
    return SolveResult(
        optimum=best_value,
        witness=PackingFunction(tuple(values), k),
        node_order=tuple(order),
        explored=explored,
    )
