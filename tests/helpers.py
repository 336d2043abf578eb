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
    RecognitionCertificate,
    SolveResult,
    induced_cycles,
    is_isomorphic,
    polytope_vertices,
    three_sun,
)
from kpacking.graphs import _bit, _bits
from kpacking.perfection import VERTEX_ENUMERATION_COLUMN_CAP, _eliminate
from kpacking.recognition import _lex_less

TOTALLY_BALANCED_COLUMN_CAP = 16


def reference_bits(mask: int) -> tuple[int, ...]:
    """The 1-based labels of the set bits of ``mask``, one bit at a time."""
    out = []
    label = 1
    while mask:
        if mask & 1:
            out.append(label)
        mask >>= 1
        label += 1
    return tuple(out)


def has_edge(g: Graph, u: int, v: int) -> bool:
    return bool(g.adj[u - 1] & _bit(v))


def degree(g: Graph, v: int) -> int:
    return g.adj[v - 1].bit_count()


def neighbours(g: Graph, v: int) -> tuple[int, ...]:
    return tuple(_bits(g.adj[v - 1]))


def degree_sequence(g: Graph) -> tuple[int, ...]:
    return tuple(sorted(row.bit_count() for row in g.adj))


def reference_node_invariant(g: Graph, v: int) -> tuple[int, ...]:
    """Node v's degree, then the degrees of its neighbours in ascending order."""
    return (degree(g, v), *sorted(degree(g, u) for u in neighbours(g, v)))


def row_support(m: BinaryMatrix, i: int) -> tuple[int, ...]:
    return tuple(_bits(m.row_masks[i - 1]))


def every_row_of_size(cols: int, size: int) -> BinaryMatrix:
    """The matrix whose rows are the ``size``-column sets of ``cols`` columns,
    each once, in lexicographic order."""
    combos = itertools.combinations(range(1, cols + 1), size)
    masks = tuple(sum(_bit(j) for j in c) for c in combos)
    return BinaryMatrix(len(masks), cols, masks)


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
            if not all(has_edge(g, u, v) for u, v in itertools.combinations(members, 2)):
                continue
            # maximal iff no outside node is adjacent to every member
            if any(
                all(has_edge(g, w, u) for u in members)
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
        if next(induced_cycles(sub, min_length=sub.n), None) is None:
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
                (v for v in outside if all(has_edge(g, v, u) for u in subset)), None
            )
            if dom is None:
                return False, kind, subset, None
            dominated.append((kind, subset, dom))
    return True, None, None, tuple(dominated)


def reference_pattern(m: BinaryMatrix) -> RecognitionCertificate:
    """The forbidden 3-row pattern search before it kept row-holder masks:
    per row triple it lists the rows covering the triple's common columns,
    per zero-column pair the rows covering the pair too, and it tests every
    third zero column against that list.  Triple order and the minimal
    witness rule are those of ``is_extended_clique_node_by_pattern``; the
    work cap is left to the library.  Expects a matrix with no zero column.
    """
    rows = m.row_masks
    best = None
    for a, ra in enumerate(rows):
        for b in range(a + 1, m.rows):
            rb = rows[b]
            only_b, only_a, both = ~ra & rb, ra & ~rb, ra & rb
            for c in range(b + 1, m.rows):
                rc = rows[c]
                za = only_b & rc
                zb = only_a & rc
                zc = both & ~rc
                if not (za and zb and zc):
                    continue
                common = both & rc
                carriers = [r for r in rows if r & common == common]
                for ca in _bits(za):
                    for cb in _bits(zb):
                        pair = _bit(ca) | _bit(cb)
                        carriers2 = [r for r in carriers if r & pair == pair]
                        for cc in _bits(zc):
                            ext = common | pair | _bit(cc)
                            if any(r & ext == ext for r in carriers2):
                                continue
                            if best is None or _lex_less(ext, best[0]):
                                best = (ext, (a + 1, b + 1, c + 1), (ca, cb, cc))
    if best is None:
        return RecognitionCertificate("pattern", True, {})
    ext, row_triple, zeros = best
    return RecognitionCertificate("pattern", False, {
        "pattern_columns": tuple(_bits(ext)),
        "pattern_rows": row_triple,
        "pattern_zeros": zeros,
    })


def domination_number(g: Graph) -> int:
    """Least size of a node set whose closed neighbourhoods cover every node,
    by scanning the node subsets in order of size.  Intended for n <= 8.
    """
    full = (1 << g.n) - 1
    closed = [g.closed_mask(v) for v in g.nodes()]
    for size in range(1, g.n + 1):
        for subset in itertools.combinations(closed, size):
            covered = 0
            for mask in subset:
                covered |= mask
            if covered == full:
                return size
    raise AssertionError("the whole node set dominates every graph")


def helly_violations(g: Graph) -> set[tuple[int, int, int]]:
    """The node triples a < b < c whose set W(a,b,c), the nodes lying in at
    least two of N[a], N[b], N[c], lies in no closed neighbourhood N[v].  The
    closed neighbourhoods of g are Helly iff there is none.  Built from the
    adjacency masks alone, one triple and one node at a time.
    """
    closed = [g.closed_mask(v) for v in g.nodes()]
    found = set()
    for a, b, c in itertools.combinations(g.nodes(), 3):
        na, nb, nc = closed[a - 1], closed[b - 1], closed[c - 1]
        w = (na & nb) | (nb & nc) | (na & nc)
        if not any(w & nv == w for nv in closed):
            found.add((a, b, c))
    return found


def square(g: Graph) -> Graph:
    """g², from the adjacency masks: u and v are adjacent iff they are at
    distance 1 or 2 in g."""
    adj = []
    for v in g.nodes():
        reach = g.closed_mask(v)
        for u in reference_bits(g.adj[v - 1]):
            reach |= g.adj[u - 1]
        adj.append(reach & ~_bit(v))
    return Graph(g.n, tuple(adj))


def universal_nodes(g: Graph) -> tuple[int, ...]:
    """Nodes adjacent to every other node, ascending."""
    full = (1 << g.n) - 1
    return tuple(v for v in g.nodes() if g.adj[v - 1] == full & ~_bit(v))


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
    return next(induced_cycles(bip, min_length=6), None) is None


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


def reference_class_set_systems(rows: list[int], r: int) -> list[tuple[int, list[int]]]:
    """``perfection._class_set_systems`` one class set at a time: each set S
    of two or more of the r classes whose distinct maximal restrictions
    ``row & S`` of two or more classes number at least |S|, with those
    restrictions in ascending order.
    """
    out = []
    for smask in range(1 << r):
        restricted = {mk & smask for mk in rows if (mk & smask).bit_count() >= 2}
        maximal = sorted(
            x for x in restricted if not any(x != y and x & y == x for y in restricted)
        )
        if smask.bit_count() >= 2 and len(maximal) >= smask.bit_count():
            out.append((smask, maximal))
    return out


def reference_row_disjoint_columns(m: BinaryMatrix, mask: int) -> int:
    """The most columns inside ``mask`` (bit j - 1 for column j) that
    pairwise share no row of ``m``: the independence number of the conflict
    graph on ``mask``, found by trying every subset from the largest down.
    A zero column shares no row with any column.
    """
    cols = [j for j in range(m.cols) if mask >> j & 1]
    for size in range(len(cols), 0, -1):
        for pick in itertools.combinations(cols, size):
            if all(
                not (mk >> a & 1 and mk >> b & 1)
                for a, b in itertools.combinations(pick, 2)
                for mk in m.row_masks
            ):
                return size
    return 0


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
    """The branch-and-bound search with every later row's cap read from the
    residuals for every child.  The node order, the child order, the pruning
    rule and the bound are those of ``solver._branch_and_bound``; its
    bookkeeping is not.  Nothing is passed down beside the slack, the later
    rows are not split into those that meet the assigned row and those that
    miss it, and each pruned child is counted on its own.  The two must
    agree on the optimum, the witness, the node order and the explored count.
    """
    if k < 1:
        raise ValueError("the packing bound k must be a positive integer")
    if g.n > kpacking.solver.SOLVER_NODE_CAP:
        raise CapExceededError("solver node cap")
    explored_cap = kpacking.solver.SOLVER_EXPLORED_CAP
    n = g.n
    order = sorted(g.nodes(), key=lambda v: (-degree(g, v), v))
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
