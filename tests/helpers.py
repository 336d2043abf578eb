"""Reference helpers and oracles that only the tests use."""

import itertools
from fractions import Fraction

from kpacking import (
    BinaryMatrix,
    CapExceededError,
    Graph,
    RationalPoint,
    find_induced_cycle,
    is_isomorphic,
    three_sun,
)
from kpacking.graphs import _bit, _bits

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


def tight_constraint_rank(m: BinaryMatrix, point: RationalPoint) -> int:
    """Rank of the constraints the point satisfies with equality (rows at 1,
    coordinates at either bound).  Vertices have rank equal to the dimension.

    Ranks by Gauss-Jordan elimination over Fraction, independently of the
    library's integer kernel.
    """
    n = m.cols
    rows = [
        [Fraction((mk >> j) & 1) for j in range(n)]
        for mk in m.row_masks
        if sum(point.coords[j - 1] for j in _bits(mk)) == 1
    ]
    rows += [
        [Fraction(int(i == j)) for i in range(n)]
        for j, c in enumerate(point.coords)
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

