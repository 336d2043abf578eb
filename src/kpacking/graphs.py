"""Core graph and 0/1-matrix types plus the combinatorial primitives built on them.

Graphs are simple and undirected with nodes labelled 1..n.  Adjacency is kept
as one bitmask per node (bit j-1 set iff node j is a neighbour), which keeps
subset tests, neighbourhood sums and clique expansion cheap at the sizes this
library targets (a few dozen nodes).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceededError, ParseError

# Largest node count a graph file, and column count a matrix file, may
# declare.  Checked right after the header, because building the graph, or a
# matrix's column intersection graph, costs time quadratic in it.
GRAPH_FILE_NODE_CAP = 1024
# search nodes plus pivot candidates scanned by one maximal clique search; a
# run stopped by it ends in 2.5-4.3 s (60 x 60 cocktail-party matrix, 2-vCPU
# x86-64 VM, Python 3.11)
CLIQUE_WORK_CAP = 3 * 10**6


def _bit(v: int) -> int:
    return 1 << (v - 1)


# masks below 2**BITS_TABLE_WIDTH read their labels from one table; the width
# covers every mask of a graph within VERTEX_ENUMERATION_COLUMN_CAP nodes
BITS_TABLE_WIDTH = 10


def _bits_table(width: int) -> tuple[tuple[int, ...], ...]:
    """Per mask below 2**width, the 1-based labels of its set bits."""
    table = [()]
    for label in range(1, width + 1):
        # the masks with top bit ``label`` follow those below it
        table += [labels + (label,) for labels in table]
    return tuple(table)


_BITS_TABLE = _bits_table(BITS_TABLE_WIDTH)
_BITS_TABLE_SIZE = len(_BITS_TABLE)


def _bits(mask: int) -> tuple[int, ...]:
    """The 1-based labels of the set bits of the non-negative ``mask``,
    ascending."""
    if mask < _BITS_TABLE_SIZE:
        return _BITS_TABLE[mask]
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _mask_of(labels) -> int:
    m = 0
    for v in labels:
        m |= _bit(v)
    return m


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on nodes 1..n with bitmask adjacency rows."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count does not match n")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj, start=1):
            if row & ~full:
                raise ValueError(f"adjacency row {v} references labels above n")
            if row & _bit(v):
                raise ValueError(f"self-loop on node {v}")
        for v in range(1, self.n + 1):
            for u in _bits(self.adj[v - 1]):
                if not self.adj[u - 1] & _bit(v):
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    @classmethod
    def _unchecked(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        """A graph on rows built from a valid graph or matrix, which hold the
        invariants ``__post_init__`` checks, so the checks are skipped."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) out of range 1..{n}")
            adj[u - 1] |= _bit(v)
            adj[v - 1] |= _bit(u)
        return cls(n, tuple(adj))

    def nodes(self) -> range:
        return range(1, self.n + 1)

    def closed_mask(self, v: int) -> int:
        return self.adj[v - 1] | _bit(v)

    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for u in self.nodes():
            for v in _bits(self.adj[u - 1]):
                if v > u:
                    out.append((u, v))
        return tuple(out)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2


@dataclass(frozen=True)
class BinaryMatrix:
    """Immutable 0/1 matrix; each row is stored as a column bitmask."""

    rows: int
    cols: int
    row_masks: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix needs at least one row and one column")
        if len(self.row_masks) != self.rows:
            raise ValueError("row mask count does not match rows")
        full = (1 << self.cols) - 1
        for i, m in enumerate(self.row_masks, start=1):
            if m & ~full:
                raise ValueError(f"row {i} references columns above {self.cols}")

    def has_zero_column(self) -> bool:
        seen = 0
        for row in self.row_masks:
            seen |= row
        return seen != (1 << self.cols) - 1


# ---------------------------------------------------------------------------
# basic operations


def closed_neighbourhood_matrix(g: Graph) -> BinaryMatrix:
    """Square 0/1 matrix with unit diagonal; row v is the incidence vector of N[v]."""
    return BinaryMatrix(g.n, g.n, tuple(g.closed_mask(v) for v in g.nodes()))


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph._unchecked(
        g.n, tuple(full & ~row & ~_bit(v) for v, row in enumerate(g.adj, 1))
    )


def is_connected(g: Graph) -> bool:
    return _connected_within(g, (1 << g.n) - 1)


def _connected_within(g: Graph, mask: int) -> bool:
    start = mask & -mask
    seen = start
    frontier = start
    while frontier:
        nxt = 0
        for v in _bits(frontier):
            nxt |= g.adj[v - 1] & mask
        frontier = nxt & ~seen
        seen |= frontier
    return seen == mask


def maximal_cliques(g: Graph) -> tuple[tuple[int, ...], ...]:
    """All maximal cliques, sorted lexicographically by member tuple.

    Pivoting branch and bound over candidate/excluded bitmask sets, with an
    explicit stack so that large cliques do not exhaust the recursion limit.
    Raises ``CapExceededError`` once the search nodes plus the pivot
    candidates scanned exceed ``CLIQUE_WORK_CAP``.
    """
    adj = g.adj
    out: list[int] = []
    work_cap = CLIQUE_WORK_CAP
    work = 0
    stack = [(0, (1 << g.n) - 1, 0)]
    while stack:
        r, p, x = stack.pop()
        px = p | x
        if not px:
            out.append(r)
            continue
        work += 1 + px.bit_count()
        if work > work_cap:
            raise CapExceededError(
                f"maximal clique search did more than {work_cap} units of work"
            )
        # the first node of px with the most neighbours in p
        most = -1
        for v in _bits(px):
            held = (adj[v - 1] & p).bit_count()
            if held > most:
                most, pivot = held, v
        for v in _bits(p & ~adj[pivot - 1]):
            bv = _bit(v)
            stack.append((r | bv, p & adj[v - 1], x & adj[v - 1]))
            p &= ~bv
            x |= bv
    return tuple(sorted(tuple(_bits(m)) for m in out))


def _node_invariants(adj) -> list[int]:
    """Per node of the mask rows ``adj``: one int packing its degree and how
    many of its neighbours have each degree (one round of colour refinement).

    On n nodes each field is ``n.bit_length()`` bits wide, so no count
    carries into the next field.  Field d holds the number of neighbours of
    degree d, and the top field (field n) the node's degree.  Two nodes get
    equal ints exactly when they have the same degree and the same sorted
    neighbour degrees.
    """
    w = len(adj).bit_length()
    degs = [row.bit_count() for row in adj]
    classes: dict[int, int] = {}
    for v, d in enumerate(degs):
        classes[d] = classes.get(d, 0) | 1 << v
    top = w * len(adj)
    return [
        d << top | sum((row & m).bit_count() << w * e for e, m in classes.items())
        for d, row in zip(degs, adj)
    ]


def _attach_node(adj):
    """For the mask rows ``adj`` of a graph on n-1 nodes: a function that
    joins a new node n to a nonempty neighbour set S (0-based nodes,
    ascending) and returns the new rows and their ``_node_invariants``.

    The invariants are updated from adj's, not rebuilt.  With B[d] the unit
    of field d, each u in S gains a degree (B[n]) and a neighbour of degree
    |S| (B[|S|]); each neighbour of u sees u's degree d rise by one
    (B[d+1] - B[d]); and node n gets |S|·B[n] plus B[d(u)+1] per u in S.
    """
    n = len(adj) + 1
    w = n.bit_length()
    unit = [1 << w * d for d in range(n + 1)]
    top = 1 << (n - 1)
    # adj's invariants at n nodes' field width: node n enters without
    # neighbours
    start = _node_invariants((*adj, 0))
    degs = [row.bit_count() for row in adj]
    moves = [
        [(x - 1, unit[d + 1] - unit[d]) for x in _bits(row)]
        for d, row in zip(degs, adj)
    ]

    def attach(subset):
        rows = list(adj)
        inv = list(start)
        gain = unit[n] + unit[len(subset)]
        row = 0
        last = unit[n] * len(subset)
        for u in subset:
            row |= 1 << u
            rows[u] |= top
            inv[u] += gain
            for x, step in moves[u]:
                inv[x] += step
            last += unit[degs[u] + 1]
        rows.append(row)
        inv[-1] = last
        return rows, inv

    return attach


def _invariant_classes(inv) -> dict[int, int]:
    """Per node invariant in ``inv``: the mask of the nodes that have it."""
    classes: dict[int, int] = {}
    for w, key in enumerate(inv):
        classes[key] = classes.get(key, 0) | 1 << w
    return classes


def _placement(adj_g, inv_g, classes_g):
    """g's side of the isomorphism search, which depends on g alone.

    ``inv_g`` is ``_node_invariants(adj_g)`` and ``classes_g`` its
    ``_invariant_classes``.  Returns g's nodes in placement order, their
    invariants in that order, and per depth the mask of the node's
    neighbours placed before it.  Nodes are placed rarest invariant first
    (ties by invariant, then by node), so the order is the same against any
    h whose invariants agree with g's as multisets.
    """
    order = sorted(
        range(len(adj_g)), key=lambda v: (classes_g[inv_g[v]].bit_count(), inv_g[v])
    )
    before = []
    placed = 0
    for v in order:
        before.append(adj_g[v] & placed)
        placed |= 1 << v
    return order, [inv_g[v] for v in order], before


def _isomorphisms(plan, adj_h, classes_h):
    """Yield every isomorphism from g onto h on 0-based mask rows.

    ``plan`` is g's ``_placement`` and ``classes_h`` the
    ``_invariant_classes`` of h's ``_node_invariants``; the two graphs'
    invariants must agree as multisets.  Each node of g is placed in plan
    order onto a free node of h with the same invariant and the same
    adjacency to the nodes already placed, trying h's nodes in ascending
    order.  Each map is a tuple whose entry v is the h node that g node v
    goes to.  The search keeps its state on an explicit stack, so a
    generator dropped early leaves nothing to the cyclic garbage collector.
    """
    order, keys, before = plan
    n = len(order)
    image = [0] * n  # the h node that g node v is placed on
    # per depth i: the h nodes that must be adjacent to order[i], and the h
    # nodes still to try
    req = [0] * n
    left = [0] * n
    left[0] = classes_h[keys[0]]
    used = 0
    i = 0
    while i >= 0:
        cand = left[i]
        if not cand:
            i -= 1
            if i >= 0:
                used ^= 1 << image[order[i]]
            continue
        bw = cand & -cand
        left[i] = cand ^ bw
        w = bw.bit_length() - 1
        if adj_h[w] & used != req[i]:
            continue
        image[order[i]] = w
        if i + 1 == n:
            yield tuple(image)
            continue
        used |= bw
        i += 1
        r = 0
        for u in _bits(before[i]):
            r |= 1 << image[u - 1]
        req[i] = r
        left[i] = classes_h[keys[i]] & ~used


def _isomorphic(plan, adj_h, classes_h) -> bool:
    """Whether ``_isomorphisms`` yields a map from g onto h."""
    return next(_isomorphisms(plan, adj_h, classes_h), None) is not None


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Backtracking isomorphism test with node-invariant pruning."""
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    inv_g, inv_h = _node_invariants(g.adj), _node_invariants(h.adj)
    if sorted(inv_g) != sorted(inv_h):
        return False
    plan = _placement(g.adj, inv_g, _invariant_classes(inv_g))
    return _isomorphic(plan, h.adj, _invariant_classes(inv_h))


def is_chordal(g: Graph) -> bool:
    """True iff g has no induced cycle of length >= 4, by simplicial
    elimination (Dirac 1961; Rose, Tarjan & Lueker 1976).

    A node is simplicial when its closed neighbourhood among the remaining
    nodes lies in the closed row of each of its members.  Each sweep deletes
    every node that is simplicial when it is reached; a deleted node's
    neighbourhood was a clique and stays one as others go, so the deletions
    in order form a perfect elimination ordering.  g is chordal iff every
    node goes: each induced subgraph of a chordal graph is chordal and has a
    simplicial node, and a sweep that deletes nothing leaves an induced
    subgraph with none.
    """
    closed = [row | 1 << v for v, row in enumerate(g.adj)]
    left = (1 << g.n) - 1
    while left:
        before = left
        for v in _bits(left):
            nb = closed[v - 1] & left
            for u in _bits(nb):
                if nb & ~closed[u - 1]:
                    break
            else:
                left ^= 1 << (v - 1)
        if left == before:
            return False
    return True


def induced_cycles(g: Graph, min_length: int = 4, max_length: int | None = None):
    """Yield chordless induced cycles of length >= min_length, one tuple each.

    Each cycle appears exactly once: rotation is fixed by starting at its
    smallest node, reflection by requiring the second node to be smaller than
    the closing node.  The search order (smallest start node first, then
    depth-first over ascending labels) is deterministic.  With ``max_length``
    the search extends no path that could only close longer cycles, so the
    output is the unbounded one without the cycles above ``max_length``.
    """
    n, adj = g.n, g.adj
    full = (1 << n) - 1
    # the most nodes a path may reach: its cycles have one node more
    longest_path = n - 1 if max_length is None else min(n, max_length) - 1
    for s in range(1, n + 1):
        sadj = adj[s - 1]
        gt = full & ~((1 << s) - 1)
        # depth-first over the paths from s, smallest next label first; per
        # path node: the nodes on the path, the nodes that may not follow its
        # children (the neighbours of the path after s up to it), and the
        # children still to visit
        path = [s]
        stack = [(_bit(s), 0, sadj & gt)]
        while stack:
            used, blocked, rest = stack[-1]
            if not rest:
                stack.pop()
                path.pop()
                continue
            low = rest & -rest
            stack[-1] = (used, blocked, rest ^ low)
            last = low.bit_length()
            path.append(last)
            used |= low
            cand = adj[last - 1] & gt & ~used & ~blocked
            # the closing nodes above the second node, which fixes reflection
            closing = cand & sadj >> path[1] << path[1]
            length = len(path) + 1
            if closing and length >= min_length:
                for u in _bits(closing):
                    yield tuple(path) + (u,)
            children = cand & ~sadj
            if children and len(path) < longest_path:
                stack.append((used, blocked | adj[last - 1], children))
            else:
                path.pop()


# ---------------------------------------------------------------------------
# text formats
#
# Graph files: first data line "n m", then m lines "u v" with 1 <= u < v <= n.
# Matrix files: first data line "r c", then r lines of c characters, each 0/1.
# Lines starting with '#' and blank lines are ignored in both formats.


def _header(text: str, kind: str, names: str):
    """The data lines of a ``kind`` file, the number of its first line and
    the two integers on it, called ``names`` in the error messages."""
    lines = [(no, line) for no, raw in enumerate(text.splitlines(), start=1)
             if (line := raw.strip()) and not line.startswith("#")]
    if not lines:
        raise ParseError(f"empty {kind} file")
    no, head = lines[0]
    try:
        # one token too many or too few fails the unpacking
        a, b = map(int, head.split())
    except ValueError:
        raise ParseError(f"line {no}: expected '{names}'") from None
    return lines, no, a, b


def parse_graph(text: str) -> Graph:
    lines, no, n, m = _header(text, "graph", "n m")
    if n < 1 or m < 0:
        raise ParseError(f"line {no}: need n >= 1 and m >= 0")
    if n > GRAPH_FILE_NODE_CAP:
        raise CapExceededError(
            f"line {no}: graph files are capped at {GRAPH_FILE_NODE_CAP} nodes"
        )
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}")
    adj = [0] * n
    for no, line in lines[1:]:
        try:
            # one token too many or too few fails the unpacking
            u, v = map(int, line.split())
        except ValueError:
            raise ParseError(f"line {no}: expected 'u v'") from None
        if not (1 <= u < v <= n):
            raise ParseError(f"line {no}: edge ({u},{v}) violates 1 <= u < v <= {n}")
        if adj[u - 1] & _bit(v):
            raise ParseError(f"line {no}: duplicate edge ({u},{v})")
        adj[u - 1] |= _bit(v)
        adj[v - 1] |= _bit(u)
    return Graph(n, tuple(adj))


def format_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count()}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> BinaryMatrix:
    lines, no, r, c = _header(text, "matrix", "r c")
    if r < 1 or c < 1:
        raise ParseError(f"line {no}: need r >= 1 and c >= 1")
    if c > GRAPH_FILE_NODE_CAP:
        raise CapExceededError(
            f"line {no}: matrix files are capped at {GRAPH_FILE_NODE_CAP} columns"
        )
    if len(lines) - 1 != r:
        raise ParseError(f"expected {r} matrix rows, found {len(lines) - 1}")
    masks = []
    for no, line in lines[1:]:
        if len(line) != c or any(ch not in "01" for ch in line):
            raise ParseError(f"line {no}: expected {c} characters of 0/1")
        masks.append(_mask_of(j for j, ch in enumerate(line, start=1) if ch == "1"))
    return BinaryMatrix(r, c, tuple(masks))


def format_matrix(m: BinaryMatrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    # column 1 is bit 0, so the binary digits read in reverse
    lines += [format(mask, f"0{m.cols}b")[::-1] for mask in m.row_masks]
    return "\n".join(lines) + "\n"
