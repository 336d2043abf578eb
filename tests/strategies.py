"""Hypothesis strategies shared across the test modules."""

import itertools

from hypothesis import strategies as st

from kpacking import BinaryMatrix, Graph


@st.composite
def graphs(draw, min_nodes=1, max_nodes=7):
    """Arbitrary simple graph on 1..max_nodes labelled nodes."""
    n = draw(st.integers(min_nodes, max_nodes))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    else:
        edges = []
    return Graph.from_edges(n, edges)


@st.composite
def connected_graphs(draw, min_nodes=1, max_nodes=7):
    """Connected graph built as a random tree plus optional extra edges."""
    n = draw(st.integers(min_nodes, max_nodes))
    edges = set()
    for v in range(2, n + 1):
        u = draw(st.integers(1, v - 1))
        edges.add((u, v))
    pairs = [p for p in itertools.combinations(range(1, n + 1), 2) if p not in edges]
    if pairs:
        extra = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        edges.update(extra)
    return Graph.from_edges(n, sorted(edges))


@st.composite
def binary_matrices(draw, max_rows=5, max_cols=5):
    """Binary matrix with no zero row and no zero column."""
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    masks = [draw(st.integers(1, (1 << cols) - 1)) for _ in range(rows)]
    covered = 0
    for m in masks:
        covered |= m
    missing = ((1 << cols) - 1) & ~covered
    if missing:
        masks.append(missing)
    lists = [[(m >> j) & 1 for j in range(cols)] for m in masks]
    return BinaryMatrix.from_rows(lists)


@st.composite
def joined_graphs(draw, min_nodes=7, max_nodes=12):
    """Connected graph made of small connected pieces, each joined to the next
    by one edge.  Pieces are dense more often than whole random graphs are, so
    disjoint small cycles and cliques with no edge between them are common.
    """
    n = draw(st.integers(min_nodes, max_nodes))
    edges = []
    start = 0
    while start < n:
        size = draw(st.integers(1, min(6, n - start)))
        piece = draw(connected_graphs(min_nodes=size, max_nodes=size))
        edges += [(u + start, v + start) for u, v in piece.edges()]
        if start:
            u = draw(st.integers(1, start))
            v = draw(st.integers(start + 1, start + size))
            edges.append((u, v))
        start += size
    return Graph.from_edges(n, edges)
