"""Hypothesis strategies shared across the test modules."""

import itertools

from hypothesis import strategies as st

from kpacking import (
    BinaryMatrix,
    Graph,
    closed_neighbourhood_matrix,
    enumerate_connected_graphs,
)


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
def square_matrices(draw, max_size=10):
    """Square binary matrix with no zero row and no zero column.  Rows are
    drawn either uniformly or with one to three columns; a column left empty
    is set in a random row.
    """
    n = draw(st.integers(1, max_size))
    short = st.sets(st.integers(0, n - 1), min_size=1, max_size=3)
    row = st.one_of(st.integers(1, (1 << n) - 1), short.map(lambda s: sum(1 << j for j in s)))
    masks = [draw(row) for _ in range(n)]
    covered = 0
    for m in masks:
        covered |= m
    for j in range(n):
        if not covered >> j & 1:
            masks[draw(st.integers(0, n - 1))] |= 1 << j
    return BinaryMatrix(n, n, tuple(masks))


@st.composite
def any_binary_matrices(draw, max_rows=12, max_cols=10):
    """Binary matrix of any shape.  Zero rows and repeated rows are drawn on
    purpose; zero columns can occur too.
    """
    cols = draw(st.integers(1, max_cols))
    masks = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=1, max_size=max_rows))
    masks += draw(st.lists(st.sampled_from([0, *masks]), max_size=3))
    masks = draw(st.permutations(masks))
    return BinaryMatrix(len(masks), cols, tuple(masks))


@st.composite
def pruning_matrices(draw, max_rows=10, max_cols=8):
    """Binary matrix of any shape that forces in the cases the support pass
    skips on: rows cut down to a subset of another row (dominated), repeated
    rows, columns copied from another column in every row (twins), a further
    row that tells such a pair apart (near twins) and a column cleared in
    every row (zero column).  Most rows are drawn with two or three columns,
    since short rows are what fractional vertices need.
    """
    cols = draw(st.integers(1, max_cols))
    full = (1 << cols) - 1
    column = st.integers(0, cols - 1)
    short = st.sets(column, min_size=2, max_size=3).map(lambda s: sum(1 << j for j in s))
    row = st.one_of(short, st.integers(0, full)) if cols > 1 else st.integers(0, full)
    masks = draw(st.lists(row, min_size=1, max_size=max_rows))
    cut = draw(st.lists(st.sampled_from(masks), max_size=3))
    masks += [mk & draw(st.integers(0, full)) for mk in cut]
    masks += draw(st.lists(st.sampled_from(masks), max_size=3))
    for a, b in draw(st.lists(st.tuples(column, column), max_size=2)):
        masks = [(mk & ~(1 << b)) | (((mk >> a) & 1) << b) for mk in masks]
        # or near twins: a further row holds b but not a
        c = draw(column)
        if draw(st.booleans()) and c not in (a, b):
            masks.append((1 << b) | (1 << c))
    if draw(st.booleans()):
        j = draw(column)
        masks = [mk & ~(1 << j) for mk in masks]
    masks = draw(st.permutations(masks))
    return BinaryMatrix(len(masks), cols, tuple(masks))


@st.composite
def class_antichains(draw, max_classes=8, max_rows=10):
    """``(rows, r)``: distinct non-empty masks over r classes, none inside
    another, in any order, as the support pass's undominated rows are."""
    r = draw(st.integers(1, max_classes))
    masks = draw(st.lists(st.integers(1, (1 << r) - 1), max_size=max_rows))
    rows: list[int] = []
    for mk in sorted(set(masks), key=int.bit_count, reverse=True):
        if not any(mk & y == mk for y in rows):
            rows.append(mk)
    return draw(st.permutations(rows)), r


@st.composite
def twin_blowups(draw, max_cols=10):
    """Binary matrix whose columns come in twin classes: a matrix on a few
    base columns, each copied into one to three columns of the result, and
    the result's columns shuffled so that a class's copies lie apart.  The
    base is a closed neighbourhood matrix half the time, since those have
    fractional supports far more often than random rows.
    """
    census = [g for n in (5, 6) for g in enumerate_connected_graphs(n)]
    neighbourhoods = st.sampled_from(census).map(closed_neighbourhood_matrix)
    base = draw(st.one_of(pruning_matrices(max_rows=8, max_cols=5), neighbourhoods))
    copies = [draw(st.integers(1, 3)) for _ in range(base.cols)]
    while sum(copies) > max_cols:
        copies[copies.index(max(copies))] -= 1
    source = draw(st.permutations([j for j, c in enumerate(copies) for _ in range(c)]))
    masks = tuple(
        sum(((mk >> j) & 1) << pos for pos, j in enumerate(source)) for mk in base.row_masks
    )
    return BinaryMatrix(len(masks), len(source), masks)


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
