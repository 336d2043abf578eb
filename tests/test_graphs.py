import itertools
import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kpacking.graphs
from kpacking import (
    BinaryMatrix,
    CapExceededError,
    Graph,
    ParseError,
    closed_neighbourhood_matrix,
    complement,
    complete,
    cycle,
    enumerate_connected_graphs,
    format_graph,
    format_matrix,
    induced_cycles,
    is_connected,
    is_isomorphic,
    maximal_cliques,
    parse_graph,
    parse_matrix,
    three_sun,
    web,
    wheel,
)
from kpacking.graphs import (
    BITS_TABLE_WIDTH,
    _bits,
    _invariant_classes,
    _isomorphisms,
    _node_invariants,
    _placement,
    is_chordal,
)
from kpacking.perfection import VERTEX_ENUMERATION_COLUMN_CAP
from kpacking.recognition import clique_graph

from helpers import (
    brute_canonical_code,
    degree,
    degree_sequence,
    has_edge,
    induced_subgraph,
    maximal_cliques_bruteforce,
    neighbours,
    reference_bits,
    reference_node_invariant,
    relabel,
    row_support,
    universal_nodes,
)
from strategies import graphs


class TestBits:
    """The set-bit labels of a mask: from a table below 2**BITS_TABLE_WIDTH,
    one bit at a time above it."""

    def test_table_covers_every_vertex_enumeration_mask(self):
        assert BITS_TABLE_WIDTH >= VERTEX_ENUMERATION_COLUMN_CAP

    def test_every_mask_below_two_to_the_twelve(self):
        for mask in range(1 << 12):
            assert _bits(mask) == reference_bits(mask), mask

    @given(
        st.one_of(
            st.integers(min_value=0, max_value=2**70),
            # a few bits anywhere, so high sparse masks come up
            st.sets(st.integers(min_value=0, max_value=70), max_size=4).map(
                lambda positions: sum(1 << p for p in positions)
            ),
        )
    )
    @example(2**BITS_TABLE_WIDTH - 1)
    @example(2**BITS_TABLE_WIDTH)
    @example(2**BITS_TABLE_WIDTH + 1)
    @example(2**70)
    @example(2**70 - 1)
    @settings(max_examples=300, deadline=None)
    def test_large_masks(self, mask):
        assert _bits(mask) == reference_bits(mask)


class TestGraphBasics:
    def test_from_edges(self):
        g = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
        assert g.n == 4
        assert has_edge(g, 2, 1)
        assert not has_edge(g, 1, 3)
        assert degree(g, 2) == 2
        assert neighbours(g, 3) == (2, 4)
        assert g.edges() == ((1, 2), (2, 3), (3, 4))
        assert g.edge_count() == 3
        assert degree_sequence(g) == (1, 1, 2, 2)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 4)])
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 2)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(2, 2)])

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(ValueError):
            Graph(n=2, adj=(2, 0))

    @pytest.mark.parametrize(
        "n, adj, message",
        [
            (0, (), "graph needs at least one node"),
            (2, (2,), "adjacency row count does not match n"),
            (2, (0b110, 0b001), "adjacency row 1 references labels above n"),
        ],
        ids=["no-nodes", "row-count", "label-above-n"],
    )
    def test_constructor_refusals(self, n, adj, message):
        with pytest.raises(ValueError) as exc:
            Graph(n, adj)
        assert str(exc.value) == message

    def test_closed_mask(self):
        g = cycle(4)
        assert g.closed_mask(1) == 0b1011  # {1, 2, 4}


class TestClosedNeighbourhoodMatrix:
    def test_square_cycle(self):
        m = closed_neighbourhood_matrix(cycle(4))
        assert m == parse_matrix(
            "4 4\n"
            "1101\n"
            "1110\n"
            "0111\n"
            "1011\n"
        )
        assert m.rows == m.cols

    @given(graphs(max_nodes=6))
    def test_diagonal_is_all_ones(self, g):
        m = closed_neighbourhood_matrix(g)
        assert all(m.entry(i, i) == 1 for i in range(1, g.n + 1))


class TestComplementAndSubgraphs:
    @given(graphs(max_nodes=7))
    def test_complement_involution(self, g):
        assert complement(complement(g)) == g

    def test_complement_of_complete_is_edgeless(self):
        assert complement(complete(5)).edge_count() == 0

    def test_induced_subgraph_relabels(self):
        # rim of the 5-wheel is a 4-cycle on fresh labels 1..4
        rim = induced_subgraph(wheel(5), [1, 2, 3, 4])
        assert rim == cycle(4)

    def test_relabel_swap(self):
        g = Graph.from_edges(3, [(1, 2)])
        h = relabel(g, {1: 3, 2: 2, 3: 1})
        assert h.edges() == ((2, 3),)


class TestDerivedGraphs:
    """Graphs built from a valid graph or matrix skip the validating
    constructor; their rows must pass it and give an equal graph."""

    def test_census_graphs_and_their_derived_graphs(self):
        for n in range(1, 8):
            for g in enumerate_connected_graphs(n):
                gq = clique_graph(closed_neighbourhood_matrix(g))
                for h in (g, complement(g), gq, complement(gq)):
                    assert Graph(h.n, h.adj) == h, g.edges()


class TestConnectivityAndUniversal:
    def test_connected(self):
        assert is_connected(cycle(5))
        assert not is_connected(Graph.from_edges(4, [(1, 2), (3, 4)]))
        assert is_connected(Graph.from_edges(1, []))

    def test_universal_nodes(self):
        assert universal_nodes(wheel(6)) == (6,)
        assert universal_nodes(complete(4)) == (1, 2, 3, 4)
        assert universal_nodes(cycle(5)) == ()


class TestMaximalCliques:
    def test_triangle_plus_pendant(self):
        g = Graph.from_edges(4, [(1, 2), (1, 3), (2, 3), (3, 4)])
        assert maximal_cliques(g) == ((1, 2, 3), (3, 4))

    def test_complete_graph_single_clique(self):
        assert maximal_cliques(complete(5)) == ((1, 2, 3, 4, 5),)

    def test_clique_deeper_than_the_recursion_limit(self):
        n = sys.getrecursionlimit() + 100
        assert maximal_cliques(complete(n)) == (tuple(range(1, n + 1)),)

    @pytest.mark.parametrize(
        "g, work",
        # search nodes plus pivot candidates; K4 is one path scanning 4+3+2+1
        [(complete(4), 14), (cycle(5), 15), (three_sun(), 22)],
    )
    def test_work_cap(self, monkeypatch, g, work):
        monkeypatch.setattr(kpacking.graphs, "CLIQUE_WORK_CAP", work)
        answer = maximal_cliques(g)
        monkeypatch.setattr(kpacking.graphs, "CLIQUE_WORK_CAP", work - 1)
        with pytest.raises(CapExceededError, match=f"more than {work - 1} units"):
            maximal_cliques(g)
        monkeypatch.undo()
        assert maximal_cliques(g) == answer

    @given(graphs(max_nodes=7))
    @settings(max_examples=200)
    def test_agrees_with_bruteforce(self, g):
        assert maximal_cliques(g) == maximal_cliques_bruteforce(g)


class TestInducedCycles:
    def test_square(self):
        assert list(induced_cycles(cycle(4))) == [(1, 2, 3, 4)]

    def test_chordal_graph_has_none(self):
        g = Graph.from_edges(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
        assert list(induced_cycles(g)) == []
        assert list(induced_cycles(complete(6))) == []

    def test_odd_filter(self):
        assert list(induced_cycles(cycle(6), min_length=5, odd_only=True)) == []
        assert list(induced_cycles(cycle(5), min_length=5, odd_only=True)) == [(1, 2, 3, 4, 5)]

    @pytest.mark.parametrize("bound", [4, 5, 6])
    def test_max_length_filters_the_unbounded_output(self, bound):
        # the bound prunes the search without reordering what it yields
        for n in range(1, 8):
            for g in enumerate_connected_graphs(n):
                unbounded = [c for c in induced_cycles(g, 4) if len(c) <= bound]
                assert list(induced_cycles(g, 4, max_length=bound)) == unbounded

    def test_each_cycle_reported_once(self):
        g = wheel(7)
        seen = set()
        for c in induced_cycles(g):
            key = frozenset(c)
            assert key not in seen
            seen.add(key)

    @given(graphs(min_nodes=4, max_nodes=7))
    @settings(max_examples=100)
    def test_reported_cycles_are_induced(self, g):
        for c in induced_cycles(g):
            m = len(c)
            assert m >= 4
            for i, j in itertools.combinations(range(m), 2):
                expected = (j - i) % m in (1, m - 1)
                assert has_edge(g, c[i], c[j]) == expected


class TestChordal:
    def test_examples(self):
        assert is_chordal(complete(6))
        assert is_chordal(Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (2, 5)]))
        assert is_chordal(three_sun())
        assert not is_chordal(cycle(4))
        assert not is_chordal(wheel(6))

    @given(graphs(max_nodes=10))
    @settings(max_examples=150)
    def test_matches_induced_cycle_search(self, g):
        assert is_chordal(g) == (next(induced_cycles(g, min_length=4), None) is None)


TWO_TRIANGLES = Graph.from_edges(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
# Up to isomorphism, the only pairs of distinct graphs on at most six nodes
# whose nodes have the same degrees and neighbour degrees: the 6-cycle and two
# triangles, each with edge 14 added, and the complements of these two pairs.
PROFILE_TWINS = [
    (cycle(6), TWO_TRIANGLES),
    (
        Graph.from_edges(6, cycle(6).edges() + ((1, 4),)),
        Graph.from_edges(6, TWO_TRIANGLES.edges() + ((1, 4),)),
    ),
]
PROFILE_TWINS += [(complement(g), complement(h)) for g, h in PROFILE_TWINS]


@st.composite
def graph_pairs(draw, max_nodes=6):
    """Two graphs on the same node count, the second relabelled at random:
    a copy, a copy after a few degree-preserving edge switches, an unrelated
    graph, or one of ``PROFILE_TWINS`` either way round.
    """
    how = draw(st.sampled_from(["copy", "switched", "unrelated", "twins"]))
    if how == "twins":
        g, h = draw(st.sampled_from(PROFILE_TWINS))
        if draw(st.booleans()):
            g, h = h, g
    else:
        g = draw(graphs(max_nodes=max_nodes))
        h = draw(graphs(min_nodes=g.n, max_nodes=g.n)) if how == "unrelated" else g
    edges = set(h.edges())
    if how == "switched":
        # replace edges ab, cd by ad, cb where both are non-edges
        for _ in range(draw(st.integers(1, 3))):
            if len(edges) < 2:
                break
            (a, b), (c, d) = draw(st.permutations(sorted(edges)))[:2]
            if draw(st.booleans()):
                c, d = d, c
            ad, cb = tuple(sorted((a, d))), tuple(sorted((c, b)))
            if len({a, b, c, d}) == 4 and ad not in edges and cb not in edges:
                edges -= {(a, b), tuple(sorted((c, d)))}
                edges |= {ad, cb}
    perm = draw(st.permutations(range(1, g.n + 1)))
    return g, relabel(Graph.from_edges(g.n, edges), dict(zip(g.nodes(), perm)))


class TestIsomorphism:
    @given(graph_pairs())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_brute_force_codes(self, pair):
        g, h = pair
        assert is_isomorphic(g, h) == (brute_canonical_code(g) == brute_canonical_code(h))

    @pytest.mark.parametrize("g, h", PROFILE_TWINS)
    def test_profile_twins_are_distinct(self, g, h):
        assert brute_canonical_code(g) != brute_canonical_code(h)
        assert not is_isomorphic(g, h)

    @given(graphs(max_nodes=7), st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_relabel_invariance(self, g, rng):
        perm = list(range(1, g.n + 1))
        rng.shuffle(perm)
        h = relabel(g, {v: perm[v - 1] for v in g.nodes()})
        assert is_isomorphic(g, h)

    def test_same_degree_sequence_not_isomorphic(self):
        assert not is_isomorphic(cycle(6), TWO_TRIANGLES)

    def test_different_sizes(self):
        assert not is_isomorphic(cycle(4), cycle(5))


def star(n: int) -> Graph:
    return Graph.from_edges(n, [(1, v) for v in range(2, n + 1)])


# Nodes 1 and 2 both have degree 17.  Node 1 has 16 leaf neighbours (3-18)
# and node 19 of degree 3; node 2 has 17 neighbours of degree 2 (22-38, each
# also joined to node 39).  In 4-bit fields node 1's 16 leaves carry into
# field 2, and both nodes would read 16**2 + 16**3.
CARRY_PAIR = Graph.from_edges(
    39,
    [(1, v) for v in range(3, 20)]
    + [(19, 20), (19, 21)]
    + [(2, v) for v in range(22, 39)]
    + [(v, 39) for v in range(22, 39)],
)


def blocks(keys) -> list[list[int]]:
    """The nodes grouped by equal key, as sorted lists."""
    out: dict = {}
    for v, key in enumerate(keys):
        out.setdefault(key, []).append(v)
    return sorted(out.values())


class TestNodeInvariants:
    """One packed int per node: the degree in the top field, and in field d
    the number of neighbours of degree d."""

    @pytest.mark.parametrize(
        "g", [wheel(20), star(20), CARRY_PAIR, complete(17), cycle(3)]
    )
    def test_fields_hold_the_degree_and_the_neighbour_degree_counts(self, g):
        w = g.n.bit_length()
        field = (1 << w) - 1
        for v, packed in enumerate(_node_invariants(g.adj), start=1):
            d, *around = reference_node_invariant(g, v)
            assert packed >> w * g.n == d
            for e in range(g.n):
                assert packed >> w * e & field == around.count(e)

    @given(graphs(max_nodes=12))
    @example(wheel(20))
    @example(star(20))
    @example(CARRY_PAIR)
    @settings(max_examples=150)
    def test_nodes_split_as_the_reference_does(self, g):
        reference = [reference_node_invariant(g, v) for v in g.nodes()]
        assert blocks(_node_invariants(g.adj)) == blocks(reference)


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    inv = _node_invariants(g.adj)
    classes = _invariant_classes(inv)
    return list(_isomorphisms(_placement(g.adj, inv, classes), g.adj, classes))


def preserves_edges(g: Graph, perm) -> bool:
    return all(
        sum(1 << perm[u] for u in range(g.n) if row >> u & 1) == g.adj[perm[v]]
        for v, row in enumerate(g.adj)
    )


class TestAutomorphisms:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_census_groups_match_brute_force(self, n):
        for g in enumerate_connected_graphs(n):
            maps = automorphisms(g)
            assert len(set(maps)) == len(maps)
            for perm in maps:
                assert sorted(perm) == list(range(n))
                assert preserves_edges(g, perm)
            brute = itertools.permutations(range(n))
            assert len(maps) == sum(preserves_edges(g, p) for p in brute)

    @pytest.mark.parametrize(
        "g, order",
        [(cycle(n), 2 * n) for n in (3, 5, 8)]
        + [(complete(n), math.factorial(n)) for n in (1, 4, 7)]
        + [(wheel(n), 2 * (n - 1)) for n in (5, 6, 9)]
        + [(web(6, 2), 48), (three_sun(), 6)],
    )
    def test_known_group_orders(self, g, order):
        assert len(automorphisms(g)) == order


class TestGraphText:
    def test_round_trip(self):
        g = wheel(6)
        assert parse_graph(format_graph(g)) == g

    def test_comments_and_blanks(self):
        text = "# a square\n\n4 4\n1 2\n2 3\n\n3 4\n1 4\n"
        assert parse_graph(text) == cycle(4)

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_graph("4\n1 2\n")

    def test_wrong_edge_count(self):
        with pytest.raises(ParseError):
            parse_graph("3 2\n1 2\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_graph("3 2\n1 2\n1 2\n")

    def test_unordered_edge_rejected(self):
        with pytest.raises(ParseError):
            parse_graph("3 2\n1 2\n2 1\n")

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_graph("3 2\n1 2\nx y\n")

    def test_oversize_header_rejected(self):
        with pytest.raises(CapExceededError):
            parse_graph("100000 0\n")

    @given(graphs(max_nodes=7))
    def test_round_trip_property(self, g):
        assert parse_graph(format_graph(g)) == g


class TestMatrixText:
    def test_round_trip(self):
        m = closed_neighbourhood_matrix(three_sun())
        assert parse_matrix(format_matrix(m)) == m

    def test_bad_cell(self):
        with pytest.raises(ParseError):
            parse_matrix("1 2\n12\n")

    def test_row_length_mismatch(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_matrix("2 3\n101\n10\n")


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_graph, "", "empty graph file"),
        (parse_graph, "# comment only\n\n", "empty graph file"),
        (parse_graph, "4\n1 2\n", "line 1: expected 'n m'"),
        (parse_graph, "# three tokens\n4 1 2\n1 2\n", "line 2: expected 'n m'"),
        (parse_graph, "4 x\n", "line 1: expected 'n m'"),
        (parse_matrix, "", "empty matrix file"),
        (parse_matrix, "# comment only\n\n", "empty matrix file"),
        (parse_matrix, "2\n10\n01\n", "line 1: expected 'r c'"),
        (parse_matrix, "# three tokens\n2 2 2\n10\n01\n", "line 2: expected 'r c'"),
        (parse_matrix, "x 2\n", "line 1: expected 'r c'"),
    ],
    ids=[
        f"{kind}-{case}"
        for kind in ("graph", "matrix")
        for case in ("empty", "comments-only", "one-token", "three-tokens", "not-an-integer")
    ],
)
def test_header_errors_name_the_format(parse, text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("3 1\n1\n", "line 2: expected 'u v'"),
        ("3 1\n1 2 3\n", "line 2: expected 'u v'"),
        ("3 1\n1 x\n", "line 2: expected 'u v'"),
        ("3 1\n0 2\n", "line 2: edge (0,2) violates 1 <= u < v <= 3"),
        ("3 1\n1 4\n", "line 2: edge (1,4) violates 1 <= u < v <= 3"),
        ("3 1\n2 2\n", "line 2: edge (2,2) violates 1 <= u < v <= 3"),
        ("3 3\n1 2\n# again\n2 3\n1 2\n", "line 5: duplicate edge (1,2)"),
    ],
    ids=["one-token", "three-tokens", "not-an-integer", "below-range", "above-range",
         "self-loop", "duplicate"],
)
def test_edge_line_errors(text, message):
    with pytest.raises(ParseError) as info:
        parse_graph(text)
    assert str(info.value) == message


TOKENS = st.one_of(
    st.integers(-2, 9).map(str),
    st.sampled_from(["01", "10", "111", "#", "x", "1e3", "2_0", "\u0663"]),
    st.text(max_size=3),
)
LINES = st.lists(st.lists(TOKENS, min_size=1, max_size=3).map(" ".join), max_size=6)


def headed(count_first):
    """Lines under a header that counts them, so parsing gets past the count."""
    return st.tuples(LINES, st.integers(1, 6)).map(
        lambda t: "\n".join(
            [f"{len(t[0])} {t[1]}" if count_first else f"{t[1]} {len(t[0])}", *t[0]]
        )
    )


@pytest.mark.parametrize(
    "parse, kind, structured",
    [(parse_graph, Graph, headed(False)), (parse_matrix, BinaryMatrix, headed(True))],
    ids=["graph", "matrix"],
)
@given(data=st.data())
@settings(max_examples=200)
def test_arbitrary_text_parses_or_raises_a_library_error(parse, kind, structured, data):
    text = data.draw(st.one_of(st.text(max_size=40), LINES.map("\n".join), structured))
    try:
        parsed = parse(text)
    except (ParseError, CapExceededError):
        return
    assert isinstance(parsed, kind)


class TestBinaryMatrix:
    def test_accessors(self):
        m = parse_matrix("2 3\n101\n010\n")
        assert m.entry(1, 3) == 1
        assert m.entry(2, 3) == 0
        assert row_support(m, 1) == (1, 3)
        assert not m.has_zero_column()
        assert m.rows != m.cols
        assert parse_matrix("2 2\n10\n01\n").has_zero_column() is False
        assert parse_matrix("2 2\n10\n10\n").has_zero_column() is True

    @pytest.mark.parametrize(
        "rows, cols, masks, message",
        [
            (0, 2, (), "matrix needs at least one row and one column"),
            (1, 0, (0,), "matrix needs at least one row and one column"),
            (2, 2, (1,), "row mask count does not match rows"),
            (2, 2, (1, 0b100), "row 2 references columns above 2"),
        ],
        ids=["no-rows", "no-columns", "mask-count", "column-above-cols"],
    )
    def test_constructor_refusals(self, rows, cols, masks, message):
        with pytest.raises(ValueError) as exc:
            BinaryMatrix(rows, cols, masks)
        assert str(exc.value) == message
