import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kpacking.recognition
from kpacking import (
    BinaryMatrix,
    Graph,
    ZeroColumnError,
    clique_graph,
    closed_neighbourhood_matrix,
    complete,
    cycle,
    enumerate_connected_graphs,
    find_undominated_obstruction,
    is_extended_clique_node_by_cliques,
    is_extended_clique_node_by_pattern,
    is_isomorphic,
    maximal_cliques,
    recheck_certificate,
    three_sun,
    web,
    wheel,
)
from kpacking.errors import CapExceededError, KpackingError, ParseError
from kpacking.graphs import _bits
from kpacking.recognition import _obstruction_kind

from helpers import is_totally_balanced, reference_kind, reference_screen, row_support
from strategies import binary_matrices, connected_graphs, joined_graphs


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
SMALL_INTS = st.lists(st.integers(-1, 8), max_size=4)
# objects close enough to real certificates to reach the recheck paths
CERTIFICATE_LIKE = st.fixed_dictionaries(
    {"method": st.sampled_from(["cliques", "pattern", "structural"]), "verdict": JSON},
    optional={
        "cover": st.lists(
            st.fixed_dictionaries({"clique": SMALL_INTS, "row": st.integers(-1, 8)}),
            max_size=3,
        )
        | JSON,
        "uncovered_clique": SMALL_INTS | JSON,
        "pattern_rows": SMALL_INTS | JSON,
        "pattern_zeros": SMALL_INTS | JSON,
        "pattern_columns": SMALL_INTS | JSON,
        "obstruction_nodes": SMALL_INTS | JSON,
        "obstruction_kind": st.sampled_from(["cycle4", "cycle5", "sun"]) | JSON,
    },
)


def both_verdicts(m):
    a = is_extended_clique_node_by_cliques(m)
    b = is_extended_clique_node_by_pattern(m)
    assert a.verdict == b.verdict
    return a.verdict


class TestCliqueGraph:
    def test_square_neighbourhoods_give_complete_graph(self):
        gq = clique_graph(closed_neighbourhood_matrix(cycle(4)))
        assert gq == complete(4)

    def test_five_cycle(self):
        gq = clique_graph(closed_neighbourhood_matrix(cycle(5)))
        assert is_isomorphic(gq, complete(5))

    def test_six_cycle(self):
        gq = clique_graph(closed_neighbourhood_matrix(cycle(6)))
        assert is_isomorphic(gq, web(6, 2))

    def test_rectangular_matrix(self):
        m = BinaryMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
        gq = clique_graph(m)
        assert gq.edges() == ((1, 2), (2, 3))

    def test_zero_column_rejected(self):
        with pytest.raises(ZeroColumnError):
            clique_graph(BinaryMatrix.from_rows([[1, 0], [1, 0]]))


class TestExactRecognizers:
    def test_identity_matrix_accepted(self):
        m = BinaryMatrix.from_rows([[1, 0], [0, 1]])
        assert both_verdicts(m) is True

    def test_interval_style_matrix_accepted(self):
        m = BinaryMatrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        assert both_verdicts(m) is True

    def test_cycle_neighbourhoods_rejected(self):
        for n in (4, 5, 6):
            assert both_verdicts(closed_neighbourhood_matrix(cycle(n))) is False

    def test_sun_neighbourhoods_rejected(self):
        assert both_verdicts(closed_neighbourhood_matrix(three_sun())) is False

    def test_positive_certificate_is_a_cover(self):
        m = closed_neighbourhood_matrix(wheel(6))
        cert = is_extended_clique_node_by_cliques(m)
        assert cert.verdict is True
        supports = {row_support(m, i) for i in range(1, m.rows + 1)}
        gq = clique_graph(m)
        for clique in maximal_cliques(gq):
            assert clique in supports

    def test_negative_clique_certificate(self):
        m = closed_neighbourhood_matrix(web(6, 2))
        cert = is_extended_clique_node_by_cliques(m)
        assert cert.verdict is False
        assert cert.uncovered_clique == (1, 2, 3, 4, 5, 6)

    def test_negative_pattern_certificate(self):
        m = closed_neighbourhood_matrix(web(6, 2))
        cert = is_extended_clique_node_by_pattern(m)
        assert cert.verdict is False
        assert cert.pattern_rows == (1, 2, 3)
        assert cert.pattern_zeros == (4, 5, 6)
        assert cert.pattern_columns == (1, 2, 3, 4, 5, 6)
        # the zero positions really carry the claimed 0/1 pattern
        r1, r2, r3 = cert.pattern_rows
        z1, z2, z3 = cert.pattern_zeros
        assert m.entry(r1, z1) == 0 and m.entry(r2, z1) == 1 and m.entry(r3, z1) == 1
        assert m.entry(r1, z2) == 1 and m.entry(r2, z2) == 0 and m.entry(r3, z2) == 1
        assert m.entry(r1, z3) == 1 and m.entry(r2, z3) == 1 and m.entry(r3, z3) == 0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            is_extended_clique_node_by_cliques(BinaryMatrix.from_rows([[1, 1, 0]]))
        with pytest.raises(ZeroColumnError):
            is_extended_clique_node_by_pattern(BinaryMatrix.from_rows([[1, 0], [1, 0]]))

    def test_pattern_witness_order_compares_column_masks(self):
        # the minimal witness is chosen on masks, in the order of label tuples
        lex_less = kpacking.recognition._lex_less
        for x in range(1, 64):
            for y in range(1, 64):
                if x != y:
                    assert lex_less(x, y) == (tuple(_bits(x)) < tuple(_bits(y)))

    @pytest.mark.parametrize(
        "g, work",
        # N[C16]: 560 row triples, none with three zero columns; the
        # octahedron and the 3-sun add extension checks to their 20 triples
        [(cycle(16), 560), (web(6, 2), 40), (three_sun(), 22)],
    )
    def test_pattern_work_cap(self, monkeypatch, g, work):
        m = closed_neighbourhood_matrix(g)
        monkeypatch.setattr(kpacking.recognition, "PATTERN_WORK_CAP", work)
        answer = is_extended_clique_node_by_pattern(m)
        monkeypatch.setattr(kpacking.recognition, "PATTERN_WORK_CAP", work - 1)
        with pytest.raises(CapExceededError, match=f"more than {work - 1} units"):
            is_extended_clique_node_by_pattern(m)
        monkeypatch.undo()
        assert is_extended_clique_node_by_pattern(m) == answer

    @given(connected_graphs(max_nodes=6))
    @settings(max_examples=150, deadline=None)
    def test_methods_agree_on_neighbourhood_matrices(self, g):
        both_verdicts(closed_neighbourhood_matrix(g))

    def test_methods_agree_exhaustively_to_five_nodes(self):
        for n in range(1, 6):
            for g in enumerate_connected_graphs(n):
                both_verdicts(closed_neighbourhood_matrix(g))


class TestStructuralScreen:
    def test_cycles_are_their_own_obstruction(self):
        for n, kind in ((4, "cycle4"), (5, "cycle5"), (6, "cycle6")):
            cert = find_undominated_obstruction(cycle(n))
            assert cert.verdict is False
            assert cert.obstruction_kind == kind
            assert cert.obstruction_nodes == tuple(range(1, n + 1))

    def test_sun_obstruction(self):
        cert = find_undominated_obstruction(three_sun())
        assert cert.verdict is False
        assert cert.obstruction_kind == "sun"
        assert cert.obstruction_nodes == (1, 2, 3, 4, 5, 6)

    def test_wheel_rim_is_dominated_by_the_hub(self):
        cert = find_undominated_obstruction(wheel(5))
        assert cert.verdict is True
        assert cert.dominated == (("cycle4", (1, 2, 3, 4), 5),)

    def test_long_cycles_escape_the_screen(self):
        # an induced 7-cycle is not one of the screened shapes
        cert = find_undominated_obstruction(cycle(7))
        assert cert.verdict is True
        assert cert.dominated == ()

    def test_screen_diverges_from_exact_methods(self):
        # smallest disagreement: the octahedron passes the screen but both
        # exact recognizers reject its neighbourhood matrix
        g = web(6, 2)
        assert find_undominated_obstruction(g).verdict is True
        assert both_verdicts(closed_neighbourhood_matrix(g)) is False

    def test_screen_never_rejects_an_accepted_graph(self):
        # the screen is one-sided: it may accept what the exact methods
        # reject, never the reverse
        for n in range(1, 8):
            for g in enumerate_connected_graphs(n):
                if both_verdicts(closed_neighbourhood_matrix(g)):
                    assert find_undominated_obstruction(g).verdict, list(g.edges())

    @given(
        st.one_of(
            connected_graphs(min_nodes=7, max_nodes=12),
            joined_graphs(min_nodes=7, max_nodes=12),
        )
    )
    # two triangles joined by a path: an induced 2-regular 6-set that is no cycle
    @example(
        Graph.from_edges(
            7, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (3, 7), (4, 7)]
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_screen_matches_the_reference_screen(self, g):
        cert = find_undominated_obstruction(g)
        got = (cert.verdict, cert.obstruction_kind, cert.obstruction_nodes, cert.dominated)
        assert got == reference_screen(g)

    def test_kinds_of_every_labelled_graph_on_six_nodes(self):
        # the screen names a 3-sun from its degrees alone; this checks that
        # against the isomorphism test on all 2**15 labelled 6-node graphs
        pairs = list(itertools.combinations(range(1, 7), 2))
        suns = 0
        for bits in range(1 << len(pairs)):
            g = Graph.from_edges(6, [e for i, e in enumerate(pairs) if bits >> i & 1])
            kind = _obstruction_kind(g, (1 << 6) - 1)
            assert kind == reference_kind(g), list(g.edges())
            suns += kind == "sun"
        assert suns == 120

    def test_screen_node_cap(self, monkeypatch):
        monkeypatch.setattr(kpacking.recognition, "STRUCTURAL_SCREEN_NODE_CAP", 6)
        assert find_undominated_obstruction(cycle(6)).verdict is False
        with pytest.raises(CapExceededError, match="structural screen"):
            find_undominated_obstruction(cycle(7))


class TestTotallyBalanced:
    def test_examples(self):
        assert is_totally_balanced(BinaryMatrix.from_rows([[1, 1, 0], [0, 1, 1]]))
        assert is_totally_balanced(closed_neighbourhood_matrix(complete(4)))
        assert not is_totally_balanced(closed_neighbourhood_matrix(cycle(4)))

    def test_column_cap(self):
        rows = [[1] * 17]
        with pytest.raises(CapExceededError):
            is_totally_balanced(BinaryMatrix.from_rows(rows))

    @given(binary_matrices(max_rows=4, max_cols=4))
    @settings(max_examples=100)
    def test_totally_balanced_implies_accepted(self, m):
        # balanced inputs are always extended clique-node matrices;
        # square ones with full diagonal support the recognizers directly
        if m.is_square() and all(m.entry(i, i) == 1 for i in range(1, m.rows + 1)):
            if is_totally_balanced(m):
                assert both_verdicts(m) is True


class TestCertificateRecheck:
    def test_round_trip_negative(self):
        m = closed_neighbourhood_matrix(web(6, 2))
        for cert in (
            is_extended_clique_node_by_cliques(m),
            is_extended_clique_node_by_pattern(m),
        ):
            assert recheck_certificate(cert.to_payload(), matrix=m)

    def test_round_trip_structural(self):
        g = three_sun()
        cert = find_undominated_obstruction(g)
        assert recheck_certificate(cert.to_payload(), graph=g)

    def test_tampered_witness_rejected(self):
        m = closed_neighbourhood_matrix(web(6, 2))
        payload = is_extended_clique_node_by_pattern(m).to_payload()
        payload["pattern_zeros"] = [1, 2, 3]
        assert not recheck_certificate(payload, matrix=m)

    @pytest.mark.parametrize(
        "g, kind, nodes",
        [
            # every recognizer accepts K3 and the 7-cycle, so no negative
            # structural certificate for them is valid
            (complete(3), "cycle3", [1, 2, 3]),
            (cycle(7), "cycle7", [1, 2, 3, 4, 5, 6, 7]),
            # the screen emits distinct labels in ascending order
            (cycle(4), "cycle4", [1, 2, 3, 4, 4]),
            (cycle(4), "cycle4", [2, 1, 3, 4]),
        ],
        ids=["k3-cycle3", "c7-cycle7", "repeated-label", "unsorted-labels"],
    )
    def test_forged_structural_certificate_rejected(self, g, kind, nodes):
        payload = {
            "method": "structural",
            "verdict": False,
            "obstruction_kind": kind,
            "obstruction_nodes": nodes,
        }
        assert not recheck_certificate(payload, graph=g)

    @pytest.mark.parametrize(
        "g, payload",
        [
            # read as integers, true would be node 1 and this would recheck
            (cycle(4), {
                "method": "structural",
                "verdict": False,
                "obstruction_kind": "cycle4",
                "obstruction_nodes": [True, 2, 3, 4],
            }),
            (complete(3), {
                "method": "cliques",
                "verdict": True,
                "cover": [{"clique": [1, 2, 3], "row": True}],
            }),
        ],
        ids=["boolean-in-list", "boolean-cover-row"],
    )
    def test_json_booleans_are_not_integers(self, g, payload):
        with pytest.raises(ParseError):
            recheck_certificate(payload, graph=g)

    @pytest.mark.parametrize("verdict", ["no", 1, 0, None, "missing"])
    @pytest.mark.parametrize("method", ["cliques", "pattern", "structural"])
    def test_verdict_must_be_a_json_boolean(self, method, verdict):
        # a sound witness of each method: a cover of the wheel's cliques, a
        # pattern of the octahedron, an undominated obstruction of the 3-sun
        g, recognize = {
            "cliques": (wheel(6), is_extended_clique_node_by_cliques),
            "pattern": (web(6, 2), is_extended_clique_node_by_pattern),
            "structural": (three_sun(), lambda _: find_undominated_obstruction(three_sun())),
        }[method]
        m = closed_neighbourhood_matrix(g)
        payload = recognize(m).to_payload()
        assert recheck_certificate(payload, graph=g, matrix=m)
        if verdict == "missing":
            del payload["verdict"]
        else:
            payload["verdict"] = verdict
        with pytest.raises(ParseError, match="verdict"):
            recheck_certificate(payload, graph=g, matrix=m)

    def test_wrong_input_rejected(self):
        m = closed_neighbourhood_matrix(web(6, 2))
        payload = is_extended_clique_node_by_cliques(m).to_payload()
        other = closed_neighbourhood_matrix(complete(6))
        assert not recheck_certificate(payload, matrix=other)

    @given(
        st.one_of(JSON, CERTIFICATE_LIKE),
        st.one_of(
            connected_graphs(max_nodes=6).map(lambda g: {"graph": g}),
            connected_graphs(max_nodes=6).map(
                lambda g: {"matrix": closed_neighbourhood_matrix(g)}
            ),
            binary_matrices().map(lambda m: {"matrix": m}),
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_any_json_payload_gets_an_answer_or_a_library_error(self, payload, instance):
        try:
            valid = recheck_certificate(payload, **instance)
        except (KpackingError, ValueError):
            return
        assert valid is True or valid is False
