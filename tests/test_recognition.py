import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kpacking.recognition
from kpacking import (
    BinaryMatrix,
    Graph,
    RecognitionCertificate,
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
    perfection_report,
    recheck_certificate,
    solve_kpf,
    three_sun,
    web,
    wheel,
)
from kpacking.errors import CapExceededError, KpackingError, ParseError
from kpacking.graphs import _bits
from kpacking.recognition import CERTIFICATE_KINDS, _obstruction_kind, kind_inputs

from helpers import (
    is_totally_balanced,
    reference_kind,
    reference_pattern,
    reference_screen,
    row_support,
)
from strategies import binary_matrices, connected_graphs, joined_graphs, square_matrices


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
        "dominated": st.lists(
            st.fixed_dictionaries({
                "kind": st.sampled_from(["cycle4", "cycle5", "cycle6", "sun"]) | JSON,
                "nodes": SMALL_INTS | JSON,
                "dominator": st.integers(-1, 8) | JSON,
            }),
            max_size=3,
        )
        | JSON,
    },
)
# a triangle 1 2 3 with two ears 4 and 5 on the edge 12, one ear on each other
# edge and a node 8 adjacent to all: two dominated 3-suns share the triangle
SHARED_TRIANGLE_SUNS = Graph.from_edges(
    8,
    [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (1, 5), (2, 5), (2, 6), (3, 6), (1, 7), (3, 7)]
    + [(v, 8) for v in range(1, 8)],
)
# a 4-cycle and two nodes adjacent to all: the screen names the lesser, 5
SQUARE_WITH_TWO_HUBS = Graph.from_edges(
    6, cycle(4).edges() + tuple((v, hub) for hub in (5, 6) for v in range(1, hub))
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
        assert cert.witness["uncovered_clique"] == (1, 2, 3, 4, 5, 6)

    def test_negative_pattern_certificate(self):
        m = closed_neighbourhood_matrix(web(6, 2))
        cert = is_extended_clique_node_by_pattern(m)
        assert cert.verdict is False
        assert cert.witness["pattern_rows"] == (1, 2, 3)
        assert cert.witness["pattern_zeros"] == (4, 5, 6)
        assert cert.witness["pattern_columns"] == (1, 2, 3, 4, 5, 6)
        # the zero positions really carry the claimed 0/1 pattern
        r1, r2, r3 = cert.witness["pattern_rows"]
        z1, z2, z3 = cert.witness["pattern_zeros"]
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

    @given(square_matrices(max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_pattern_matches_the_reference_pattern(self, m):
        assert is_extended_clique_node_by_pattern(m) == reference_pattern(m)

    def test_pattern_matches_the_reference_on_the_census(self):
        for n in range(1, 8):
            for g in enumerate_connected_graphs(n):
                m = closed_neighbourhood_matrix(g)
                assert is_extended_clique_node_by_pattern(m) == reference_pattern(m), list(
                    g.edges()
                )

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
            assert cert.witness["obstruction_kind"] == kind
            assert cert.witness["obstruction_nodes"] == tuple(range(1, n + 1))

    def test_sun_obstruction(self):
        cert = find_undominated_obstruction(three_sun())
        assert cert.verdict is False
        assert cert.witness["obstruction_kind"] == "sun"
        assert cert.witness["obstruction_nodes"] == (1, 2, 3, 4, 5, 6)

    def test_wheel_rim_is_dominated_by_the_hub(self):
        cert = find_undominated_obstruction(wheel(5))
        assert cert.verdict is True
        assert cert.witness["dominated"] == (
            {"kind": "cycle4", "nodes": (1, 2, 3, 4), "dominator": 5},
        )

    def test_long_cycles_escape_the_screen(self):
        # an induced 7-cycle is not one of the screened shapes
        cert = find_undominated_obstruction(cycle(7))
        assert cert.verdict is True
        assert cert.witness["dominated"] == ()

    def test_screen_diverges_from_exact_methods(self):
        # smallest disagreement: the octahedron passes the screen but both
        # exact recognizers reject its neighbourhood matrix
        g = web(6, 2)
        assert find_undominated_obstruction(g).verdict is True
        assert both_verdicts(closed_neighbourhood_matrix(g)) is False

    def test_screen_never_rejects_an_accepted_graph(self):
        # up to 7 nodes the screen may accept what the exact methods reject,
        # never the reverse; at 8 nodes it rejects an accepted graph (below)
        for n in range(1, 8):
            for g in enumerate_connected_graphs(n):
                if both_verdicts(closed_neighbourhood_matrix(g)):
                    assert find_undominated_obstruction(g).verdict, list(g.edges())

    def test_screen_rejects_an_accepted_graph_at_eight_nodes(self):
        # the undominated induced 6-cycle 2-5-3-7-4-6 does not stop N[G]
        # from being a perfect extended clique-node matrix
        edges = "1-2 1-3 1-4 1-6 1-7 1-8 2-5 2-6 2-8 3-5 3-7 3-8 4-6 4-7 5-8 6-8 7-8"
        g = Graph.from_edges(8, [map(int, e.split("-")) for e in edges.split()])
        cert = find_undominated_obstruction(g)
        assert cert.verdict is False
        assert cert.witness == {
            "obstruction_kind": "cycle6",
            "obstruction_nodes": (2, 3, 4, 5, 6, 7),
        }
        assert recheck_certificate(cert.to_payload(), g) is True
        assert both_verdicts(closed_neighbourhood_matrix(g)) is True
        rep = perfection_report(g)
        assert rep.neighbourhood_matrix_perfect is True
        assert rep.matrix_perfect is True
        assert rep.unit_relaxation == 2
        assert [solve_kpf(g, k).optimum for k in range(1, 7)] == [2, 4, 6, 8, 10, 12]

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
    @example(SHARED_TRIANGLE_SUNS)
    @settings(max_examples=80, deadline=None)
    def test_screen_matches_the_reference_screen(self, g):
        cert = find_undominated_obstruction(g)
        w = cert.witness
        dominated = w.get("dominated")
        if dominated is not None:
            dominated = tuple((d["kind"], d["nodes"], d["dominator"]) for d in dominated)
        got = (cert.verdict, w.get("obstruction_kind"), w.get("obstruction_nodes"), dominated)
        assert got == reference_screen(g)

    def test_suns_sharing_a_triangle_are_listed_in_order(self):
        cert = find_undominated_obstruction(SHARED_TRIANGLE_SUNS)
        assert cert.verdict is True
        assert cert.witness["dominated"] == (
            {"kind": "sun", "nodes": (1, 2, 3, 4, 6, 7), "dominator": 8},
            {"kind": "sun", "nodes": (1, 2, 3, 5, 6, 7), "dominator": 8},
        )

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
            assert recheck_certificate(cert.to_payload(), m)

    def test_round_trip_structural(self):
        g = three_sun()
        cert = find_undominated_obstruction(g)
        assert recheck_certificate(cert.to_payload(), g)

    def test_round_trip_structural_on_the_census(self):
        for n in range(1, 7):
            for g in enumerate_connected_graphs(n):
                payload = find_undominated_obstruction(g).to_payload()
                assert recheck_certificate(payload, g), list(g.edges())

    def test_census_certificates_survive_json_and_recheck(self):
        # every kind's certificate of every graph up to 7 nodes: the kinds
        # that read the matrix recheck against N[G] as well as against G
        for n in range(1, 8):
            for g in enumerate_connected_graphs(n):
                on_graph = kind_inputs(g)
                on_matrix = kind_inputs(closed_neighbourhood_matrix(g))
                for name, (_, recognize, _) in CERTIFICATE_KINDS.items():
                    payload = recognize(on_graph[name]).to_payload()
                    assert json.loads(json.dumps(payload)) == payload
                    assert recheck_certificate(payload, g) is True, (name, list(g.edges()))
                    if on_matrix[name] is not None:
                        assert recheck_certificate(payload, on_matrix[name]) is True

    @pytest.mark.parametrize(
        "g, method",
        [
            (wheel(6), "cliques"),
            (web(6, 2), "cliques"),
            (web(6, 2), "pattern"),
            (SHARED_TRIANGLE_SUNS, "structural"),
            (three_sun(), "structural"),
        ],
        ids=["cover", "uncovered-clique", "pattern", "dominated", "obstruction"],
    )
    def test_editing_a_payload_leaves_the_certificate_alone(self, g, method):
        cert = CERTIFICATE_KINDS[method][1](kind_inputs(g)[method])
        payload = cert.to_payload()
        expected = json.loads(json.dumps(payload))

        def vandalize(value):
            if isinstance(value, list):
                for item in value:
                    vandalize(item)
                value.append(0)
            elif isinstance(value, dict):
                for item in value.values():
                    vandalize(item)
                value["extra"] = 0

        vandalize(payload)
        assert cert.to_payload() == expected

    @pytest.mark.parametrize(
        "g, method, field",
        [(wheel(6), "cliques", "cover"), (SHARED_TRIANGLE_SUNS, "structural", "dominated")],
        ids=["cover", "dominated"],
    )
    def test_witness_items_with_extra_keys_recheck(self, g, method, field):
        payload = CERTIFICATE_KINDS[method][1](kind_inputs(g)[method]).to_payload()
        for item in payload[field]:
            item["note"] = "not part of the witness"
        assert recheck_certificate(payload, g) is True

    @pytest.mark.parametrize(
        "g, dominated",
        [
            (wheel(5), [{"kind": "sun", "nodes": [1, 2], "dominator": 99}]),
            (wheel(5), None),
            (wheel(5), []),
            # the hub's entry listed twice
            (wheel(5), [{"kind": "cycle4", "nodes": [1, 2, 3, 4], "dominator": 5}] * 2),
            (wheel(5), [{"kind": "cycle5", "nodes": [1, 2, 3, 4], "dominator": 5}]),
            (wheel(5), [{"kind": "cycle4", "nodes": [2, 1, 3, 4], "dominator": 5}]),
            (wheel(5), [{"kind": "cycle4", "nodes": [1, 2, 3, 4, 4], "dominator": 5}]),
            (wheel(5), [{"kind": "cycle4", "nodes": [1, 2, 3, 4], "dominator": 1}]),
            (wheel(5), [{"kind": "cycle4", "nodes": [1, 2, 3, 4], "dominator": 6}]),
            (wheel(5), [{"kind": "cycle4", "nodes": [1, 2, 3, 4], "dominator": 0}]),
            (wheel(5), [{"kind": "cycle4", "nodes": [1, 2, 3, 4], "dominator": -1}]),
            # true of each entry, but not the least dominator the screen names
            (SQUARE_WITH_TWO_HUBS, [{"kind": "cycle4", "nodes": [1, 2, 3, 4], "dominator": 6}]),
            # both entries true, in the wrong order
            (SHARED_TRIANGLE_SUNS, [
                {"kind": "sun", "nodes": [1, 2, 3, 5, 6, 7], "dominator": 8},
                {"kind": "sun", "nodes": [1, 2, 3, 4, 6, 7], "dominator": 8},
            ]),
        ],
        ids=[
            "short-sun", "missing", "empty", "repeated-entry", "wrong-kind",
            "unsorted-labels", "repeated-label", "dominator-inside", "dominator-above-n",
            "dominator-zero", "dominator-negative", "not-the-least-dominator",
            "entries-reordered",
        ],
    )
    def test_forged_positive_structural_certificate_rejected(self, g, dominated):
        payload = find_undominated_obstruction(g).to_payload()
        assert payload["verdict"] is True
        assert recheck_certificate(payload, g)
        if dominated is None:
            del payload["dominated"]
        else:
            payload["dominated"] = dominated
        assert not recheck_certificate(payload, g)

    @pytest.mark.parametrize(
        "entry",
        [
            ("sun", (1, 2), 99),
            ("cycle5", (1, 2, 3, 4), 5),
            ("cycle4", (1, 2, 3, 4), 1),
            ("cycle4", (1, 2, 3, 4), 6),
        ],
        ids=["short-sun", "wrong-kind", "dominator-inside", "dominator-above-n"],
    )
    def test_entries_are_checked_without_the_rerun(self, monkeypatch, entry):
        # a rerun that vouched for the forged list would not get it through
        kind, nodes, dom = entry
        vouched = {"kind": kind, "nodes": nodes, "dominator": dom}
        monkeypatch.setattr(
            kpacking.recognition,
            "find_undominated_obstruction",
            lambda g: RecognitionCertificate("structural", True, {"dominated": (vouched,)}),
        )
        payload = {
            "method": "structural",
            "verdict": True,
            "dominated": [{"kind": kind, "nodes": list(nodes), "dominator": dom}],
        }
        assert not recheck_certificate(payload, wheel(5))

    @pytest.mark.parametrize(
        "dominated",
        [
            "garbage",
            None,
            [[1, 2, 3, 4]],
            [{"kind": 4, "nodes": [1, 2, 3, 4], "dominator": 5}],
            [{"kind": "cycle4", "nodes": [True, 2, 3, 4], "dominator": 5}],
            [{"kind": "cycle4", "nodes": "1234", "dominator": 5}],
            [{"kind": "cycle4", "nodes": [1, 2, 3, 4], "dominator": True}],
            [{"kind": "cycle4", "nodes": [1, 2, 3, 4]}],
        ],
        ids=[
            "string", "null", "item-not-an-object", "integer-kind", "boolean-label",
            "string-nodes", "boolean-dominator", "no-dominator",
        ],
    )
    def test_malformed_dominated_list_is_a_parse_error(self, dominated):
        payload = {"method": "structural", "verdict": True, "dominated": dominated}
        with pytest.raises(ParseError, match="dominated"):
            recheck_certificate(payload, wheel(5))

    @pytest.mark.parametrize(
        "cover",
        [
            # {1, 2, 6} is a clique of the column graph K6, but not a maximal one
            [{"clique": [1, 2, 6], "row": 6}],
            [{"clique": [1, 2, 3, 4, 5, 6], "row": 7}],
            [{"clique": [1, 2, 3, 4, 5, 6], "row": 0}],
            # row 1 of N[wheel(6)] is {1, 2, 5, 6}
            [{"clique": [1, 2, 3, 4, 5, 6], "row": 1}],
        ],
        ids=["clique-not-maximal", "row-above-range", "row-zero", "row-not-the-clique"],
    )
    def test_forged_cover_rejected(self, cover):
        g = wheel(6)
        payload = is_extended_clique_node_by_cliques(closed_neighbourhood_matrix(g)).to_payload()
        assert payload["cover"] == [{"clique": [1, 2, 3, 4, 5, 6], "row": 6}]
        assert recheck_certificate(payload, g)
        payload["cover"] = cover
        assert not recheck_certificate(payload, g)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("pattern_rows", None),
            ("pattern_zeros", None),
            ("pattern_columns", None),
            ("pattern_rows", [1, 2]),
            ("pattern_zeros", [4, 5]),
            ("pattern_rows", [1, 2, 7]),
            ("pattern_rows", [0, 2, 3]),
            ("pattern_zeros", [7, 5, 6]),
            ("pattern_zeros", [0, 5, 6]),
            ("pattern_columns", [1, 2, 3, 4, 5]),
        ],
        ids=[
            "no-rows", "no-zeros", "no-columns", "two-rows", "two-zeros",
            "row-above-range", "row-zero", "zero-column-above-range", "zero-column-zero",
            "columns-not-the-extension",
        ],
    )
    def test_forged_pattern_rejected(self, field, value):
        g = web(6, 2)
        m = closed_neighbourhood_matrix(g)
        payload = is_extended_clique_node_by_pattern(m).to_payload()
        assert (payload["pattern_rows"], payload["pattern_zeros"]) == ([1, 2, 3], [4, 5, 6])
        assert recheck_certificate(payload, m)
        if value is None:
            del payload[field]
        else:
            payload[field] = value
        assert not recheck_certificate(payload, m)

    def test_tampered_witness_rejected(self):
        m = closed_neighbourhood_matrix(web(6, 2))
        payload = is_extended_clique_node_by_pattern(m).to_payload()
        payload["pattern_zeros"] = [1, 2, 3]
        assert not recheck_certificate(payload, m)

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
        assert not recheck_certificate(payload, g)

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
            recheck_certificate(payload, g)

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
        assert recheck_certificate(payload, g)
        if verdict == "missing":
            del payload["verdict"]
        else:
            payload["verdict"] = verdict
        with pytest.raises(ParseError, match="verdict"):
            recheck_certificate(payload, g)

    @pytest.mark.parametrize("method", [[], {}, None, 1, "CLIQUES"], ids=repr)
    def test_a_method_of_any_json_type_is_unknown(self, method):
        payload = {"method": method, "verdict": True}
        with pytest.raises(ValueError) as exc:
            recheck_certificate(payload, wheel(6))
        assert str(exc.value) == f"unknown certificate method {method!r}"

    def test_kind_inputs(self):
        g = three_sun()
        m = closed_neighbourhood_matrix(g)
        assert kind_inputs(g) == {"cliques": m, "pattern": m, "structural": g}
        assert kind_inputs(m) == {"cliques": m, "pattern": m, "structural": None}

    @given(connected_graphs(max_nodes=7), connected_graphs(max_nodes=7))
    @settings(max_examples=100, deadline=None)
    def test_a_graph_and_its_matrix_recheck_alike(self, g, other):
        # certificates of g itself, which hold, and of another graph, which
        # may not: either way the graph and N[G] give one answer
        m = closed_neighbourhood_matrix(g)
        exact = (is_extended_clique_node_by_cliques, is_extended_clique_node_by_pattern)
        for h in (g, other):
            for recognize in exact:
                payload = recognize(closed_neighbourhood_matrix(h)).to_payload()
                assert recheck_certificate(payload, g) == recheck_certificate(payload, m)
            payload = find_undominated_obstruction(h).to_payload()
            with pytest.raises(ValueError) as exc:
                recheck_certificate(payload, m)
            assert str(exc.value) == "structural certificates need the graph"

    def test_a_missing_instance_is_named(self):
        g = three_sun()
        payload = find_undominated_obstruction(g).to_payload()
        with pytest.raises(ValueError) as exc:
            recheck_certificate(payload, closed_neighbourhood_matrix(g))
        assert str(exc.value) == "structural certificates need the graph"

    @pytest.mark.parametrize(
        "payload",
        [
            {"method": "pattern", "verdict": False, "cover": "x"},
            {"method": "cliques", "verdict": True, "dominated": 3},
        ],
        ids=["pattern-with-cover", "cliques-with-dominated"],
    )
    def test_witness_fields_of_other_kinds_are_shape_checked(self, payload):
        with pytest.raises(ParseError):
            recheck_certificate(payload, wheel(6))

    def test_wrong_input_rejected(self):
        m = closed_neighbourhood_matrix(web(6, 2))
        payload = is_extended_clique_node_by_cliques(m).to_payload()
        other = closed_neighbourhood_matrix(complete(6))
        assert not recheck_certificate(payload, other)

    @given(
        st.one_of(JSON, CERTIFICATE_LIKE),
        st.one_of(
            connected_graphs(max_nodes=6),
            connected_graphs(max_nodes=6).map(closed_neighbourhood_matrix),
            binary_matrices(),
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_any_json_payload_gets_an_answer_or_a_library_error(self, payload, instance):
        try:
            valid = recheck_certificate(payload, instance)
        except (KpackingError, ValueError):
            return
        assert valid is True or valid is False
