import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpacking import (
    FAMILIES,
    BinaryMatrix,
    FamilyParameterError,
    FamilySpec,
    antiweb,
    circulant_matrix,
    clique_cycle_family,
    complement,
    complete,
    cycle,
    enumerate_connected_graphs,
    is_connected,
    is_isomorphic,
    parse_matrix,
    pyramid,
    three_sun,
    web,
    wheel,
)
from kpacking.families import KNOWN_CENSUS_COUNTS
from kpacking.graphs import _attach_node, _node_invariants, is_chordal

from helpers import (
    brute_canonical_code,
    degree_sequence,
    has_edge,
    neighbours,
    universal_nodes,
)

# sha256 of json.dumps([list(g.adj) for g in enumerate_connected_graphs(n)]),
# recorded before the census moved to bitmask rows and before it pruned
# neighbour sets by parent orbit: the same representatives in the same order.
# The n = 8 list takes about a second to build.
CENSUS_DIGESTS = {
    1: "db407f11d7ede59abaab0e98e097ff2dae10a048207b801745d7199ef19c2387",
    2: "ea9610e84656457b8984fb4f10806a7046e6a685dd6ca9f80baa8decfeec15fd",
    3: "f3568bb27206b8abcf06b06f951b484cf26b595d0cb87c7441321e67af4c2a3c",
    4: "759b3a5b30efe3086ddc3ae57f0529e47a2c9085dc2d72ce533b17bbef8f2bdb",
    5: "4cc19893ea89b3e3270061ad1ce592b24d4bb741fc724e61d1ea4818f314259c",
    6: "d928d149bb1deccc22f4ec47a8f110c36aa73853367fe8ec3850064fee4db326",
    7: "2ac175f5c927edee91511fca7d6045b6456849c6b3204534916d5f80f19ea167",
    8: "7a8080d8c4e38be720d825a2e75d1ffa342ab6a6935297766155d049f7010662",
}


class TestBasicFamilies:
    def test_complete(self):
        assert complete(1).edge_count() == 0
        assert complete(5).edge_count() == 10
        assert degree_sequence(complete(5)) == (4,) * 5
        with pytest.raises(FamilyParameterError, match="complete graph needs n >= 1"):
            complete(0)

    def test_cycle(self):
        g = cycle(5)
        assert g.edges() == ((1, 2), (1, 5), (2, 3), (3, 4), (4, 5))
        assert cycle(3) == complete(3)
        with pytest.raises(FamilyParameterError):
            cycle(2)

    def test_wheel_hub_is_last_label(self):
        g = wheel(7)
        assert universal_nodes(g) == (7,)
        assert degree_sequence(g) == (3, 3, 3, 3, 3, 3, 6)
        with pytest.raises(FamilyParameterError):
            wheel(3)


class TestWebs:
    def test_web_edges_by_circular_distance(self):
        g = web(6, 2)
        assert has_edge(g, 1, 2)
        assert has_edge(g, 1, 3)
        assert not has_edge(g, 1, 4)  # distance 3
        assert degree_sequence(g) == (4,) * 6

    def test_web_degenerates_to_complete(self):
        # distance bound >= floor(n/2) makes every pair adjacent
        assert web(5, 2) == complete(5)
        assert web(4, 2) == complete(4)

    def test_web_with_unit_distance_is_cycle(self):
        assert web(6, 1) == cycle(6)

    def test_antiweb(self):
        assert antiweb(7, 2) == complement(web(7, 2))
        assert antiweb(5, 1).edge_count() == 5  # complement of C5 is C5

    def test_parameter_validation(self):
        with pytest.raises(FamilyParameterError):
            web(1, 1)
        with pytest.raises(FamilyParameterError):
            web(5, 0)


class TestPyramids:
    def test_outer_edges_added_lexicographically(self):
        outer = ((4, 5), (4, 6), (5, 6))
        for j in (1, 2, 3):
            g = pyramid(j)
            assert g.n == 6
            present = [e for e in outer if has_edge(g, *e)]
            assert present == list(outer[:j])

    def test_one_more_edge_than_the_sun(self):
        assert pyramid(1).edge_count() == three_sun().edge_count() + 1

    def test_octahedron_case(self):
        assert is_isomorphic(pyramid(3), web(6, 2))

    def test_parameter_range(self):
        with pytest.raises(FamilyParameterError):
            pyramid(0)
        with pytest.raises(FamilyParameterError):
            pyramid(4)


class TestThreeSun:
    def test_shape(self):
        g = three_sun()
        assert g.n == 6
        assert degree_sequence(g) == (2, 2, 2, 4, 4, 4)
        assert is_chordal(g)
        # outer nodes 4, 5, 6 are pairwise non-adjacent
        assert not has_edge(g, 4, 5)
        assert not has_edge(g, 5, 6)
        assert not has_edge(g, 4, 6)


class TestCirculantMatrix:
    def test_row_structure(self):
        m = circulant_matrix(5, 2)
        # row i marks the two successors of i, wrapping modulo 5
        assert m == parse_matrix(
            "5 5\n"
            "01100\n"
            "00110\n"
            "00011\n"
            "10001\n"
            "11000\n"
        )

    def test_full_band(self):
        m = circulant_matrix(4, 3)
        assert all(mk.bit_count() == 3 for mk in m.row_masks)
        assert not m.has_zero_column()

    def test_parameter_range(self):
        with pytest.raises(FamilyParameterError):
            circulant_matrix(4, 4)
        with pytest.raises(FamilyParameterError):
            circulant_matrix(4, 0)


class TestCliqueCycleFamily:
    def test_smallest_member_is_the_sun(self):
        assert is_isomorphic(clique_cycle_family(1), three_sun())

    def test_structure(self):
        g = clique_cycle_family(2)
        assert g.n == 10
        evens = [v for v in g.nodes() if v % 2 == 0]
        for i, u in enumerate(evens):
            for v in evens[i + 1 :]:
                assert has_edge(g, u, v)
        assert neighbours(g, 1) == (2, 10)
        assert neighbours(g, 3) == (2, 4)

    def test_chordal_for_small_parameters(self):
        assert is_chordal(clique_cycle_family(1))
        assert is_chordal(clique_cycle_family(2))

    def test_parameter_range(self):
        with pytest.raises(FamilyParameterError):
            clique_cycle_family(0)


class TestCensus:
    def test_counts(self):
        expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
        for n, count in expected.items():
            assert sum(1 for _ in enumerate_connected_graphs(n)) == count

    def test_all_connected(self):
        for n in range(1, 7):
            for g in enumerate_connected_graphs(n):
                assert g.n == n
                assert is_connected(g)

    def test_pairwise_non_isomorphic_small(self):
        for n in range(1, 6):
            found = list(enumerate_connected_graphs(n))
            for i, g in enumerate(found):
                for h in found[i + 1 :]:
                    assert not is_isomorphic(g, h)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_complete_and_isomorph_free_by_brute_force(self, n):
        codes = {brute_canonical_code(g) for g in enumerate_connected_graphs(n)}
        assert len(codes) == KNOWN_CENSUS_COUNTS[n]

    @pytest.mark.parametrize("n", sorted(CENSUS_DIGESTS))
    def test_representatives_are_pinned(self, n):
        rows = json.dumps([list(g.adj) for g in enumerate_connected_graphs(n)])
        assert hashlib.sha256(rows.encode()).hexdigest() == CENSUS_DIGESTS[n]

    @pytest.mark.parametrize("n", range(2, 8))
    def test_attached_invariants_match_a_rebuild(self, n):
        # every neighbour set, not only one per parent orbit
        for base in enumerate_connected_graphs(n - 1):
            attach = _attach_node(base.adj)
            for r in range(1, n):
                for subset in itertools.combinations(range(n - 1), r):
                    rows, inv = attach(subset)
                    expected = [
                        row | 1 << n - 1 if v in subset else row
                        for v, row in enumerate(base.adj)
                    ]
                    assert rows == [*expected, sum(1 << v for v in subset)]
                    assert inv == _node_invariants(rows)

    def test_range_validation(self):
        with pytest.raises(FamilyParameterError):
            list(enumerate_connected_graphs(0))
        with pytest.raises(FamilyParameterError):
            list(enumerate_connected_graphs(9))


class TestFamilySpec:
    def test_build_graph(self):
        spec = FamilySpec("wheel", (5,))
        assert spec.build() == wheel(5)

    def test_build_matrix(self):
        spec = FamilySpec("circulant", (5, 2))
        assert spec.build() == circulant_matrix(5, 2)

    def test_unknown_family(self):
        with pytest.raises(FamilyParameterError):
            FamilySpec("moebius", (5,)).build()

    def test_wrong_arity(self):
        with pytest.raises(FamilyParameterError):
            FamilySpec("cycle", (4, 2)).build()

    @given(st.sampled_from(sorted(FAMILIES)))
    @settings(max_examples=20)
    def test_registry_arities_are_consistent(self, name):
        builder, arity, node_count = FAMILIES[name]
        assert arity >= 0
        # the node-count rule takes the parameters the builder takes
        assert node_count.__code__.co_argcount == arity

    @pytest.mark.parametrize(
        "name, parameters",
        [("complete", (5,)), ("cycle", (5,)), ("wheel", (5,)), ("web", (7, 2)),
         ("antiweb", (7, 2)), ("three_sun", ()), ("pyramid", (2,)),
         ("clique_cycle", (2,)), ("circulant", (5, 2))],
    )
    def test_node_count_rule_matches_the_member(self, name, parameters):
        builder, _, node_count = FAMILIES[name]
        member = builder(*parameters)
        size = member.rows if isinstance(member, BinaryMatrix) else member.n
        assert node_count(*parameters) == size

    def test_fixed_size_family_ignores_its_parameter_for_the_cap(self):
        # pyramid(j) always has 6 nodes, so a large j reaches the builder
        with pytest.raises(FamilyParameterError, match="pyramid index"):
            FamilySpec("pyramid", (5000,)).build()
