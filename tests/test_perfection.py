import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings

import kpacking.perfection
from kpacking import (
    BinaryMatrix,
    CapExceededError,
    RationalPoint,
    ZeroColumnError,
    closed_neighbourhood_matrix,
    complement,
    complete,
    cycle,
    enumerate_connected_graphs,
    find_odd_hole,
    is_perfect_graph,
    is_perfect_matrix,
    perfection_report,
    polytope_vertices,
    pyramid,
    three_sun,
    web,
    wheel,
)

from helpers import tight_constraint_rank
from strategies import binary_matrices, connected_graphs


def bareiss_determinant(a):
    """Determinant of a square integer matrix by fraction-free elimination."""
    a = [list(row) for row in a]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def brute_vertices(m):
    """Reference vertex enumeration for {x in [0,1]^n : Mx <= 1}.

    Solves every n-subset of the full constraint system (rows plus both
    box bounds per coordinate) by Cramer's rule and keeps feasible
    solutions.  Subsets that pin one coordinate to both bounds are singular
    and skipped.  Exponential, so only usable for a handful of columns.
    """
    n = m.cols
    rows = [[m.entry(i, j) for j in range(1, n + 1)] for i in range(1, m.rows + 1)]
    unit = [[int(i == j) for i in range(n)] for j in range(n)]
    found = set()
    for k in range(min(len(rows), n) + 1):
        for chosen in itertools.combinations(rows, k):
            for pinned in itertools.combinations(range(n), n - k):
                for bounds in itertools.product((0, 1), repeat=n - k):
                    a = list(chosen) + [unit[j] for j in pinned]
                    b = [1] * k + list(bounds)
                    det = bareiss_determinant(a)
                    if det == 0:
                        continue
                    x = tuple(
                        Fraction(
                            bareiss_determinant(
                                [row[:i] + [rhs] + row[i + 1:] for row, rhs in zip(a, b)]
                            ),
                            det,
                        )
                        for i in range(n)
                    )
                    if any(v < 0 or v > 1 for v in x):
                        continue
                    if any(sum(c * v for c, v in zip(row, x)) > 1 for row in rows):
                        continue
                    found.add(x)
    return sorted(found)


class TestPolytopeVertices:
    def test_square_cycle_fractional_vertex(self):
        m = closed_neighbourhood_matrix(cycle(4))
        points = polytope_vertices(m)
        third = (Fraction(1, 3),) * 4
        fractional = [p.coords for p in points if not p.is_integral()]
        assert fractional == [third]

    def test_sun_fractional_vertex(self):
        m = closed_neighbourhood_matrix(three_sun())
        target = (0, 0, 0, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
        points = polytope_vertices(m)
        assert target in [p.coords for p in points]
        assert all(tight_constraint_rank(m, p) == m.cols for p in points)

    def test_octahedron_fractional_vertex(self):
        m = closed_neighbourhood_matrix(web(6, 2))
        fifth = (Fraction(1, 5),) * 6
        assert fifth in [p.coords for p in polytope_vertices(m)]

    def test_complete_graph_all_integral(self):
        m = closed_neighbourhood_matrix(complete(5))
        points = polytope_vertices(m)
        assert all(p.is_integral() for p in points)
        # exactly the zero point and the five unit points
        assert len(points) == 6

    def test_identity_gives_unit_cube(self):
        m = BinaryMatrix.from_rows([[1, 0], [0, 1]])
        assert len(polytope_vertices(m)) == 4

    def test_column_cap(self, monkeypatch):
        m = closed_neighbourhood_matrix(cycle(11))
        with pytest.raises(CapExceededError):
            polytope_vertices(m)
        monkeypatch.setattr(kpacking.perfection, "VERTEX_ENUMERATION_COLUMN_CAP", 11)
        assert len(polytope_vertices(m)) > 0

    @given(binary_matrices(max_rows=5, max_cols=4))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_subset_enumeration(self, m):
        got = [p.coords for p in polytope_vertices(m)]
        assert got == brute_vertices(m)

    def test_agrees_on_small_neighbourhood_matrices(self):
        for n in range(1, 6):
            for g in enumerate_connected_graphs(n):
                m = closed_neighbourhood_matrix(g)
                got = [p.coords for p in polytope_vertices(m)]
                assert got == brute_vertices(m)

    @given(connected_graphs(max_nodes=6))
    @settings(max_examples=60, deadline=None)
    def test_every_point_has_full_tight_rank(self, g):
        m = closed_neighbourhood_matrix(g)
        for p in polytope_vertices(m):
            assert tight_constraint_rank(m, p) == m.cols

    @pytest.mark.parametrize(
        "g, coords, rank",
        [
            (cycle(4), (Fraction(1, 6),) * 4, 0),
            (cycle(4), (Fraction(1, 2), 0, 0, 0), 3),
            # two tight rows, but they are the same row
            (complete(2), (Fraction(1, 2),) * 2, 1),
        ],
    )
    def test_tight_rank_of_points_that_are_not_vertices(self, g, coords, rank):
        point = RationalPoint(tuple(Fraction(c) for c in coords))
        assert tight_constraint_rank(closed_neighbourhood_matrix(g), point) == rank


class TestPerfectMatrix:
    def test_perfect_examples(self):
        assert is_perfect_matrix(closed_neighbourhood_matrix(complete(4)))[0]
        assert is_perfect_matrix(BinaryMatrix.from_rows([[1, 0], [0, 1]]))[0]

    def test_imperfect_with_witness(self):
        verdict, witness = is_perfect_matrix(closed_neighbourhood_matrix(cycle(4)))
        assert verdict is False
        assert witness.coords == (Fraction(1, 3),) * 4
        assert witness.as_strings() == ("1/3", "1/3", "1/3", "1/3")

    def test_zero_column_rejected(self):
        with pytest.raises(ZeroColumnError):
            is_perfect_matrix(BinaryMatrix.from_rows([[1, 0], [1, 0]]))


class TestOddHoles:
    def test_five_cycle(self):
        assert find_odd_hole(cycle(5)) == (1, 2, 3, 4, 5)

    def test_even_cycle_has_none(self):
        assert find_odd_hole(cycle(6)) is None

    def test_node_cap(self):
        with pytest.raises(CapExceededError):
            find_odd_hole(cycle(17))

    def test_perfect_graph_examples(self):
        assert is_perfect_graph(complete(6))[0]
        assert is_perfect_graph(cycle(6))[0]
        assert is_perfect_graph(three_sun())[0]

    def test_odd_hole_witness(self):
        verdict, witness = is_perfect_graph(cycle(7))
        assert verdict is False
        assert witness == ("odd_hole", (1, 2, 3, 4, 5, 6, 7))

    def test_odd_antihole_witness(self):
        verdict, witness = is_perfect_graph(complement(cycle(7)))
        assert verdict is False
        kind, nodes = witness
        assert kind == "odd_antihole"
        assert len(nodes) == 7

    def test_web_is_imperfect_only_through_its_complement(self):
        g = web(7, 2)
        assert find_odd_hole(g) is None
        verdict, witness = is_perfect_graph(g)
        assert verdict is False
        assert witness == ("odd_antihole", (1, 4, 7, 3, 6, 2, 5))


class TestPerfectionReport:
    def test_wheel_is_a_member(self):
        rep = perfection_report(wheel(6))
        assert rep.extended_clique_node
        assert rep.clique_graph_perfect
        assert rep.matrix_perfect
        assert rep.neighbourhood_matrix_perfect
        assert rep.structural_verdict
        assert rep.structural_agrees
        assert rep.fractional_vertex is None

    def test_sun_is_not_a_member(self):
        rep = perfection_report(three_sun())
        assert not rep.extended_clique_node
        assert rep.clique_graph_perfect
        assert rep.matrix_perfect is False
        assert rep.fractional_vertex.as_strings() == (
            "0/1",
            "0/1",
            "0/1",
            "1/2",
            "1/2",
            "1/2",
        )
        assert rep.unit_relaxation == Fraction(3, 2)
        assert rep.structural_verdict is False
        assert rep.structural_agrees
        assert not rep.neighbourhood_matrix_perfect

    def test_octahedron_screen_disagreement_is_reported(self):
        rep = perfection_report(web(6, 2))
        assert not rep.extended_clique_node
        assert rep.clique_graph_perfect
        assert rep.matrix_perfect is False
        assert rep.fractional_vertex.as_strings() == ("1/5",) * 6
        assert rep.structural_verdict is True
        assert rep.structural_agrees is False
        assert not rep.neighbourhood_matrix_perfect

    def test_matrix_check_skipped_beyond_cap(self):
        rep = perfection_report(cycle(12))
        assert rep.matrix_perfect is None
        assert rep.unit_relaxation is None
        assert not rep.neighbourhood_matrix_perfect

    def test_certificates_round_trip_keys(self):
        rep = perfection_report(pyramid(2))
        assert set(rep.certificates) == {"cliques", "pattern", "structural"}

    def test_refuses_oversize_graphs_before_any_work(self, monkeypatch):
        def fail(m):
            raise AssertionError("the pattern recognizer ran")

        monkeypatch.setattr(kpacking.perfection, "is_extended_clique_node_by_pattern", fail)
        with pytest.raises(CapExceededError):
            perfection_report(cycle(17))


class TestRationalPoint:
    def test_accessors(self):
        p = RationalPoint((Fraction(1, 3), Fraction(0), Fraction(1)))
        assert not p.is_integral()
        assert p.coordinate_sum() == Fraction(4, 3)
        assert p.as_strings() == ("1/3", "0/1", "1/1")

