import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kpacking.perfection
from kpacking import (
    BinaryMatrix,
    CapExceededError,
    ConsistencyError,
    Graph,
    ZeroColumnError,
    antiweb,
    closed_neighbourhood_matrix,
    complement,
    complete,
    cycle,
    enumerate_connected_graphs,
    find_odd_hole,
    is_perfect_graph,
    is_perfect_matrix,
    parse_matrix,
    perfection_report,
    polytope_vertices,
    pyramid,
    three_sun,
    web,
    wheel,
)
from kpacking.graphs import is_chordal

from helpers import (
    entry,
    every_row_of_size,
    reference_class_set_systems,
    reference_fractional_supports,
    reference_polytope_facts,
    reference_row_disjoint_columns,
    square,
    tight_constraint_rank,
)
from strategies import (
    any_binary_matrices,
    binary_matrices,
    class_antichains,
    connected_graphs,
    graphs,
    pruning_matrices,
    twin_blowups,
)


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
    rows = [[entry(m, i, j) for j in range(1, n + 1)] for i in range(1, m.rows + 1)]
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
        fractional = [p for p in points if any(c.denominator != 1 for c in p)]
        assert fractional == [third]

    def test_sun_fractional_vertex(self):
        m = closed_neighbourhood_matrix(three_sun())
        target = (0, 0, 0, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
        points = polytope_vertices(m)
        assert target in points
        assert all(tight_constraint_rank(m, p) == m.cols for p in points)

    def test_octahedron_fractional_vertex(self):
        m = closed_neighbourhood_matrix(web(6, 2))
        fifth = (Fraction(1, 5),) * 6
        assert fifth in polytope_vertices(m)

    def test_complete_graph_all_integral(self):
        m = closed_neighbourhood_matrix(complete(5))
        points = polytope_vertices(m)
        assert all(c.denominator == 1 for p in points for c in p)
        # exactly the zero point and the five unit points
        assert len(points) == 6

    def test_identity_gives_unit_cube(self):
        m = parse_matrix("2 2\n10\n01\n")
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
        assert list(polytope_vertices(m)) == brute_vertices(m)

    def test_agrees_on_small_neighbourhood_matrices(self):
        for n in range(1, 6):
            for g in enumerate_connected_graphs(n):
                m = closed_neighbourhood_matrix(g)
                assert list(polytope_vertices(m)) == brute_vertices(m)

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
        point = tuple(Fraction(c) for c in coords)
        assert tight_constraint_rank(closed_neighbourhood_matrix(g), point) == rank


class TestPerfectMatrix:
    def test_perfect_examples(self):
        assert is_perfect_matrix(closed_neighbourhood_matrix(complete(4)))[0]
        assert is_perfect_matrix(parse_matrix("2 2\n10\n01\n"))[0]

    def test_imperfect_with_witness(self):
        verdict, witness = is_perfect_matrix(closed_neighbourhood_matrix(cycle(4)))
        assert verdict is False
        assert witness == (Fraction(1, 3),) * 4

    def test_zero_column_rejected(self):
        with pytest.raises(ZeroColumnError):
            is_perfect_matrix(parse_matrix("2 2\n10\n10\n"))


class TestPolytopeFacts:
    """The polytope facts and the relaxation vertex read from the fractional
    supports alone, against the same facts read off the full sorted vertex
    list."""

    @staticmethod
    def support_facts(m):
        return (
            *kpacking.perfection._polytope_facts(m),
            kpacking.perfection._relaxation_vertex(m)[1],
        )

    @staticmethod
    def report_facts(g):
        rep = perfection_report(g)
        return rep.matrix_perfect, rep.fractional_vertex, rep.unit_relaxation

    @given(graphs(max_nodes=10))
    @settings(max_examples=60, deadline=None)
    def test_report_and_matrix_verdict_on_graphs(self, g):
        for h in (g, complement(g)):
            m = closed_neighbourhood_matrix(h)
            expected = reference_polytope_facts(m)
            assert self.support_facts(m) == expected[1:]
            assert self.report_facts(h) == expected[:3]
            assert is_perfect_matrix(m) == expected[:2]

    @given(any_binary_matrices())
    @settings(max_examples=100, deadline=None)
    def test_matrices_of_any_shape(self, m):
        verdict, fractional, unit, best = reference_polytope_facts(m)
        assert self.support_facts(m) == (fractional, unit, best)
        assert kpacking.perfection._relaxation_vertex(m) == (unit, best)
        if m.has_zero_column():
            with pytest.raises(ZeroColumnError):
                is_perfect_matrix(m)
        else:
            assert is_perfect_matrix(m) == (verdict, fractional)

    def test_connected_census_to_seven_nodes(self):
        for n in range(1, 8):
            for g in enumerate_connected_graphs(n):
                m = closed_neighbourhood_matrix(g)
                expected = reference_polytope_facts(m)
                facts = self.support_facts(m)
                assert facts == expected[1:], g.edges()
                assert self.report_facts(g) == expected[:3], g.edges()


class TestSupportPass:
    """The support pass with its skip rules and shared solves, against the
    scan of every support; the starts within one support are unordered."""

    @staticmethod
    def assert_same_supports(m):
        conflict, den, starts = kpacking.perfection._fractional_supports(m)
        ref_conflict, ref_den, ref_starts = reference_fractional_supports(m)
        assert conflict == ref_conflict
        assert den == ref_den
        assert starts[0] == ref_starts[0]
        assert sorted(starts) == sorted(ref_starts)

    @given(pruning_matrices())
    @settings(max_examples=300, deadline=None)
    def test_twins_repeated_dominated_and_zero_columns(self, m):
        self.assert_same_supports(m)

    def test_connected_census_to_seven_nodes(self):
        for n in range(1, 8):
            for g in enumerate_connected_graphs(n):
                self.assert_same_supports(closed_neighbourhood_matrix(g))

    @pytest.mark.parametrize(
        "g", [complete(10), web(10, 2), web(10, 3), wheel(10), wheel(9), cycle(10)]
    )
    def test_nine_and_ten_column_graphs(self, g):
        self.assert_same_supports(closed_neighbourhood_matrix(g))

    @pytest.mark.parametrize("shift", [1, 5])
    def test_five_cycle_with_every_column_doubled(self, shift):
        # column j has its twin at j + shift (shift 1: side by side; shift 5:
        # the second copy of every column after all the first copies)
        c5 = closed_neighbourhood_matrix(cycle(5)).row_masks
        if shift == 1:
            masks = [sum(3 << 2 * j for j in range(5) if mk >> j & 1) for mk in c5]
        else:
            masks = [mk | mk << 5 for mk in c5]
        m = BinaryMatrix(5, 10, tuple(masks))
        self.assert_same_supports(m)
        # each fractional solution on F of C5's matrix comes back once per
        # choice of one twin for each column of F
        single = kpacking.perfection._fractional_supports(BinaryMatrix(5, 5, c5))[2]
        expected = 1 + sum(2 ** sum(a > 0 for a in point) for point, _, _ in single[1:])
        assert len(kpacking.perfection._fractional_supports(m)[2]) == expected

    @given(twin_blowups())
    @settings(max_examples=150, deadline=None)
    def test_twin_classes_of_up_to_three_columns(self, m):
        self.assert_same_supports(m)


class TestClassSetFilter:
    """The class sets the support pass solves, picked on truth tables over
    all sets at once, against a scan of one set at a time."""

    @staticmethod
    def assert_same_sets(rows, r):
        found = [
            (smask, sorted(maximal))
            for smask, maximal in kpacking.perfection._class_set_systems(rows, r)
        ]
        assert sorted(found) == reference_class_set_systems(rows, r)

    @given(class_antichains())
    @settings(max_examples=300, deadline=None)
    def test_antichains_of_up_to_eight_classes(self, case):
        self.assert_same_sets(*case)

    @pytest.mark.parametrize(
        "rows, r",
        [
            ([], 1),
            ([0b1], 1),
            ([0b11], 2),
            # the triangle's edges: three maximal pairs on three classes
            ([0b011, 0b110, 0b101], 3),
            # every pair of five classes, ten rows on 2**5 sets
            ([(1 << a) | (1 << b) for a in range(5) for b in range(a + 1, 5)], 5),
            # rows over all ten classes, the most the support pass meets
            ([0b1111100000, 0b0000011111, 0b1010101010, 0b0101010101], 10),
        ],
    )
    def test_edge_cases(self, rows, r):
        self.assert_same_sets(rows, r)

    @staticmethod
    def seeded_antichain(seed, r):
        """Twelve random rows over r classes cut to an antichain, as the
        support pass's undominated rows are."""
        rng = random.Random(seed)
        rows = []
        masks = {rng.randrange(1, 1 << r) for _ in range(12)}
        for mk in sorted(masks, key=int.bit_count, reverse=True):
            if not any(mk & y == mk for y in rows):
                rows.append(mk)
        rng.shuffle(rows)
        return rows

    @pytest.mark.parametrize(
        "rows, r",
        [
            # N[C9], N[C10] and N[web(10, 2)]: every column is its own class
            # and every row is undominated, so the rows are the class masks
            (list(closed_neighbourhood_matrix(cycle(9)).row_masks), 9),
            (list(closed_neighbourhood_matrix(cycle(10)).row_masks), 10),
            (list(closed_neighbourhood_matrix(web(10, 2)).row_masks), 10),
            (seeded_antichain(9, 9), 9),
            (seeded_antichain(10, 10), 10),
        ],
        ids=["cycle9", "cycle10", "web10_2", "antichain9", "antichain10"],
    )
    def test_nine_and_ten_classes(self, rows, r):
        # the Hypothesis draw above stops at eight classes
        self.assert_same_sets(rows, r)

    @pytest.mark.parametrize("r", range(7))
    def test_tables_against_their_definitions(self, r):
        meets, two, exactly = kpacking.perfection._class_set_tables(r)
        for x in range(1 << r):
            assert meets(x) == sum(1 << s for s in range(1 << r) if s & x)
            assert two(x) == sum(1 << s for s in range(1 << r) if (s & x).bit_count() >= 2)
        for k in range(r + 1):
            assert exactly[k] == sum(1 << s for s in range(1 << r) if s.bit_count() == k)

    def test_entries_are_filled_when_first_read(self):
        kpacking.perfection._class_set_tables.cache_clear()
        meets, two, _ = kpacking.perfection._class_set_tables(10)
        assert meets.cache_info().currsize == two.cache_info().currsize == 0
        rows = list(closed_neighbourhood_matrix(cycle(10)).row_masks)
        list(kpacking.perfection._class_set_systems(rows, 10))
        # one two entry per row, one meets entry per ordered pair of rows
        assert two.cache_info().currsize == len(rows)
        assert meets.cache_info().currsize == len({a & ~b for a in rows for b in rows if a != b})


class TestRowDisjointCounter:
    """rho over any column mask, by branching on its lowest column with the
    one memo ``_largest_sum`` gives it, against a brute-force independence
    number of the conflict graph."""

    @staticmethod
    def counter(m):
        return kpacking.perfection._largest_sum(*kpacking.perfection._fractional_supports(m))[1]

    def assert_same_counts(self, m, masks):
        rho = self.counter(m)
        for mask in masks:
            assert rho(mask) == reference_row_disjoint_columns(m, mask), (m, mask)

    @given(pruning_matrices(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_twins_dominated_rows_and_zero_columns(self, m, data):
        full = (1 << m.cols) - 1
        masks = data.draw(st.lists(st.integers(0, full), max_size=6))
        self.assert_same_counts(m, [full, *masks])

    @given(twin_blowups(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_twin_classes_of_up_to_three_columns(self, m, data):
        full = (1 << m.cols) - 1
        masks = data.draw(st.lists(st.integers(0, full), max_size=6))
        self.assert_same_counts(m, [full, *masks])

    def test_zero_and_lone_columns_count_once_each(self):
        # columns 1 and 2 are zero columns, column 3 is alone in its row,
        # and columns 4 and 5 share the last row
        m = BinaryMatrix(2, 5, (0b00100, 0b11000))
        self.assert_same_counts(m, range(1 << 5))
        assert self.counter(m)(0b11111) == 4

    def test_every_mask_of_the_census_up_to_six_nodes(self):
        # the full mask first, so later masks meet a memo it filled
        census = [g for n in range(1, 7) for g in enumerate_connected_graphs(n)]
        assert len(census) == 143
        for g in census:
            m = closed_neighbourhood_matrix(g)
            self.assert_same_counts(m, reversed(range(1 << m.cols)))


class TestSolvedSystemMemo:
    """The restricted systems solved once per process, in a bounded memo."""

    @staticmethod
    def census_passes():
        return [
            kpacking.perfection._fractional_supports(closed_neighbourhood_matrix(g))
            for n in range(1, 7)
            for g in enumerate_connected_graphs(n)
        ]

    def test_cold_and_warm_memo_give_the_same_passes(self):
        kpacking.perfection._solve_system.cache_clear()
        cold = self.census_passes()
        assert kpacking.perfection._solve_system.cache_info().hits > 0
        warm = self.census_passes()
        for (conflict, den, starts), (w_conflict, w_den, w_starts) in zip(cold, warm):
            assert (conflict, den, starts[0]) == (w_conflict, w_den, w_starts[0])
            assert sorted(starts) == sorted(w_starts)

    def test_memo_never_exceeds_its_bound(self):
        bound = kpacking.perfection.SOLVED_SYSTEM_MEMO_SIZE
        solve = kpacking.perfection._solve_system
        assert solve.cache_info().maxsize == bound
        solve.cache_clear()
        for n in range(1, 8):
            for g in enumerate_connected_graphs(n):
                kpacking.perfection._fractional_supports(closed_neighbourhood_matrix(g))
                assert solve.cache_info().currsize <= bound


class TestSupportPassBudget:
    """The bases the support pass may try: C(|maximal|, |S|) per class set,
    charged before the memo is read."""

    # the charge of N[antiweb(10, 3)]: no connected graph up to 8 nodes
    # charges more than 467
    ANTIWEB_BASES = 2393

    def test_exact_charge_whatever_the_memo_holds(self, monkeypatch):
        m = closed_neighbourhood_matrix(antiweb(10, 3))
        kpacking.perfection._solve_system.cache_clear()
        for cap, refused in ((self.ANTIWEB_BASES - 1, True), (self.ANTIWEB_BASES, False),
                             (self.ANTIWEB_BASES - 1, True)):
            monkeypatch.setattr(kpacking.perfection, "SUPPORT_PASS_BASIS_CAP", cap)
            if refused:
                with pytest.raises(CapExceededError, match=f"capped at {cap} bases"):
                    kpacking.perfection._fractional_supports(m)
            else:
                kpacking.perfection._fractional_supports(m)

    def test_every_five_column_row_is_refused(self):
        # 252 rows; the 10 classes alone would need C(252, 10) bases
        with pytest.raises(CapExceededError, match="support pass capped"):
            is_perfect_matrix(every_row_of_size(10, 5))


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


def berge_by_search(g):
    """The Berge verdict and witness from the two odd hole searches alone."""
    hole = find_odd_hole(g)
    if hole is not None:
        return False, ("odd_hole", hole)
    antihole = find_odd_hole(complement(g))
    if antihole is not None:
        return False, ("odd_antihole", antihole)
    return True, None


class TestBergeByElimination:
    """``is_perfect_graph`` answers chordal graphs without searching, with
    the verdict and witness the searches give."""

    def test_census_and_squares_match_the_searches(self):
        for n in range(1, 8):
            for g in enumerate_connected_graphs(n):
                for h in (g, square(g)):
                    assert is_perfect_graph(h) == berge_by_search(h)

    @given(graphs(max_nodes=10))
    @settings(max_examples=200)
    def test_matches_the_searches(self, g):
        assert is_perfect_graph(g) == berge_by_search(g)

    def test_census_coverage(self, monkeypatch):
        census = [g for n in range(1, 8) for g in enumerate_connected_graphs(n)]
        assert sum(is_chordal(square(g)) for g in census) == 970
        calls = []
        search = kpacking.perfection.find_odd_hole

        def counted(g):
            calls.append(g.n)
            return search(g)

        monkeypatch.setattr(kpacking.perfection, "find_odd_hole", counted)
        reports = [perfection_report(g) for g in census]
        # both searches on each of the 26 squares that are not chordal
        assert len(calls) == 52
        assert sum(not r.clique_graph_perfect for r in reports) == 1

    def test_cap_comes_before_elimination(self):
        message = "odd hole search capped at 16 nodes"
        with pytest.raises(CapExceededError, match=f"^{message}$"):
            is_perfect_graph(complete(17))
        path = Graph.from_edges(17, [(v, v + 1) for v in range(1, 17)])
        with pytest.raises(CapExceededError, match=f"^{message}$"):
            perfection_report(path)


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
        half = Fraction(1, 2)
        assert rep.fractional_vertex == (0, 0, 0, half, half, half)
        assert rep.unit_relaxation == Fraction(3, 2)
        assert rep.structural_verdict is False
        assert rep.structural_agrees
        assert not rep.neighbourhood_matrix_perfect

    def test_octahedron_screen_disagreement_is_reported(self):
        rep = perfection_report(web(6, 2))
        assert not rep.extended_clique_node
        assert rep.clique_graph_perfect
        assert rep.matrix_perfect is False
        assert rep.fractional_vertex == (Fraction(1, 5),) * 6
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

    def test_exact_recognizers_must_agree(self, monkeypatch):
        real = kpacking.perfection.is_extended_clique_node_by_pattern

        def flipped(m):
            cert = real(m)
            return dataclasses.replace(cert, verdict=not cert.verdict)

        monkeypatch.setattr(kpacking.perfection, "is_extended_clique_node_by_pattern", flipped)
        with pytest.raises(
            ConsistencyError, match="^exact recognizers disagree: cliques=True pattern=False$"
        ):
            perfection_report(wheel(6))

    def test_polytope_check_must_agree(self, monkeypatch):
        half = (Fraction(1, 2),) * 6
        monkeypatch.setattr(kpacking.perfection, "_polytope_facts", lambda m: (half, 3))
        with pytest.raises(
            ConsistencyError,
            match="^polytope check disagrees with combined verdict: matrix=False combined=True$",
        ):
            perfection_report(wheel(6))

    def test_refuses_oversize_graphs_before_any_work(self, monkeypatch):
        def fail(m):
            raise AssertionError("the pattern recognizer ran")

        monkeypatch.setattr(kpacking.perfection, "is_extended_clique_node_by_pattern", fail)
        with pytest.raises(CapExceededError):
            perfection_report(cycle(17))

