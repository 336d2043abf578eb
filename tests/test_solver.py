import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kpacking.solver
from kpacking import (
    CapExceededError,
    ConsistencyError,
    Graph,
    PackingFunction,
    check_scaling_identity,
    clique_cycle_family,
    closed_neighbourhood_matrix,
    complement,
    complete,
    cycle,
    enumerate_connected_graphs,
    lp_relaxation,
    perfection_report,
    scaling_reports,
    solve_kpf,
    solve_kpf_bruteforce,
    solve_limited_bruteforce,
    solve_limited_packing,
    three_sun,
    web,
    wheel,
)

from helpers import reference_branch_and_bound, reference_polytope_facts
from strategies import connected_graphs, graphs


class TestPackingFunction:
    def test_objective_and_feasibility(self):
        g = cycle(4)
        f = PackingFunction(values=(2, 1, 1, 1), k=4)
        assert f.objective() == 5
        assert not f.is_binary()
        assert f.is_feasible(g)
        assert not PackingFunction(values=(3, 1, 1, 1), k=4).is_feasible(g)

    def test_binary(self):
        assert PackingFunction(values=(0, 1, 0), k=2).is_binary()


class TestSolveFixtures:
    def test_square_series(self):
        # optimum over the 4-cycle grows as floor(4k/3)
        got = [solve_kpf(cycle(4), k).optimum for k in range(1, 7)]
        assert got == [1, 2, 4, 5, 6, 8]
        assert got == [4 * k // 3 for k in range(1, 7)]

    def test_sun_values(self):
        g = three_sun()
        assert solve_limited_packing(g, 1).optimum == 1
        assert solve_kpf(g, 3).optimum == 4
        assert solve_kpf(g, 3).witness.values == (1, 0, 0, 1, 1, 1)
        assert solve_limited_packing(g, 3).optimum == 4

    def test_complete_graph(self):
        for k in (1, 2, 5):
            assert solve_kpf(complete(6), k).optimum == k

    def test_single_node(self):
        assert solve_kpf(Graph.from_edges(1, []), 7).optimum == 7

    def test_weighted_beats_binary(self):
        # one high-degree node can absorb value the binary variant cannot
        g = Graph.from_edges(4, [(1, 2), (1, 3), (2, 4)])
        assert solve_kpf(g, 3).optimum == 6
        assert solve_limited_packing(g, 3).optimum == 4

    def test_witness_is_always_feasible(self):
        for g in (cycle(5), wheel(6), web(7, 2), three_sun()):
            for k in (1, 2, 3):
                res = solve_kpf(g, k)
                assert res.witness.is_feasible(g)
                assert res.witness.objective() == res.optimum

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            solve_kpf(cycle(4), 0)

    def test_node_cap(self):
        assert solve_kpf(complete(24), 2).optimum == 2
        with pytest.raises(CapExceededError):
            solve_kpf(wheel(30), 2)

    def test_bruteforce_state_cap(self):
        with pytest.raises(CapExceededError):
            solve_kpf_bruteforce(cycle(9), 9)

    def test_explored_cap(self, monkeypatch):
        monkeypatch.setattr(kpacking.solver, "SOLVER_EXPLORED_CAP", 1000)
        assert solve_kpf(cycle(5), 10).explored == 310
        with pytest.raises(CapExceededError, match="explored more than 1000"):
            solve_kpf(cycle(5), 20)  # explores 4176 children uncapped


# (graph, k, solve_kpf (optimum, explored), solve_limited_packing (...)):
# any change to the search order or the bound must update this table
SEARCH_TREES = [
    ("cycle(11)", cycle(11), 5, (18, 10378), (11, 22)),
    ("cycle(5)", cycle(5), 20, (33, 4176), (5, 10)),
    ("wheel(8)", wheel(8), 2, (2, 70), (2, 60)),
    ("three_sun", three_sun(), 2, (3, 42), (3, 34)),
    ("clique_cycle(2)", clique_cycle_family(2), 2, (5, 138), (5, 110)),
    ("web(9,2)", web(9, 2), 3, (5, 60), (5, 14)),
    # sparse at high k: most later rows miss the assigned node's row
    ("cycle(13)", cycle(13), 5, (21, 29002), (13, 26)),
    # dense: most later rows meet it
    ("web(12,2)", web(12, 2), 3, (7, 392), (7, 44)),
    ("wheel(14)", wheel(14), 3, (3, 1027), (3, 737)),
]


@pytest.mark.parametrize(
    "g, k, kpf, limited", [case[1:] for case in SEARCH_TREES],
    ids=[case[0] for case in SEARCH_TREES],
)
def test_search_tree_is_pinned(g, k, kpf, limited):
    res = solve_kpf(g, k)
    assert (res.optimum, res.explored) == kpf
    res = solve_limited_packing(g, k)
    assert (res.optimum, res.explored) == limited


@given(graphs(max_nodes=10), st.booleans(), st.integers(1, 4))
@settings(max_examples=120, deadline=None)
def test_search_matches_the_reference_search(g, dense, k):
    # The solver computes each later row's cap as min(a_j, b_j - t) from pairs
    # made once per node, where the reference takes the least residual over
    # the row for every child.  A b_j below a_j + top for a row that misses
    # the assigned row gives caps that are too low: with k + 1 in its place
    # the integer variant pruned optimal children, and check_scaling_identity
    # raised ConsistencyError.  The complement of a sparse draw is dense, so
    # that most later rows meet the assigned one.
    if dense:
        g = complement(g)
    for solve, unit_values in ((solve_kpf, False), (solve_limited_packing, True)):
        got = solve(g, k)
        want = reference_branch_and_bound(g, k, unit_values)
        assert (got.optimum, got.explored, got.witness.values, got.node_order) == (
            want.optimum, want.explored, want.witness.values, want.node_order,
        )


class TestSolverAgainstBruteForce:
    def test_exhaustive_small_census(self):
        for n in range(1, 5):
            for g in enumerate_connected_graphs(n):
                for k in (1, 2, 3):
                    fast = solve_kpf(g, k)
                    slow = solve_kpf_bruteforce(g, k)
                    assert fast.optimum == slow.optimum
                    assert fast.witness.is_feasible(g)
                    assert fast.witness.objective() == slow.optimum

    def test_limited_variant_matches(self):
        for n in range(1, 5):
            for g in enumerate_connected_graphs(n):
                fast = solve_limited_packing(g, 2)
                slow = solve_limited_bruteforce(g, 2)
                assert fast.optimum == slow.optimum
                assert fast.witness.is_binary()
                assert fast.witness.is_feasible(g)

    @given(connected_graphs(max_nodes=7), st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_limited_variant_matches_random_graphs(self, g, k):
        assert solve_limited_packing(g, k).optimum == solve_limited_bruteforce(g, k).optimum

    def test_regular_graph_witnesses_match_exactly(self):
        # on regular graphs the search order equals label order, so the
        # deterministic witnesses of both solvers coincide
        for g in (cycle(4), cycle(5), complete(4), web(6, 2)):
            for k in (1, 2, 3):
                assert solve_kpf(g, k).witness == solve_kpf_bruteforce(g, k).witness

    def test_deterministic_across_calls(self):
        g = wheel(6)
        assert solve_kpf(g, 3) == solve_kpf(g, 3)

    @given(connected_graphs(max_nodes=6), st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_random_graphs(self, g, k):
        assert solve_kpf(g, k).optimum == solve_kpf_bruteforce(g, k).optimum


class TestOrderInvariants:
    @given(connected_graphs(min_nodes=2, max_nodes=7), st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_value_dominance(self, g, k):
        kpf = solve_kpf(g, k).optimum
        limited = solve_limited_packing(g, k).optimum
        unit = solve_limited_packing(g, 1).optimum
        assert limited <= kpf
        assert k * unit <= kpf

    @given(connected_graphs(min_nodes=2, max_nodes=6), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_superadditive_in_k(self, g, a, b):
        # gluing feasible functions for a and b is feasible for a + b
        lhs = solve_kpf(g, a + b).optimum
        assert lhs >= solve_kpf(g, a).optimum + solve_kpf(g, b).optimum


class TestRelaxation:
    def test_square(self):
        value, point = lp_relaxation(cycle(4), 1)
        assert value == Fraction(4, 3)
        assert point == (Fraction(1, 3),) * 4

    def test_sun(self):
        assert lp_relaxation(three_sun(), 1)[0] == Fraction(3, 2)
        assert lp_relaxation(three_sun(), 3)[0] == Fraction(9, 2)

    def test_complete(self):
        assert lp_relaxation(complete(5), 4)[0] == 4

    @given(connected_graphs(max_nodes=6), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_upper_bounds_the_integer_optimum(self, g, k):
        assert solve_kpf(g, k).optimum <= lp_relaxation(g, k)[0]

    @given(connected_graphs(max_nodes=6), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_scales_linearly_in_k(self, g, k):
        assert lp_relaxation(g, k)[0] == k * lp_relaxation(g, 1)[0]

    @given(graphs(max_nodes=10), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_first_maximizer_of_the_vertex_list(self, g, k):
        _, _, unit, best = reference_polytope_facts(closed_neighbourhood_matrix(g))
        assert lp_relaxation(g, k) == (k * unit, best)


class TestScalingReport:
    def test_perfect_case_reaches_equality(self):
        rep = check_scaling_identity(wheel(6), 3)
        assert rep.neighbourhood_perfect
        assert rep.equality
        assert rep.kpf_value == rep.k_times_l1 == 3

    def test_imperfect_case_exceeds(self):
        rep = check_scaling_identity(cycle(4), 4)
        assert rep.neighbourhood_perfect is False
        assert not rep.equality
        assert rep.kpf_value == 5
        assert rep.k_times_l1 == 4
        assert rep.lp_value == Fraction(16, 3)

    def test_large_graph_skips_perfection(self):
        rep = check_scaling_identity(cycle(17), 2)
        assert rep.neighbourhood_perfect is None
        assert rep.kpf_value >= rep.k_times_l1

    def test_reports_over_ks_match_one_k_at_a_time(self):
        ks = (1, 2, 3, 4)
        for n in range(1, 7):
            for g in enumerate_connected_graphs(n):
                assert scaling_reports(g, ks, perfection_report(g)) == tuple(
                    check_scaling_identity(g, k) for k in ks
                )

    def test_violation_names_its_k(self, monkeypatch):
        real = kpacking.solver.solve_kpf

        def short(g, k):
            res = real(g, k)
            return dataclasses.replace(res, optimum=res.optimum - 1)

        monkeypatch.setattr(kpacking.solver, "solve_kpf", short)
        with pytest.raises(ConsistencyError, match="^k=3: integer optimum 2 below"):
            scaling_reports(wheel(6), (3,), perfection_report(wheel(6)))

    @given(connected_graphs(max_nodes=6), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_relaxation_matches_the_reference(self, g, k):
        assert check_scaling_identity(g, k).lp_value == lp_relaxation(g, k)[0]
