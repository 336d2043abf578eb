import dataclasses
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
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

    @pytest.mark.parametrize(
        "values",
        [(1, 1, 1), (1, 1, 1, 1, 1), (-1, 1, 1, 1), (5, 0, 0, 0)],
        ids=["too-short", "too-long", "negative", "above-k"],
    )
    def test_wrong_length_or_range_is_infeasible(self, values):
        # each closed neighbourhood of an edgeless graph is one node, so a
        # negative value passes every neighbourhood sum
        g = Graph(4, (0, 0, 0, 0))
        assert PackingFunction(values=values, k=4).is_feasible(g) is False

    def test_binary(self):
        assert PackingFunction(values=(0, 1, 0), k=2).is_binary()


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
    # long sparse searches that revisit many equal subtrees, which the memo
    # replays
    ("cycle(16),k=5", cycle(16), 5, (26, 629811), (16, 32)),
    ("cycle(14),k=5", cycle(14), 5, (23, 218717), (14, 28)),
    ("cycle(16),k=4", cycle(16), 4, (21, 166464), (16, 32)),
]


EXPLORED = [(solve_kpf, g, k, kpf[1]) for _, g, k, kpf, _ in SEARCH_TREES] + [
    (solve_limited_packing, g, k, lim[1]) for _, g, k, _, lim in SEARCH_TREES
]
EXPLORED_IDS = [f"kpf-{case[0]}" for case in SEARCH_TREES] + [
    f"limited-{case[0]}" for case in SEARCH_TREES
]
# a generous bound on the traced bytes of one memo entry, its key tuple and
# stored count included; measured entries take about 150 B
MEMO_ENTRY_BYTES = 200


def assert_cap_is_exact(monkeypatch, solve, g, k, explored):
    monkeypatch.setattr(kpacking.solver, "SOLVER_EXPLORED_CAP", explored)
    assert solve(g, k).explored == explored
    monkeypatch.setattr(kpacking.solver, "SOLVER_EXPLORED_CAP", explored - 1)
    over = f"explored more than {explored - 1} "
    with pytest.raises(CapExceededError, match=over):
        solve(g, k)


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

    @pytest.mark.parametrize(
        "solve",
        [solve_kpf, solve_limited_packing, solve_kpf_bruteforce, solve_limited_bruteforce,
         lp_relaxation],
        ids=lambda f: f.__name__,
    )
    @pytest.mark.parametrize("k", [0, -1])
    def test_every_solver_refuses_k_below_one(self, solve, k):
        with pytest.raises(ValueError) as exc:
            solve(cycle(4), k)
        assert str(exc.value) == "the packing bound k must be a positive integer"

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

    @pytest.mark.parametrize("solve, g, k, explored", EXPLORED, ids=EXPLORED_IDS)
    def test_explored_cap_is_exact(self, monkeypatch, solve, g, k, explored):
        # a node's children are counted when the search enters it; the cap
        # must still stop exactly the searches that count past it
        assert_cap_is_exact(monkeypatch, solve, g, k, explored)

    @pytest.mark.parametrize("solve, g, k, explored", EXPLORED, ids=EXPLORED_IDS)
    def test_explored_cap_is_exact_with_the_memo_on(
        self, monkeypatch, solve, g, k, explored
    ):
        # a replay adds a whole subtree's count at once; the cap must still
        # stop exactly the searches that count past it
        monkeypatch.setattr(kpacking.solver, "SOLVER_MEMO_THRESHOLD", 0)
        assert_cap_is_exact(monkeypatch, solve, g, k, explored)

    def test_memo_memory_is_bounded(self, monkeypatch):
        # this capped search keys far more distinct subtrees than the memo
        # takes: without the entry limit it stored 26,082 of them, a traced
        # peak of 4.2 MB, against 2.3 MB with it
        monkeypatch.setattr(kpacking.solver, "SOLVER_EXPLORED_CAP", 400_000)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError):
                solve_kpf(cycle(7), 40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < kpacking.solver.SOLVER_MEMO_ENTRIES * MEMO_ENTRY_BYTES


@pytest.mark.parametrize(
    "g, k, kpf, limited", [case[1:] for case in SEARCH_TREES],
    ids=[case[0] for case in SEARCH_TREES],
)
def test_search_tree_is_pinned(g, k, kpf, limited):
    res = solve_kpf(g, k)
    assert (res.optimum, res.explored) == kpf
    res = solve_limited_packing(g, k)
    assert (res.optimum, res.explored) == limited


def assert_same_search(g, k):
    for solve, unit_values in ((solve_kpf, False), (solve_limited_packing, True)):
        got = solve(g, k)
        want = reference_branch_and_bound(g, k, unit_values)
        assert (got.optimum, got.explored, got.witness.values, got.node_order) == (
            want.optimum, want.explored, want.witness.values, want.node_order,
        )


@given(graphs(max_nodes=10), st.booleans(), st.integers(1, 4))
@settings(max_examples=120, deadline=None)
def test_search_matches_the_reference_search(g, dense, k):
    # The solver passes the sum of the later caps down the search, lowers it
    # per child by the drops of the later rows that meet the assigned row
    # only, and counts a node's children when it enters the node; the
    # reference takes the least residual over every later row for every
    # child.  The complement of a sparse draw is dense, so that most later
    # rows meet the assigned one.
    if dense:
        g = complement(g)
    assert_same_search(g, k)


@pytest.mark.parametrize(
    "entries", [0, 1, kpacking.solver.SOLVER_MEMO_ENTRIES], ids=["none", "one", "default"]
)
@given(graphs(max_nodes=10), st.booleans(), st.integers(1, 4))
# two subtrees with equal frontier residuals but unequal slack: a key without
# the slack replays the wrong count here
@example(
    Graph.from_edges(7, [(1, 2), (1, 3), (1, 4), (2, 5), (5, 6), (5, 7), (6, 7)]), False, 2
)
# a search that replays nothing: solve_kpf keys 471 nodes with no hit, so a
# memo of 0 or 1 entries fills, is dropped, and the run keys no further node
@example(cycle(5), False, 20)
@settings(max_examples=120, deadline=None)
def test_memo_replays_the_reference_search(entries, g, dense, k):
    # With the memo on from the first node, every subtree that found no
    # better packing is stored and replayed; however few entries the memo
    # may take, the optimum, the witness and the count must not change, and
    # a cap one below the count must still raise when the search's last
    # count is a replay.
    if dense:
        g = complement(g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kpacking.solver, "SOLVER_MEMO_THRESHOLD", 0)
        mp.setattr(kpacking.solver, "SOLVER_MEMO_ENTRIES", entries)
        assert_same_search(g, k)
        counts = [(solve, solve(g, k).explored) for solve in (solve_kpf, solve_limited_packing)]
        for solve, explored in counts:
            assert_cap_is_exact(mp, solve, g, k, explored)


def seeded_sparse_graph(seed: int) -> Graph:
    """G(n, 0.3) with n = 10, 11 or 12, from a fixed seed."""
    rng = random.Random(seed)
    n = 10 + seed % 3
    pairs = itertools.combinations(range(1, n + 1), 2)
    return Graph.from_edges(n, [e for e in pairs if rng.random() < 0.3])


# sparse cells at high k, which the draw above rarely reaches: most later rows
# miss the assigned row, and many nodes take values above 1
SPARSE_CELLS = (
    [(f"cycle({n}),k={k}", cycle(n), k) for n in range(10, 14) for k in (4, 5)]
    + [(f"web({n},2),k=3", web(n, 2), 3) for n in range(10, 15)]
    + [
        (f"G(n,0.3)#{seed},k={k}", seeded_sparse_graph(seed), k)
        for seed in range(6)
        for k in (1, 2, 3)
    ]
)


@pytest.mark.parametrize(
    "g, k", [cell[1:] for cell in SPARSE_CELLS], ids=[cell[0] for cell in SPARSE_CELLS]
)
def test_sparse_search_matches_the_reference_search(g, k):
    assert_same_search(g, k)


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
