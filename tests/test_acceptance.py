"""End-to-end acceptance checks for the whole package.

Each test records a single verdict that the conftest hook prints as an
"ACCEPTANCE <name>: PASS/FAIL" line after the run. Every check is stated
exactly as claimed; where exhaustive computation contradicts a claim the
test is left to fail rather than being weakened to match the code.
"""

from fractions import Fraction

from kpacking import (
    circulant_matrix,
    clique_cycle_family,
    clique_graph,
    closed_neighbourhood_matrix,
    complete,
    cycle,
    enumerate_connected_graphs,
    find_undominated_obstruction,
    induced_cycles,
    is_extended_clique_node_by_cliques,
    is_extended_clique_node_by_pattern,
    is_isomorphic,
    is_perfect_graph,
    is_perfect_matrix,
    lp_relaxation,
    perfection_report,
    polytope_vertices,
    solve_kpf,
    solve_kpf_bruteforce,
    solve_limited_packing,
    three_sun,
    web,
    wheel,
)
from kpacking.graphs import is_chordal

from conftest import record_acceptance
from helpers import universal_nodes


def conclude(name, failures):
    record_acceptance(name, not failures)
    detail = "; ".join(failures[:10])
    if len(failures) > 10:
        detail += f"; ... {len(failures) - 10} more"
    assert not failures, detail


def exact_verdict(g):
    m = closed_neighbourhood_matrix(g)
    a = is_extended_clique_node_by_cliques(m).verdict
    b = is_extended_clique_node_by_pattern(m).verdict
    assert a == b
    return a


def test_fixture_values():
    """Named small-graph optima and recognizer rejections."""
    failures = []

    sun = three_sun()
    if solve_limited_packing(sun, 1).optimum != 1:
        failures.append("unit packing number of the sun is not 1")
    if solve_kpf(sun, 3).optimum != 4:
        failures.append("weighted optimum of the sun at k=3 is not 4")

    # Every node of the square lies in exactly 3 of the 4 closed
    # neighbourhoods, so summing the 4 constraints gives 3 * sum f <= 4k and
    # L_k <= floor(4k/3); (2,1,1,1) at k=4 and (3,1,1,1) at k=5 reach it.
    square = cycle(4)
    for k in (1, 2, 4, 5):
        want = 4 * k // 3
        got = solve_kpf(square, k).optimum
        if got != want:
            failures.append(f"square at k={k}: claimed {want}, computed {got}")

    for n in (4, 5, 6):
        g = cycle(n)
        if exact_verdict(g) or find_undominated_obstruction(g).verdict:
            failures.append(f"cycle({n}) not rejected by every recognizer")
    if exact_verdict(sun) or find_undominated_obstruction(sun).verdict:
        failures.append("sun not rejected by every recognizer")

    conclude("fixture-values", failures)


def test_recognizer_equivalence():
    """All three recognizers give the same verdict on every connected graph
    with at most 7 nodes."""
    failures = []
    for n in range(1, 8):
        for g in enumerate_connected_graphs(n):
            exact = exact_verdict(g)
            screen = find_undominated_obstruction(g).verdict
            if exact != screen:
                failures.append(
                    f"n={n} edges={g.edges()}: exact={exact} structural={screen}"
                )
    conclude("recognizer-equivalence", failures)


def test_perfection_cross_check():
    """Exact vertex enumeration agrees with the recognizer-based criterion
    on every connected graph with at most 6 nodes."""
    failures = []
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            m = closed_neighbourhood_matrix(g)
            by_vertices = is_perfect_matrix(m)[0]
            gq_perfect = is_perfect_graph(clique_graph(m))[0]
            by_structure = exact_verdict(g) and gq_perfect
            if by_vertices != by_structure:
                failures.append(f"n={n} edges={g.edges()}")
    conclude("perfection-cross-check", failures)


def test_perfect_scaling_identity():
    """Perfect neighbourhood matrices scale the unit packing number exactly;
    the two inequalities bounding the weighted optimum hold everywhere."""
    failures = []
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            unit = solve_limited_packing(g, 1).optimum
            perfect = is_perfect_matrix(closed_neighbourhood_matrix(g))[0]
            for k in (2, 3, 4):
                kpf = solve_kpf(g, k).optimum
                limited = solve_limited_packing(g, k).optimum
                if kpf < k * unit or limited > kpf:
                    failures.append(f"n={n} k={k} edges={g.edges()}: bounds violated")
                if perfect and kpf != k * unit:
                    failures.append(
                        f"n={n} k={k} edges={g.edges()}: perfect but {kpf} != {k * unit}"
                    )
    conclude("perfect-scaling-identity", failures)


def test_circulant_threshold():
    """Banded circulant matrices are accepted exactly when the order is at
    least three times the band width minus two."""
    failures = []
    for n in range(4, 14):
        for k in (1, 2, 3):
            if k + 1 > n - 1:
                continue  # band exceeds the generator's domain (only n=4, k=3)
            m = circulant_matrix(n, k + 1)
            accepted = is_extended_clique_node_by_cliques(m).verdict
            if is_extended_clique_node_by_pattern(m).verdict != accepted:
                failures.append(f"n={n} k={k}: exact methods disagree")
            if accepted != (n >= 3 * k + 1):
                failures.append(f"n={n} k={k}: accepted={accepted}")
    conclude("circulant-threshold", failures)


def test_web_threshold():
    """Webs have perfect neighbourhood matrices exactly when they are
    complete, and the two clique-graph identities hold."""
    failures = []
    for n in range(2, 13):
        for k in (1, 2, 3, 4):
            member = perfection_report(web(n, k)).neighbourhood_matrix_perfect
            if member != (n <= 2 * k + 1):
                failures.append(f"web({n},{k}): member={member}")
    if not is_isomorphic(clique_graph(closed_neighbourhood_matrix(cycle(5))), complete(5)):
        failures.append("clique graph of the 5-cycle neighbourhoods is not K5")
    if not is_isomorphic(clique_graph(closed_neighbourhood_matrix(cycle(6))), web(6, 2)):
        failures.append("clique graph of the 6-cycle neighbourhoods is not web(6,2)")
    conclude("web-threshold", failures)


def test_universal_node_membership():
    """A universal node forces a perfect neighbourhood matrix and a complete
    clique graph; wheels in particular are members."""
    failures = []
    seen = 0
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            if not universal_nodes(g):
                continue
            seen += 1
            rep = perfection_report(g)
            if not rep.neighbourhood_matrix_perfect:
                failures.append(f"n={n} edges={g.edges()}: not a member")
            gq = clique_graph(closed_neighbourhood_matrix(g))
            if gq != complete(n):
                failures.append(f"n={n} edges={g.edges()}: clique graph incomplete")
    if seen != 53:
        failures.append(f"expected 53 universal-node graphs up to n=6, saw {seen}")
    for n in range(4, 13):
        if not perfection_report(wheel(n)).neighbourhood_matrix_perfect:
            failures.append(f"wheel({n}) not a member")
    conclude("universal-node-membership", failures)


def test_clique_cycle_family():
    """The chordal family whose clique graph nevertheless acquires an
    induced 5-cycle at the second member."""
    failures = []
    for k in (1, 2):
        if not is_chordal(clique_cycle_family(k)):
            failures.append(f"member {k} is not chordal")
    g = clique_cycle_family(2)
    gq = clique_graph(closed_neighbourhood_matrix(g))
    hole = next((c for c in induced_cycles(gq, min_length=5) if len(c) % 2), None)
    if hole is None or len(hole) != 5:
        failures.append("clique graph of member 2 has no induced 5-cycle")
    if is_perfect_graph(gq)[0]:
        failures.append("clique graph of member 2 is perfect")
    if perfection_report(g).neighbourhood_matrix_perfect:
        failures.append("member 2 reported as a member of the perfect family")
    conclude("clique-cycle-family", failures)


def test_solver_oracle():
    """Branch-and-bound equals exhaustive search on every connected graph
    with at most 5 nodes, and the relaxation scales exactly linearly."""
    failures = []
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            base = lp_relaxation(g, 1)[0]
            for k in (1, 2, 3, 4):
                fast = solve_kpf(g, k).optimum
                slow = solve_kpf_bruteforce(g, k).optimum
                if fast != slow:
                    failures.append(f"n={n} k={k} edges={g.edges()}: {fast} != {slow}")
                if lp_relaxation(g, k)[0] != k * base:
                    failures.append(f"n={n} k={k} edges={g.edges()}: relaxation not linear")
    conclude("solver-oracle", failures)


def test_fractional_vertex_witness():
    """The square's neighbourhood polytope has exactly one non-integral
    vertex and the perfection check reports it."""
    failures = []
    m = closed_neighbourhood_matrix(cycle(4))
    third = (Fraction(1, 3),) * 4
    fractional = [
        p for p in polytope_vertices(m) if any(c.denominator != 1 for c in p)
    ]
    if fractional != [third]:
        failures.append(f"non-integral vertices: {fractional}")
    verdict, witness = is_perfect_matrix(m)
    if verdict is not False or witness != third:
        failures.append("perfection check did not flag the fractional vertex")
    conclude("fractional-vertex-witness", failures)
