"""The paper's chain rho <= rho_f <= gamma on the census up to 7 nodes.

rho is the packing number (``solve_limited_packing(g, 1)``), rho_f its
rational relaxation (``unit_relaxation``) and gamma the domination number:
a dominating set meets every closed neighbourhood, and the relaxation of
domination is the dual of the relaxation of packing.  A perfect ``N[G]``
makes both relaxations integral, so the whole chain collapses.
"""

import math

import pytest

from kpacking import (
    complete,
    cycle,
    enumerate_connected_graphs,
    lp_relaxation,
    perfection_report,
    solve_kpf,
    solve_limited_packing,
    three_sun,
    wheel,
)

from helpers import domination_number


@pytest.fixture(scope="module")
def census_facts():
    """(graph, rho, rho_f, gamma, perfect N[G], D) per census graph with at
    most 7 nodes, D being the least common denominator of the relaxation's
    unit vertex."""
    facts = []
    for n in range(1, 8):
        for g in enumerate_connected_graphs(n):
            rep = perfection_report(g)
            _, point = lp_relaxation(g, 1)
            den = math.lcm(*(x.denominator for x in point))
            facts.append((
                g,
                solve_limited_packing(g, 1).optimum,
                rep.unit_relaxation,
                domination_number(g),
                rep.neighbourhood_matrix_perfect,
                den,
            ))
    return facts


def test_domination_number_of_small_graphs():
    # a node of a cycle dominates itself and its two neighbours
    assert [domination_number(cycle(n)) for n in range(3, 10)] == [1, 2, 2, 2, 3, 3, 3]
    assert domination_number(complete(5)) == 1
    assert domination_number(wheel(6)) == 1
    # no triangle node meets all three ears; rho = 1 < rho_f = 3/2 < gamma = 2
    assert domination_number(three_sun()) == 2


def test_packing_relaxation_and_domination_are_ordered(census_facts):
    assert len(census_facts) == 996
    for g, rho, rho_f, gamma, _, _ in census_facts:
        assert rho <= rho_f <= gamma, list(g.edges())


def test_a_perfect_matrix_closes_the_chain(census_facts):
    perfect = [f for f in census_facts if f[4]]
    tight = [f for f in census_facts if f[1] == f[3]]
    integral = [f for f in census_facts if f[1] == f[2]]
    for g, rho, _, gamma, _, _ in perfect:
        assert rho == gamma, list(g.edges())
    for g, rho, rho_f, _, _, _ in tight:
        assert rho == rho_f, list(g.edges())
    assert (len(perfect), len(tight), len(integral)) == (440, 733, 733)


def test_scaling_holds_exactly_when_the_relaxation_is_integral(census_facts):
    scaling = 0
    for g, rho, rho_f, _, _, den in census_facts:
        optima = {k: solve_kpf(g, k).optimum for k in range(1, max(den, 4) + 1)}
        assert optima[1] == rho
        holds = all(value == k * rho for k, value in optima.items())
        assert holds == (rho == rho_f), list(g.edges())
        scaling += holds
        if rho < rho_f:
            # the relaxation's vertex scaled by D is an integer packing
            assert optima[den] == den * rho_f, list(g.edges())
    assert scaling == 733
