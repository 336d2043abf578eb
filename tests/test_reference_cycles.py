import gc

from kpacking import (
    closed_neighbourhood_matrix,
    cycle,
    find_induced_cycle,
    is_isomorphic,
    perfection_report,
    polytope_vertices,
    solve_kpf,
    web,
    wheel,
)
from kpacking.perfection import _polytope_facts, _solve_system


def test_searches_leave_no_reference_cycles():
    # a search that holds itself (a recursive closure) leaves its whole state
    # to the cyclic garbage collector instead of freeing it on return
    def searches():
        is_isomorphic(web(10, 2), web(10, 2))
        find_induced_cycle(cycle(9))
        polytope_vertices(closed_neighbourhood_matrix(cycle(5)))
        solve_kpf(cycle(6), 2)
        perfection_report(web(9, 2))
        _polytope_facts(closed_neighbourhood_matrix(wheel(8)))

    # the support pass's memo of solved systems is filled, and refilled from
    # cold, under both settings of the collector
    _solve_system.cache_clear()
    searches()
    gc.collect()
    gc.disable()
    try:
        searches()
        assert gc.collect() == 0
        _solve_system.cache_clear()
        searches()
        assert gc.collect() == 0
    finally:
        gc.enable()
