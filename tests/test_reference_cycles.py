import gc

from kpacking import (
    closed_neighbourhood_matrix,
    cycle,
    find_induced_cycle,
    is_isomorphic,
    polytope_vertices,
    solve_kpf,
    web,
)


def test_searches_leave_no_reference_cycles():
    # a search that holds itself (a recursive closure) leaves its whole state
    # to the cyclic garbage collector instead of freeing it on return
    def searches():
        is_isomorphic(web(10, 2), web(10, 2))
        find_induced_cycle(cycle(9))
        polytope_vertices(closed_neighbourhood_matrix(cycle(5)))
        solve_kpf(cycle(6), 2)

    searches()
    gc.collect()
    gc.disable()
    try:
        searches()
        assert gc.collect() == 0
    finally:
        gc.enable()
