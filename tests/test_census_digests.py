"""Byte-identity gate for the perfection layers over the n <= 7 census.

The vertex and screen digests below were recorded before the vertex
enumeration and the structural screen were rewritten for speed, and the
cliques digest before the maximal clique search got its work budget, each
by running this module's ``census_digests`` on the previous implementation:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import test_census_digests as t; print(t.census_digests())"

Each digest is the sha256 of one JSON line per connected graph with n <= 7
(996 graphs, in ``enumerate_connected_graphs`` order for n = 1..7): the
vertex list of ``N[G]`` as ``as_strings`` tuples, the structural screen's
certificate payload, and the cliques recognizer's certificate payload for
``N[G]``.  Any change to one of these outputs, including a reordering,
changes its digest.
"""

import hashlib
import json

from kpacking import (
    closed_neighbourhood_matrix,
    enumerate_connected_graphs,
    find_undominated_obstruction,
    is_extended_clique_node_by_cliques,
    polytope_vertices,
)

VERTICES_DIGEST = "05223d82e758b36cee0fc5abf6741eec8357523f2dbb03c54fd7e7b6a9e173e4"
SCREEN_DIGEST = "256f909050a6357609eb50bca6723823b7f57aee4ce89d1a5e2129f065953fe5"
CLIQUES_DIGEST = "ce56c8710c0471bd746712512a0edd3beb4674c90d8b1e094c6ff7f09c3e6346"


def census_digests() -> tuple[str, str, str]:
    vertices = hashlib.sha256()
    screen = hashlib.sha256()
    cliques = hashlib.sha256()
    count = 0
    for n in range(1, 8):
        for g in enumerate_connected_graphs(n):
            count += 1
            m = closed_neighbourhood_matrix(g)
            points = [p.as_strings() for p in polytope_vertices(m)]
            vertices.update(json.dumps(points).encode() + b"\n")
            payload = find_undominated_obstruction(g).to_payload()
            screen.update(json.dumps(payload, sort_keys=True).encode() + b"\n")
            payload = is_extended_clique_node_by_cliques(m).to_payload()
            cliques.update(json.dumps(payload, sort_keys=True).encode() + b"\n")
    assert count == 996
    return vertices.hexdigest(), screen.hexdigest(), cliques.hexdigest()


def test_census_outputs_are_byte_identical():
    assert census_digests() == (VERTICES_DIGEST, SCREEN_DIGEST, CLIQUES_DIGEST)
