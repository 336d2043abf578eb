"""Byte-identity gate for the perfection layers over the n <= 7 census.

The two digests below were recorded before the vertex enumeration and the
structural screen were rewritten for speed, by running this module's
``census_digests`` on the previous implementation:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import test_census_digests as t; print(t.census_digests())"

Each digest is the sha256 of one JSON line per connected graph with n <= 7
(996 graphs, in ``enumerate_connected_graphs`` order for n = 1..7): the
vertex list of ``N[G]`` as ``as_strings`` tuples, and the structural
screen's certificate payload.  Any change to either output, including a
reordering, changes its digest.
"""

import hashlib
import json

from kpacking import (
    closed_neighbourhood_matrix,
    enumerate_connected_graphs,
    find_undominated_obstruction,
    polytope_vertices,
)

VERTICES_DIGEST = "05223d82e758b36cee0fc5abf6741eec8357523f2dbb03c54fd7e7b6a9e173e4"
SCREEN_DIGEST = "256f909050a6357609eb50bca6723823b7f57aee4ce89d1a5e2129f065953fe5"


def census_digests() -> tuple[str, str]:
    vertices = hashlib.sha256()
    screen = hashlib.sha256()
    count = 0
    for n in range(1, 8):
        for g in enumerate_connected_graphs(n):
            count += 1
            points = [p.as_strings() for p in polytope_vertices(closed_neighbourhood_matrix(g))]
            vertices.update(json.dumps(points).encode() + b"\n")
            payload = find_undominated_obstruction(g).to_payload()
            screen.update(json.dumps(payload, sort_keys=True).encode() + b"\n")
    assert count == 996
    return vertices.hexdigest(), screen.hexdigest()


def test_census_outputs_are_byte_identical():
    assert census_digests() == (VERTICES_DIGEST, SCREEN_DIGEST)
