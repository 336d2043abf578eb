"""Byte-identity gate for the perfection layers over the n <= 7 census.

The vertex and screen digests below were recorded before the vertex
enumeration and the structural screen were rewritten for speed, the cliques
digest before the maximal clique search got its work budget, the relaxation
digest before ``lp_relaxation`` stopped listing vertices, and the report
digest before the report's mask walks, derived graphs and support-pass
filter were made cheaper, each by running this module's ``census_digests``
on the previous implementation.  The relaxation, vertex and report digests
also gated the support pass's move to per-width truth tables and to a rho
table over twin classes, with the relaxation witness computed only for
``lp_relaxation``, and the table's later replacement by memoized branching;
they passed unchanged.  The digests are recomputed with:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import test_census_digests as t; print(t.census_digests())"

Each digest is the sha256 of one JSON line per connected graph with n <= 7
(996 graphs, in ``enumerate_connected_graphs`` order for n = 1..7): the
vertex list of ``N[G]`` with each coordinate as a "p/q" string, the
structural screen's certificate payload, the cliques recognizer's
certificate payload for ``N[G]``, the value and unit vertex of
``lp_relaxation(G, 1)`` as "p/q" strings, and every field of
``perfection_report(G)``: each verdict, the ``G^2`` witness, the fractional
vertex and the unit relaxation as "p/q" strings, and the three certificate
payloads.  Any change to one of these outputs, including a reordering,
changes its digest.
"""

import dataclasses
import hashlib
import json
from fractions import Fraction

from kpacking import (
    RecognitionCertificate,
    closed_neighbourhood_matrix,
    enumerate_connected_graphs,
    find_undominated_obstruction,
    is_extended_clique_node_by_cliques,
    lp_relaxation,
    perfection_report,
    polytope_vertices,
)
from kpacking.cli import _rat

VERTICES_DIGEST = "05223d82e758b36cee0fc5abf6741eec8357523f2dbb03c54fd7e7b6a9e173e4"
SCREEN_DIGEST = "256f909050a6357609eb50bca6723823b7f57aee4ce89d1a5e2129f065953fe5"
CLIQUES_DIGEST = "ce56c8710c0471bd746712512a0edd3beb4674c90d8b1e094c6ff7f09c3e6346"
RELAXATION_DIGEST = "1430bd9e945141bf1089e701603ea4775180045446586e333c506da268b73e6e"
REPORT_DIGEST = "184f2287488691009f0c29e2e8c4a321ed4388decf90ea545870f22082d68f38"


def _plain(value):
    """``value`` with fractions as "p/q", certificates as their payloads and
    tuples as lists, ready for ``json.dumps``."""
    if isinstance(value, Fraction):
        return _rat(value)
    if isinstance(value, RecognitionCertificate):
        return value.to_payload()
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


def census_digests() -> tuple[str, str, str, str, str]:
    vertices = hashlib.sha256()
    screen = hashlib.sha256()
    cliques = hashlib.sha256()
    relaxation = hashlib.sha256()
    report = hashlib.sha256()
    count = 0
    for n in range(1, 8):
        for g in enumerate_connected_graphs(n):
            count += 1
            m = closed_neighbourhood_matrix(g)
            points = [list(map(_rat, p)) for p in polytope_vertices(m)]
            vertices.update(json.dumps(points).encode() + b"\n")
            payload = find_undominated_obstruction(g).to_payload()
            screen.update(json.dumps(payload, sort_keys=True).encode() + b"\n")
            payload = is_extended_clique_node_by_cliques(m).to_payload()
            cliques.update(json.dumps(payload, sort_keys=True).encode() + b"\n")
            value, point = lp_relaxation(g, 1)
            line = [_rat(value), list(map(_rat, point))]
            relaxation.update(json.dumps(line).encode() + b"\n")
            rep = perfection_report(g)
            fields = {f.name: _plain(getattr(rep, f.name)) for f in dataclasses.fields(rep)}
            report.update(json.dumps(fields, sort_keys=True).encode() + b"\n")
    assert count == 996
    return (
        vertices.hexdigest(),
        screen.hexdigest(),
        cliques.hexdigest(),
        relaxation.hexdigest(),
        report.hexdigest(),
    )


def test_census_outputs_are_byte_identical():
    assert census_digests() == (
        VERTICES_DIGEST,
        SCREEN_DIGEST,
        CLIQUES_DIGEST,
        RELAXATION_DIGEST,
        REPORT_DIGEST,
    )
