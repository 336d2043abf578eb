"""Generators for the graph and matrix families the test suites exercise."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import CapExceededError, FamilyParameterError
from .graphs import (
    GRAPH_FILE_NODE_CAP,
    BinaryMatrix,
    Graph,
    _attach_node,
    _bit,
    _invariant_classes,
    _isomorphic,
    _isomorphisms,
    _node_invariants,
    _placement,
    complement,
)


def complete(n: int) -> Graph:
    if n < 1:
        raise FamilyParameterError("complete graph needs n >= 1")
    return Graph.from_edges(n, itertools.combinations(range(1, n + 1), 2))


def cycle(n: int) -> Graph:
    if n < 3:
        raise FamilyParameterError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def wheel(n: int) -> Graph:
    """Cycle on nodes 1..n-1 plus the hub node n adjacent to all of them."""
    if n < 4:
        raise FamilyParameterError("wheel needs n >= 4")
    rim = [(i, i + 1) for i in range(1, n - 1)] + [(1, n - 1)]
    return Graph.from_edges(n, rim + [(i, n) for i in range(1, n)])


def _circular_distance(i: int, j: int, n: int) -> int:
    d = abs(i - j)
    return min(d, n - d)


def web(n: int, k: int) -> Graph:
    """Nodes 1..n arranged in a circle; ij is an edge iff circular distance <= k."""
    if n < 2 or k < 1:
        raise FamilyParameterError("web needs n >= 2 and k >= 1")
    return Graph.from_edges(
        n,
        (
            (i, j)
            for i, j in itertools.combinations(range(1, n + 1), 2)
            if _circular_distance(i, j, n) <= k
        ),
    )


def antiweb(n: int, k: int) -> Graph:
    return complement(web(n, k))


def three_sun() -> Graph:
    """Inner triangle {1,2,3}; outer nodes 4,5,6 each adjacent to one inner pair."""
    return Graph.from_edges(
        6, [(1, 2), (2, 3), (1, 3), (1, 4), (2, 4), (2, 5), (3, 5), (1, 6), (3, 6)]
    )


_PYRAMID_EDGES = ((4, 5), (4, 6), (5, 6))


def pyramid(j: int) -> Graph:
    """Sun with j extra edges among the outer nodes, added in fixed lex order.

    Any placement of j outer edges gives the same graph up to isomorphism;
    the fixed order keeps fixtures deterministic.
    """
    if j not in (1, 2, 3):
        raise FamilyParameterError("pyramid index must be 1, 2 or 3")
    base = three_sun()
    return Graph.from_edges(6, list(base.edges()) + list(_PYRAMID_EDGES[:j]))


def circulant_matrix(n: int, k: int) -> BinaryMatrix:
    """n x n matrix whose row i marks the k cyclically following columns i+1..i+k."""
    if not 1 <= k <= n - 1:
        raise FamilyParameterError("circulant matrix needs 1 <= k <= n-1")
    masks = []
    for i in range(1, n + 1):
        m = 0
        for t in range(1, k + 1):
            col = (i + t - 1) % n + 1
            m |= _bit(col)
        masks.append(m)
    return BinaryMatrix(n, n, tuple(masks))


def clique_cycle_family(k: int) -> Graph:
    """Cycle-like graph on 4k+2 nodes: the even nodes form a clique and each odd
    node is adjacent exactly to its two circular neighbours (node 1 to 2 and 4k+2).
    """
    if k < 1:
        raise FamilyParameterError("clique cycle family needs k >= 1")
    n = 4 * k + 2
    evens = range(2, n + 1, 2)
    edges = list(itertools.combinations(evens, 2))
    for odd in range(1, n + 1, 2):
        before = n if odd == 1 else odd - 1
        edges.append(tuple(sorted((odd, before))))
        edges.append((odd, odd + 1))
    return Graph.from_edges(n, sorted(set(edges)))


# ---------------------------------------------------------------------------
# connected graph census

# isomorphism classes of connected graphs per node count (OEIS A001349); its
# keys are the node counts the census supports
KNOWN_CENSUS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


@functools.lru_cache(maxsize=None)
def _census(n: int) -> tuple[Graph, ...]:
    if n == 1:
        return (Graph(1, (0,)),)
    # every connected graph arises from a connected graph on n-1 nodes by
    # attaching node n to a nonempty neighbour set; a candidate is kept unless
    # it is isomorphic to a kept graph with the same sorted node invariants.
    # Two neighbour sets that an automorphism of the parent maps onto each
    # other give isomorphic candidates, so only the first set of each orbit
    # that the walk reaches is tried: every later one would be rejected as
    # isomorphic to that first candidate or to the graph that rejected it.
    # The kept graphs and their order are those of trying every set, and
    # stay so for any subset of the automorphisms, so the identity is left
    # out.  A candidate's invariants are updated from its parent's.
    buckets: dict[tuple, list] = {}
    out: list[Graph] = []
    identity = tuple(range(n - 1))
    for base in _census(n - 1):
        inv_base = _node_invariants(base.adj)
        classes_base = _invariant_classes(inv_base)
        plan = _placement(base.adj, inv_base, classes_base)
        autos = [
            p for p in _isomorphisms(plan, base.adj, classes_base) if p != identity
        ]
        attach = _attach_node(base.adj)
        reached: set[int] = set()
        for r in range(1, n):
            for subset in itertools.combinations(range(n - 1), r):
                row = 0
                for v in subset:
                    row |= 1 << v
                if row in reached:
                    continue
                for perm in autos:
                    image = 0
                    for v in subset:
                        image |= 1 << perm[v]
                    reached.add(image)
                adj, inv = attach(subset)
                classes = _invariant_classes(inv)
                bucket = buckets.setdefault(tuple(sorted(inv)), [])
                # the invariant multiset is fixed within a bucket, so each
                # kept graph's placement, built once, serves every candidate
                if any(_isomorphic(kept, adj, classes) for kept in bucket):
                    continue
                bucket.append(_placement(adj, inv, classes))
                # node n joins both rows of each new edge, so the rows stay
                # a valid graph's
                out.append(Graph._unchecked(n, tuple(adj)))
    return tuple(out)


def _check_census_size(n: int) -> None:
    if n not in KNOWN_CENSUS_COUNTS:
        raise FamilyParameterError(
            f"census supports 1 <= n <= {max(KNOWN_CENSUS_COUNTS)}"
        )


def enumerate_connected_graphs(n: int):
    """One representative per isomorphism class of connected graphs on n nodes."""
    _check_census_size(n)
    yield from _census(n)


# ---------------------------------------------------------------------------
# registry used by the command line front end


@dataclass(frozen=True)
class FamilySpec:
    """A named family member: which generator and which integer parameters."""

    family: str
    parameters: tuple[int, ...]

    def build(self):
        entry = FAMILIES.get(self.family)
        if entry is None:
            raise FamilyParameterError(f"unknown family {self.family!r}")
        builder, arity, node_count = entry
        if len(self.parameters) != arity:
            raise FamilyParameterError(
                f"family {self.family!r} takes {arity} parameter(s), "
                f"got {len(self.parameters)}"
            )
        # checked before building, because building costs time quadratic in n
        if node_count(*self.parameters) > GRAPH_FILE_NODE_CAP:
            raise CapExceededError(
                f"family members are capped at {GRAPH_FILE_NODE_CAP} nodes"
            )
        return builder(*self.parameters)


# name -> (builder, parameter count, node count of the member built from
# those parameters)
FAMILIES = {
    "complete": (complete, 1, lambda n: n),
    "cycle": (cycle, 1, lambda n: n),
    "wheel": (wheel, 1, lambda n: n),
    "web": (web, 2, lambda n, k: n),
    "antiweb": (antiweb, 2, lambda n, k: n),
    "three_sun": (three_sun, 0, lambda: 6),
    "pyramid": (pyramid, 1, lambda j: 6),
    "clique_cycle": (clique_cycle_family, 1, lambda k: 4 * k + 2),
    "circulant": (circulant_matrix, 2, lambda n, k: n),
}
