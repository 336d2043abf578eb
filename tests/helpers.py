"""Reference helpers that only the tests use."""

import itertools

from kpacking import Graph, induced_subgraph, is_connected, is_isomorphic, three_sun


def relabel(g: Graph, mapping: dict[int, int]) -> Graph:
    """Apply a bijection old-label -> new-label."""
    if sorted(mapping) != list(g.nodes()) or sorted(mapping.values()) != list(g.nodes()):
        raise ValueError("mapping must be a bijection on 1..n")
    return Graph.from_edges(g.n, [(mapping[u], mapping[v]) for u, v in g.edges()])


def maximal_cliques_bruteforce(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Reference oracle: scan all 2^n node subsets.  Intended for n <= 7."""
    cliques = []
    for size in range(1, g.n + 1):
        for members in itertools.combinations(g.nodes(), size):
            if not all(g.has_edge(u, v) for u, v in itertools.combinations(members, 2)):
                continue
            # maximal iff no outside node is adjacent to every member
            if any(
                all(g.has_edge(w, u) for u in members)
                for w in g.nodes()
                if w not in members
            ):
                continue
            cliques.append(members)
    return tuple(sorted(cliques))


def reference_screen(g: Graph):
    """Reference structural screen: classify every 4-, 5- and 6-node subset by
    building its induced subgraph, then its degree sequence, connectivity and
    an isomorphism test against the 3-sun.

    Returns (verdict, obstruction kind, obstruction nodes, dominated) in the
    shape of the library's structural certificate.
    """
    sun = three_sun()
    dominated = []
    for size in (4, 5, 6):
        for subset in itertools.combinations(g.nodes(), size):
            sub = induced_subgraph(g, subset)
            degs = sub.degree_sequence()
            if all(d == 2 for d in degs):
                if not is_connected(sub):
                    continue
                kind = f"cycle{size}"
            elif degs == (2, 2, 2, 4, 4, 4) and is_isomorphic(sub, sun):
                kind = "sun"
            else:
                continue
            outside = [v for v in g.nodes() if v not in subset]
            dom = next(
                (v for v in outside if all(g.has_edge(v, u) for u in subset)), None
            )
            if dom is None:
                return False, kind, subset, None
            dominated.append((kind, subset, dom))
    return True, None, None, tuple(dominated)
