"""Recognizers deciding whether a 0/1 matrix is an extended clique-node matrix.

Three verdict paths are provided:

* ``cliques``   : compare the maximal cliques of the column intersection graph
                  against the row supports (the defining property).
* ``pattern``   : search for a forbidden 3-row pattern: three columns carrying
                  pairwise-complementary zeros, extended by every column where
                  all three rows agree on 1, with no row covering the extension.
* ``structural``: a graph-side screen that looks for small undominated induced
                  subgraphs (4/5/6-cycles and the 3-sun).  It only applies to
                  closed neighbourhood matrices.  The first two paths are exact
                  and provably equivalent; the structural screen is reported
                  separately because it can disagree (see README).

Each path returns a :class:`RecognitionCertificate` whose witness can be
re-checked independently via :func:`recheck_certificate`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CapExceededError, ConsistencyError, ParseError, ZeroColumnError
from .graphs import (
    BinaryMatrix,
    Graph,
    _bit,
    _bits,
    _connected_within,
    _mask_of,
    closed_neighbourhood_matrix,
    maximal_cliques,
)

# the screen tries about n**6 / 720 node subsets: 1.0 s at n = 24 (cycle(24),
# 2-vCPU x86-64 VM, Python 3.11)
STRUCTURAL_SCREEN_NODE_CAP = 24
# row triples visited plus extension checks made by one pattern search; a run
# stopped by it ends in 6.5-8.5 s on the VM above (random dense 64 x 64 matrix)
PATTERN_WORK_CAP = 4 * 10**6


@dataclass(frozen=True)
class RecognitionCertificate:
    """Outcome of one recognizer run, with a re-checkable witness.

    Exactly one witness group is populated, depending on method and verdict:
    cover / uncovered_clique for ``cliques``, pattern_* for ``pattern``,
    obstruction_* / dominated for ``structural``.
    """

    method: str
    verdict: bool
    cover: tuple[tuple[tuple[int, ...], int], ...] | None = None
    uncovered_clique: tuple[int, ...] | None = None
    pattern_columns: tuple[int, ...] | None = None
    pattern_rows: tuple[int, int, int] | None = None
    pattern_zeros: tuple[int, int, int] | None = None
    obstruction_kind: str | None = None
    obstruction_nodes: tuple[int, ...] | None = None
    dominated: tuple[tuple[str, tuple[int, ...], int], ...] | None = None

    def to_payload(self) -> dict:
        out = {"method": self.method, "verdict": self.verdict}
        if self.cover is not None:
            out["cover"] = [
                {"clique": list(cl), "row": row} for cl, row in self.cover
            ]
        if self.uncovered_clique is not None:
            out["uncovered_clique"] = list(self.uncovered_clique)
        if self.pattern_columns is not None:
            out["pattern_columns"] = list(self.pattern_columns)
            out["pattern_rows"] = list(self.pattern_rows)
            out["pattern_zeros"] = list(self.pattern_zeros)
        if self.obstruction_nodes is not None:
            out["obstruction_kind"] = self.obstruction_kind
            out["obstruction_nodes"] = list(self.obstruction_nodes)
        if self.dominated is not None:
            out["dominated"] = [
                {"kind": kind, "nodes": list(nodes), "dominator": dom}
                for kind, nodes, dom in self.dominated
            ]
        return out


def clique_graph(m: BinaryMatrix) -> Graph:
    """Graph on the columns of ``m``; two columns are adjacent iff some row has
    a 1 in both positions.  Undefined when a column is all zeros.
    """
    if m.has_zero_column():
        raise ZeroColumnError("column intersection graph undefined: zero column")
    adj = [0] * m.cols
    for row in m.row_masks:
        for j in _bits(row):
            adj[j - 1] |= row & ~_bit(j)
    return Graph(m.cols, tuple(adj))


def _check_recognizer_input(m: BinaryMatrix) -> None:
    if not m.is_square():
        raise ValueError("recognizers expect a square matrix")
    if m.has_zero_column():
        raise ZeroColumnError("recognizers expect no zero columns")
    if any(mask == 0 for mask in m.row_masks):
        raise ValueError("recognizers expect no zero rows")


def is_extended_clique_node_by_cliques(m: BinaryMatrix) -> RecognitionCertificate:
    """Accept iff every maximal clique of the column intersection graph occurs
    as the support of some row.  Negative witness: the first uncovered maximal
    clique in lexicographic order.
    """
    _check_recognizer_input(m)
    return _cliques_certificate(m, clique_graph(m))


def _cliques_certificate(m: BinaryMatrix, gq: Graph) -> RecognitionCertificate:
    """``is_extended_clique_node_by_cliques`` on a checked ``m`` whose column
    intersection graph ``gq`` the caller has already built.
    """
    for i, mask in enumerate(m.row_masks, start=1):
        # holds by construction of gq; a failure would mean a bug here
        if any(mask & ~_bit(j) & ~gq.adj[j - 1] for j in _bits(mask)):
            raise ConsistencyError(f"row {i} support is not a clique")
    support_row = {}
    for i, mask in enumerate(m.row_masks, start=1):
        support_row.setdefault(mask, i)
    cover = []
    for cl in maximal_cliques(gq):
        row = support_row.get(_mask_of(cl))
        if row is None:
            return RecognitionCertificate("cliques", False, uncovered_clique=cl)
        cover.append((cl, row))
    return RecognitionCertificate("cliques", True, cover=tuple(cover))


def _lex_less(x: int, y: int) -> bool:
    """Whether the ascending labels of mask ``x`` come lexicographically
    before those of mask ``y``.  Below the lowest label in exactly one of
    them the two agree; the mask holding that label wins unless the other
    one ends there.
    """
    diff = x ^ y
    low = diff & -diff
    return y >= low if x & low else x < low


def _pattern_work_exceeded(cap: int) -> CapExceededError:
    return CapExceededError(f"pattern recognizer did more than {cap} units of work")


def is_extended_clique_node_by_pattern(m: BinaryMatrix) -> RecognitionCertificate:
    """Accept iff no 3-row forbidden pattern exists.

    For each row triple (a,b,c) and columns ca, cb, cc where exactly the rows
    b,c / a,c / a,b carry 1s, the maximally extended column set is the triple
    plus every column where all three rows are 1.  A matrix passing this test
    passes it for every sub-extension too, so checking maximal extensions only
    is exhaustive; a missing covering row is itself the violation witness.
    Negative witness: minimal (column set, row triple) in lexicographic order.

    Raises ``CapExceededError`` once the row triples visited plus the
    extension checks made exceed ``PATTERN_WORK_CAP``.
    """
    _check_recognizer_input(m)
    work_cap = PATTERN_WORK_CAP
    work = 0
    rows = m.row_masks
    best = None
    for a, ra in enumerate(rows):
        for b in range(a + 1, m.rows):
            rb = rows[b]
            # the row triples (a, b, c) about to be visited
            work += m.rows - b - 1
            if work > work_cap:
                raise _pattern_work_exceeded(work_cap)
            only_b, only_a, both = ~ra & rb, ra & ~rb, ra & rb
            for c in range(b + 1, m.rows):
                rc = rows[c]
                za = only_b & rc
                zb = only_a & rc
                zc = both & ~rc
                if not (za and zb and zc):
                    continue
                work += za.bit_count() * zb.bit_count() * zc.bit_count()
                if work > work_cap:
                    raise _pattern_work_exceeded(work_cap)
                common = both & rc
                carriers = [r for r in rows if r & common == common]
                for ca in _bits(za):
                    for cb in _bits(zb):
                        pair = _bit(ca) | _bit(cb)
                        carriers2 = [r for r in carriers if r & pair == pair]
                        for cc in _bits(zc):
                            ext = common | pair | _bit(cc)
                            if any(r & ext == ext for r in carriers2):
                                continue
                            # a later row triple never beats an equal column set
                            if best is None or _lex_less(ext, best[0]):
                                best = (ext, (a + 1, b + 1, c + 1), (ca, cb, cc))
    if best is None:
        return RecognitionCertificate("pattern", True)
    ext, row_triple, zeros = best
    return RecognitionCertificate(
        "pattern",
        False,
        pattern_columns=tuple(_bits(ext)),
        pattern_rows=row_triple,
        pattern_zeros=zeros,
    )


_OBSTRUCTION_SIZES = (4, 5, 6)


def _obstruction_kind(g: Graph, mask: int) -> str | None:
    """Kind of the subgraph that ``mask`` induces in ``g``: "cycle<size>" for
    an induced cycle, "sun" for a 3-sun, else None.  Only the sizes the
    screen scans have a kind.
    """
    size = mask.bit_count()
    if size not in _OBSTRUCTION_SIZES:
        return None
    degs = [(g.adj[v - 1] & mask).bit_count() for v in _bits(mask)]
    if degs == [2] * size:
        return f"cycle{size}" if _connected_within(g, mask) else None
    # These degrees force a 3-sun: each degree-4 node has at least 2 edges to
    # the degree-2 nodes, which have only 6 edge ends between them.  So the
    # degree-4 nodes form a triangle, the degree-2 nodes have no edge, and
    # the 6 edges between the two sides form a 6-cycle.
    if sorted(degs) == [2, 2, 2, 4, 4, 4]:
        return "sun"
    return None


def _dominator(g: Graph, mask: int) -> int | None:
    """The least node outside ``mask`` adjacent to every node in it, or None."""
    return next(
        (v for v in g.nodes() if not mask & _bit(v) and g.adj[v - 1] & mask == mask),
        None,
    )


def find_undominated_obstruction(g: Graph) -> RecognitionCertificate:
    """Graph-side screen: scan induced 4/5/6-cycles and 3-suns; accept iff each
    one has an outside node adjacent to all of its nodes (containment may be
    exact).  Negative witness: the first undominated subgraph, scanning sizes
    ascending and node subsets in lexicographic order.

    The screen is one-sided.  A rejection means ``N[G]`` is not an extended
    clique-node matrix.  An acceptance does not mean that it is: the exact
    recognizers reject two accepted graphs on 6 nodes, one of them the
    octahedron ``web(6, 2)``, whose column intersection graph is ``K6`` with
    a single maximal clique that is no row of ``N[G]``.

    Raises ``CapExceededError`` above ``STRUCTURAL_SCREEN_NODE_CAP`` nodes.
    """
    if g.n > STRUCTURAL_SCREEN_NODE_CAP:
        raise CapExceededError(
            f"structural screen capped at {STRUCTURAL_SCREEN_NODE_CAP} nodes"
        )
    singles = [_bit(v) for v in g.nodes()]
    dominated = []
    for size in _OBSTRUCTION_SIZES:
        if size > g.n:
            break
        for bits in itertools.combinations(singles, size):
            mask = sum(bits)
            kind = _obstruction_kind(g, mask)
            if kind is None:
                continue
            subset = tuple(_bits(mask))
            dom = _dominator(g, mask)
            if dom is None:
                return RecognitionCertificate(
                    "structural",
                    False,
                    obstruction_kind=kind,
                    obstruction_nodes=subset,
                )
            dominated.append((kind, subset, dom))
    return RecognitionCertificate("structural", True, dominated=tuple(dominated))


# ---------------------------------------------------------------------------
# certificate re-verification


def recheck_certificate(
    payload: dict, *, graph: Graph | None = None, matrix: BinaryMatrix | None = None
) -> bool:
    """Independently validate an emitted certificate against its instance.

    ``structural`` certificates need the graph; the other methods need the
    matrix (pass the closed neighbourhood matrix when the instance is a graph).
    Positive certificates are rechecked by rerunning the recognizer; negative
    ones by validating the stored witness directly.  A payload of the wrong
    JSON shape raises ParseError.
    """
    _check_payload_shape(payload)
    method = payload.get("method")
    verdict = payload["verdict"]
    if method in ("cliques", "pattern"):
        if matrix is None:
            if graph is None:
                raise ValueError("certificate recheck needs a matrix or graph")
            matrix = closed_neighbourhood_matrix(graph)
        if method == "cliques":
            return _recheck_cliques(payload, matrix, verdict)
        return _recheck_pattern(payload, matrix, verdict)
    if method == "structural":
        if graph is None:
            raise ValueError("structural certificates need the graph")
        return _recheck_structural(payload, graph, verdict)
    raise ValueError(f"unknown certificate method {method!r}")


def _is_int_list(value) -> bool:
    # exact type, because JSON true/false load as bool, a subclass of int
    return isinstance(value, list) and all(type(x) is int for x in value)


def _check_payload_shape(payload) -> None:
    if not isinstance(payload, dict):
        raise ParseError("certificate must be a JSON object")
    # exact type: a verdict read by truthiness would accept "no" or 1
    if type(payload.get("verdict")) is not bool:
        raise ParseError("certificate field 'verdict' must be a JSON boolean")
    for field in ("uncovered_clique", "pattern_columns", "pattern_rows",
                  "pattern_zeros", "obstruction_nodes"):
        if field in payload and not _is_int_list(payload[field]):
            raise ParseError(f"certificate field {field!r} must be a list of integers")
    cover = payload.get("cover", [])
    if not isinstance(cover, list) or not all(
        isinstance(item, dict) and _is_int_list(item.get("clique"))
        and type(item.get("row")) is int for item in cover
    ):
        raise ParseError("certificate cover items need a 'clique' list and a 'row' integer")


def _recheck_cliques(payload: dict, m: BinaryMatrix, verdict: bool) -> bool:
    gq = clique_graph(m)
    cliques = set(maximal_cliques(gq))
    supports = {m.row_masks[i] for i in range(m.rows)}
    if verdict:
        cover = payload.get("cover", [])
        covered = set()
        for item in cover:
            cl = tuple(item["clique"])
            row = item["row"]
            if cl not in cliques:
                return False
            if not 1 <= row <= m.rows or m.row_masks[row - 1] != _mask_of(cl):
                return False
            covered.add(cl)
        return covered == cliques
    cl = tuple(payload.get("uncovered_clique", ()))
    return cl in cliques and _mask_of(cl) not in supports


def _recheck_pattern(payload: dict, m: BinaryMatrix, verdict: bool) -> bool:
    if verdict:
        return is_extended_clique_node_by_pattern(m).verdict
    try:
        rows, zeros = payload["pattern_rows"], payload["pattern_zeros"]
        cols = payload["pattern_columns"]
    except KeyError:
        return False
    if len(rows) != 3 or len(zeros) != 3 or not all(1 <= r <= m.rows for r in rows):
        return False
    masks = [m.row_masks[r - 1] for r in rows]
    for i, col in enumerate(zeros):
        if not 1 <= col <= m.cols:
            return False
        bit = _bit(col)
        # zero column i misses row i of the three and lies in the other two
        if any(bool(r & bit) == (j == i) for j, r in enumerate(masks)):
            return False
    ext = (masks[0] & masks[1] & masks[2]) | _mask_of(zeros)
    if tuple(_bits(ext)) != tuple(cols):
        return False
    return not any(r & ext == ext for r in m.row_masks)


def _recheck_structural(payload: dict, g: Graph, verdict: bool) -> bool:
    if verdict:
        return find_undominated_obstruction(g).verdict
    nodes = payload.get("obstruction_nodes", [])
    # the screen emits distinct labels in ascending order
    if not nodes or nodes != sorted(set(nodes)) or nodes[0] < 1 or nodes[-1] > g.n:
        return False
    mask = _mask_of(nodes)
    kind = _obstruction_kind(g, mask)
    if kind is None or kind != payload.get("obstruction_kind"):
        return False
    return _dominator(g, mask) is None
