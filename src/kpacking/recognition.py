"""Recognizers deciding whether a 0/1 matrix is an extended clique-node matrix.

Three verdict paths are provided:

* ``cliques``   : compare the maximal cliques of the column intersection graph
                  against the row supports (the defining property).
* ``pattern``   : search for a forbidden 3-row pattern: three columns carrying
                  pairwise-complementary zeros, extended by every column where
                  all three rows agree on 1, with no row covering the extension.
* ``structural``: a graph-side screen that looks for small undominated induced
                  subgraphs (4/5/6-cycles and the 3-sun), listing them from a
                  bounded induced cycle search and from triangles with three
                  ears rather than from node subsets.  It only applies to
                  closed neighbourhood matrices.  The first two paths are exact
                  and provably equivalent; the structural screen is reported
                  separately because it can disagree (see README).

Each path returns a :class:`RecognitionCertificate` whose witness can be
re-checked independently via :func:`recheck_certificate`.  ``CERTIFICATE_KINDS``
maps each path's name to its recognizer and its recheck.
"""

from __future__ import annotations

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
    induced_cycles,
    maximal_cliques,
)

# the screen lists the induced cycles up to length 6 and the 3-suns: at n = 24
# it takes at most 11 ms on cycle(24), K_{12,12} and seeded connected G(24, p)
# for p = 0.3, 0.5, 0.7, and 19 ms on the worst graph found (2-vCPU x86-64 VM,
# Python 3.11)
STRUCTURAL_SCREEN_NODE_CAP = 24
# row triples visited plus extension checks made by one pattern search; a run
# stopped by it ends in 0.6-1.3 s on the VM above (seeded random 64 x 64
# matrices of density 0.5-0.8)
PATTERN_WORK_CAP = 4 * 10**6


@dataclass(frozen=True, slots=True)
class RecognitionCertificate:
    """Outcome of one recognizer run, with a re-checkable witness.

    ``witness`` maps the payload's field names to their values, tuples for
    its lists: cover / uncovered_clique for ``cliques``, pattern_* for
    ``pattern``, obstruction_* / dominated for ``structural``.  Each cover or
    dominated item is the object the payload shows.
    """

    method: str
    verdict: bool
    witness: dict

    def to_payload(self) -> dict:
        """The method, verdict and witness, tuples as lists, in new containers."""
        return {"method": self.method, "verdict": self.verdict, **_json(self.witness)}


def _json(value):
    """``value`` with every dict rebuilt and every tuple or list as a new list."""
    if isinstance(value, dict):
        return {key: _json(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [_json(item) for item in value]
    return value


def clique_graph(m: BinaryMatrix) -> Graph:
    """Graph on the columns of ``m``; two columns are adjacent iff some row has
    a 1 in both positions.  Undefined when a column is all zeros.
    """
    if m.has_zero_column():
        raise ZeroColumnError("column intersection graph undefined: zero column")
    adj = [0] * m.cols
    for row in m.row_masks:
        for j in _bits(row):
            adj[j - 1] |= row
    # column j now holds every column sharing a row with it, itself too: a
    # symmetric relation within the matrix's columns, so clearing the
    # diagonal leaves a valid graph
    return Graph._unchecked(m.cols, tuple(a & ~(1 << j) for j, a in enumerate(adj)))


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
    adj = gq.adj
    for i, mask in enumerate(m.row_masks, start=1):
        # the closed neighbourhoods of a clique's members all hold it; this
        # holds by construction of gq, and a failure would mean a bug here
        common = mask
        for j in _bits(mask):
            common &= adj[j - 1] | 1 << (j - 1)
        if common != mask:
            raise ConsistencyError(f"row {i} support is not a clique")
    support_row = {}
    for i, mask in enumerate(m.row_masks, start=1):
        support_row.setdefault(mask, i)
    cover = []
    for cl in maximal_cliques(gq):
        row = support_row.get(_mask_of(cl))
        if row is None:
            return RecognitionCertificate("cliques", False, {"uncovered_clique": cl})
        cover.append({"clique": cl, "row": row})
    return RecognitionCertificate("cliques", True, {"cover": tuple(cover)})


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
    Each column keeps the mask of the rows holding it, so the rows covering
    an extension are found by ANDing masks rather than by scanning rows.

    Raises ``CapExceededError`` once the row triples visited plus the
    extension checks made exceed ``PATTERN_WORK_CAP``.
    """
    _check_recognizer_input(m)
    work_cap = PATTERN_WORK_CAP
    work = 0
    rows = m.row_masks
    # per column j, the rows (bit i for row i + 1) that have a 1 in column j
    holders = [0] * m.cols
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            holders[low.bit_length() - 1] |= bit
            row ^= low
    all_rows = (1 << m.rows) - 1
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
                # the rows holding every column of common
                hc = all_rows
                rest = common
                while rest:
                    low = rest & -rest
                    hc &= holders[low.bit_length() - 1]
                    rest ^= low
                for ca in _bits(za):
                    ha = hc & holders[ca - 1]
                    for cb in _bits(zb):
                        hb = ha & holders[cb - 1]
                        for cc in _bits(zc):
                            if hb & holders[cc - 1]:
                                continue
                            ext = common | _bit(ca) | _bit(cb) | _bit(cc)
                            # a later row triple never beats an equal column
                            # set, and a larger cc gives a later column set
                            if best is None or _lex_less(ext, best[0]):
                                best = (ext, (a + 1, b + 1, c + 1), (ca, cb, cc))
                            break
    if best is None:
        return RecognitionCertificate("pattern", True, {})
    ext, row_triple, zeros = best
    return RecognitionCertificate("pattern", False, {
        "pattern_columns": tuple(_bits(ext)),
        "pattern_rows": row_triple,
        "pattern_zeros": zeros,
    })


_OBSTRUCTION_SIZES = (4, 5, 6)


def _obstruction_kind(g: Graph, mask: int) -> str | None:
    """Kind of the subgraph that ``mask`` induces in ``g``: "cycle<size>" for
    an induced cycle, "sun" for a 3-sun, else None.  Only the sizes the
    screen scans have a kind.  The screen lists its structures without it;
    the certificate recheck classifies each claimed node set with it.
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
    # no node is its own neighbour, so a common neighbour lies outside mask
    common = (1 << g.n) - 1
    for v in _bits(mask):
        common &= g.adj[v - 1]
    return (common & -common).bit_length() or None


def _suns(g: Graph):
    """Yield the node mask of each induced 3-sun of ``g``, once each: from
    its triangle a < b < c of degree-4 nodes, with one ear per triangle edge
    adjacent to that edge's ends only, the three ears pairwise non-adjacent.
    """
    adj = g.adj
    for a in g.nodes():
        na = adj[a - 1]
        for b in _bits(na >> a << a):  # the neighbours above a
            nb = adj[b - 1]
            for c in _bits(na & (nb >> b << b)):
                nc = adj[c - 1]
                tri = _bit(a) | _bit(b) | _bit(c)
                ears_ab = na & nb & ~nc & ~tri
                ears_bc = nb & nc & ~na & ~tri
                ears_ac = na & nc & ~nb & ~tri
                if not (ears_ab and ears_bc and ears_ac):
                    continue
                for x in _bits(ears_ab):
                    nx = adj[x - 1]
                    for y in _bits(ears_bc & ~nx):
                        for z in _bits(ears_ac & ~nx & ~adj[y - 1]):
                            yield tri | _bit(x) | _bit(y) | _bit(z)


def find_undominated_obstruction(g: Graph) -> RecognitionCertificate:
    """Graph-side screen over the induced 4/5/6-cycles and 3-suns; accept iff
    each one has an outside node adjacent to all of its nodes (containment may
    be exact).  Negative witness: the first undominated subgraph, taking sizes
    ascending and node tuples in lexicographic order.

    The cycles come from one ``induced_cycles`` search bounded at length 6
    and the suns from their central triangles, so the work follows the
    structures present rather than the node subsets.  All of them are listed
    first, then tested in order of size and node tuple.

    Neither verdict of the screen is exact.  An acceptance does not mean
    that ``N[G]`` is an extended clique-node matrix: the exact recognizers
    reject two accepted graphs on 6 nodes, one of them the octahedron
    ``web(6, 2)``, whose column intersection graph is ``K6`` with a single
    maximal clique that is no row of ``N[G]``.  Up to 7 nodes the exact
    recognizers reject every graph the screen rejects, but not at 8: the
    screen rejects ``1-2 1-3 1-4 1-6 1-7 1-8 2-5 2-6 2-8 3-5 3-7 3-8 4-6
    4-7 5-8 6-8 7-8`` for its undominated induced 6-cycle 2-5-3-7-4-6, yet
    both exact recognizers accept it.  A 6-cycle needs only its two
    alternate triples covered: {2, 3, 4} lies in N[1] and {5, 6, 7} in N[8].

    Raises ``CapExceededError`` above ``STRUCTURAL_SCREEN_NODE_CAP`` nodes.
    """
    if g.n > STRUCTURAL_SCREEN_NODE_CAP:
        raise CapExceededError(
            f"structural screen capped at {STRUCTURAL_SCREEN_NODE_CAP} nodes"
        )
    cycles = induced_cycles(g, 4, max_length=6)
    found = [(tuple(sorted(c)), f"cycle{len(c)}") for c in cycles]
    found += [(tuple(_bits(mask)), "sun") for mask in _suns(g)]
    found.sort(key=lambda item: (len(item[0]), item[0]))
    dominated = []
    for nodes, kind in found:
        dom = _dominator(g, _mask_of(nodes))
        if dom is None:
            return RecognitionCertificate(
                "structural", False, {"obstruction_kind": kind, "obstruction_nodes": nodes}
            )
        dominated.append({"kind": kind, "nodes": nodes, "dominator": dom})
    return RecognitionCertificate("structural", True, {"dominated": tuple(dominated)})


# ---------------------------------------------------------------------------
# certificate re-verification


def recheck_certificate(payload: dict, instance: Graph | BinaryMatrix) -> bool:
    """Independently validate an emitted certificate against its instance.

    The certificate's method picks its row of ``CERTIFICATE_KINDS``, and
    ``kind_inputs`` what it reads of ``instance``.  Positive certificates are
    rechecked by rerunning the recognizer, and a positive structural one also
    has each dominated entry checked on its own; negative ones by validating
    the stored witness directly.  A payload of the wrong JSON shape raises
    ParseError.
    """
    _check_payload_shape(payload)
    method = payload.get("method")
    # a method of another JSON type is unknown too: a list or object would
    # not hash as a key
    if not isinstance(method, str) or method not in CERTIFICATE_KINDS:
        raise ValueError(f"unknown certificate method {method!r}")
    read = kind_inputs(instance)[method]
    if read is None:
        raise ValueError(f"{method} certificates need the graph")
    return CERTIFICATE_KINDS[method][2](payload, read, payload["verdict"])


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
    dominated = payload.get("dominated", [])
    if not isinstance(dominated, list) or not all(
        isinstance(item, dict) and type(item.get("kind")) is str
        and _is_int_list(item.get("nodes")) and type(item.get("dominator")) is int
        for item in dominated
    ):
        raise ParseError(
            "certificate dominated items need a 'kind' string, a 'nodes' list "
            "and a 'dominator' integer"
        )


def _recheck_cliques(payload: dict, m: BinaryMatrix, verdict: bool) -> bool:
    cliques = set(maximal_cliques(clique_graph(m)))
    if verdict:
        covered = set()
        for item in payload.get("cover", []):
            cl, row = tuple(item["clique"]), item["row"]
            if cl not in cliques:
                return False
            if not 1 <= row <= m.rows or m.row_masks[row - 1] != _mask_of(cl):
                return False
            covered.add(cl)
        return covered == cliques
    cl = tuple(payload.get("uncovered_clique", ()))
    return cl in cliques and _mask_of(cl) not in m.row_masks


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


def _is_obstruction(g: Graph, nodes: list, kind) -> bool:
    """Whether ``nodes`` lists distinct labels of ``g`` in ascending order, as
    the screen emits them, that induce a subgraph of kind ``kind``."""
    if not nodes or nodes != sorted(set(nodes)) or nodes[0] < 1 or nodes[-1] > g.n:
        return False
    found = _obstruction_kind(g, _mask_of(nodes))
    return found is not None and found == kind


def _recheck_structural(payload: dict, g: Graph, verdict: bool) -> bool:
    if not verdict:
        nodes = payload.get("obstruction_nodes", [])
        return (
            _is_obstruction(g, nodes, payload.get("obstruction_kind"))
            and _dominator(g, _mask_of(nodes)) is None
        )
    dominated = payload.get("dominated")
    if dominated is None:
        return False
    # each entry on its own first, then the whole list against a rerun's,
    # entry by entry on the rerun's keys, so that extra keys are ignored
    for item in dominated:
        nodes, dom = item["nodes"], item["dominator"]
        if not _is_obstruction(g, nodes, item["kind"]):
            return False
        # no node is its own neighbour, so a neighbour of all lies outside
        mask = _mask_of(nodes)
        if not 1 <= dom <= g.n or g.adj[dom - 1] & mask != mask:
            return False
    rerun = find_undominated_obstruction(g).to_payload()
    expected = rerun.get("dominated", [])
    return rerun["verdict"] and len(expected) == len(dominated) and all(
        all(item[key] == value for key, value in entry.items())
        for item, entry in zip(dominated, expected)
    )


# kind -> (whether its recognizer reads the graph rather than the matrix, the
# recognizer, the recheck of its certificates).  The CLI lists, runs and
# rechecks the kinds in this order, so a new kind is one row here.
CERTIFICATE_KINDS = {
    "cliques": (False, is_extended_clique_node_by_cliques, _recheck_cliques),
    "pattern": (False, is_extended_clique_node_by_pattern, _recheck_pattern),
    "structural": (True, find_undominated_obstruction, _recheck_structural),
}


def kind_inputs(instance: Graph | BinaryMatrix) -> dict:
    """Kind -> what its recognizer and recheck read of ``instance``, in table
    order: a graph, or else its closed neighbourhood matrix; a matrix as
    given, and None for the kinds that read the graph."""
    g = instance if isinstance(instance, Graph) else None
    m = instance if g is None else closed_neighbourhood_matrix(g)
    return {name: g if reads_graph else m for name, (reads_graph, *_) in CERTIFICATE_KINDS.items()}
