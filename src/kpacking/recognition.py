"""Recognizers deciding whether a 0/1 matrix is an extended clique-node matrix.

Three verdict paths are provided:

* ``cliques``   : compare the maximal cliques of the column intersection graph
                  against the row supports (the defining property).
* ``pattern``   : search for a forbidden 3-row pattern: three columns carrying
                  pairwise-complementary zeros, extended by every column where
                  all three rows agree on 1, with no row covering the extension.
                  This is Gilmore's conformality test (Berge, Hypergraphs,
                  1989), and on ``N[G]``, its own transpose, the Helly test
                  on the closed neighbourhoods.
* ``structural``: a graph-side screen that looks for small undominated induced
                  subgraphs (4/5/6-cycles and the 3-sun), listing them from a
                  bounded induced cycle search and from triangles with three
                  ears rather than from node subsets.  It only applies to
                  closed neighbourhood matrices.  The first two paths are exact
                  and provably equivalent; the structural screen is reported
                  separately because it can disagree (see README).

The two exact paths take any r x c 0/1 matrix, zero rows included: a
clique-node matrix has one row per maximal clique, so it is rarely square.
A zero column raises ``ZeroColumnError``, since the column intersection
graph is undefined there.

Each path returns a :class:`RecognitionCertificate` whose witness can be
re-checked independently via :func:`recheck_certificate`.  ``CERTIFICATE_KINDS``
maps each path's name to its recognizer, its recheck and the JSON shape of
its witness fields.

On ``N[G]`` the column intersection graph is ``G²``, so membership, an
extended clique-node matrix with a perfect column intersection graph, reads
on the graph: Helly closed neighbourhoods and a Berge ``G²``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceededError, ParseError, ZeroColumnError
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
# one pattern search's work: a unit per triple of distinct rows, plus the bound
# |za| * |zb| * |zc| on the extension checks of each triple with three zero
# columns; a run stopped by it ends in 0.6-1.3 s on the VM above (seeded random
# 64 x 64 matrices of density 0.5-0.8)
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
    if m.has_zero_column():
        raise ZeroColumnError("recognizers expect no zero columns")


def is_extended_clique_node_by_cliques(m: BinaryMatrix) -> RecognitionCertificate:
    """Accept iff every maximal clique of the column intersection graph occurs
    as the support of some row.  Negative witness: the first uncovered maximal
    clique in lexicographic order.
    """
    _check_recognizer_input(m)
    return _cliques_certificate(m, clique_graph(m))


def _cliques_certificate(m: BinaryMatrix, gq: Graph) -> RecognitionCertificate:
    """``is_extended_clique_node_by_cliques`` on a checked ``m`` whose column
    intersection graph ``gq`` the caller has already built.  Every row of
    ``m`` is a clique of ``gq`` by construction.
    """
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
    Each distinct row is read once and labelled by its first occurrence.
    Each column keeps the mask of the rows holding it, so the rows covering
    an extension are found by ANDing masks rather than by scanning rows.

    On ``N[G]`` this is the Helly test on the closed neighbourhoods of G: a
    negative ``pattern_rows`` is a node triple a, b, c whose set W(a,b,c) of
    nodes lying in two of N[a], N[b], N[c] lies in no N[v], because the
    extension lies in W(a,b,c).

    Raises ``CapExceededError`` once a unit per triple of distinct rows, plus
    |za| * |zb| * |zc| (a bound on its extension checks) per triple with three
    zero columns, charged before its loops, exceeds ``PATTERN_WORK_CAP``.
    """
    _check_recognizer_input(m)
    work_cap = PATTERN_WORK_CAP
    work = 0
    # a triple holding one row twice has no zero column, and one using a later
    # copy has the column sets of the first-occurrence triple, visited first
    rows = tuple(dict.fromkeys(m.row_masks))
    n = len(rows)
    # per column j, the rows (bit i for rows[i]) that have a 1 in column j
    holders = [0] * m.cols
    for i, row in enumerate(rows):
        for j in _bits(row):
            holders[j - 1] |= 1 << i
    all_rows = (1 << n) - 1
    best = None
    for a, ra in enumerate(rows):
        for b in range(a + 1, n):
            rb = rows[b]
            # the row triples (a, b, c) about to be visited
            work += n - b - 1
            if work > work_cap:
                raise _pattern_work_exceeded(work_cap)
            only_b, only_a, both = ~ra & rb, ra & ~rb, ra & rb
            for c in range(b + 1, n):
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
                for j in _bits(common):
                    hc &= holders[j - 1]
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
                                best = (ext, (a, b, c), (ca, cb, cc))
                            break
    if best is None:
        return RecognitionCertificate("pattern", True, {})
    ext, row_triple, zeros = best
    return RecognitionCertificate("pattern", False, {
        "pattern_columns": tuple(_bits(ext)),
        "pattern_rows": tuple(m.row_masks.index(rows[i]) + 1 for i in row_triple),
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


def _fits(value, shape) -> bool:
    """Whether JSON ``value`` has ``shape``: ``[s]`` is a list of items of
    shape s, ``{key: s}`` an object whose value at each key has shape s, and
    a type is matched exactly, because JSON true/false load as bool, a
    subclass of int."""
    if isinstance(shape, list):
        return isinstance(value, list) and all(_fits(x, shape[0]) for x in value)
    if isinstance(shape, dict):
        return isinstance(value, dict) and all(_fits(value.get(k), s) for k, s in shape.items())
    return type(value) is shape


_INTEGERS = ([int], "certificate field {field!r} must be a list of integers")


def _check_payload_shape(payload) -> None:
    """Raise ParseError unless ``payload`` is an object with a boolean
    verdict and each witness field it holds has the shape its kind's row
    declares, whatever the payload's method."""
    if not isinstance(payload, dict):
        raise ParseError("certificate must be a JSON object")
    # exact type: a verdict read by truthiness would accept "no" or 1
    if type(payload.get("verdict")) is not bool:
        raise ParseError("certificate field 'verdict' must be a JSON boolean")
    for *_, fields in CERTIFICATE_KINDS.values():
        for field, (shape, message) in fields.items():
            if field in payload and not _fits(payload[field], shape):
                raise ParseError(message.format(field=field))


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
# recognizer, the recheck of its certificates, its witness fields whose JSON
# shape ``_check_payload_shape`` checks, each as (shape, error message)).  The
# CLI lists, runs and rechecks the kinds in this order, so a new kind is one
# row here.
CERTIFICATE_KINDS = {
    "cliques": (False, is_extended_clique_node_by_cliques, _recheck_cliques, {
        "uncovered_clique": _INTEGERS,
        "cover": ([{"clique": [int], "row": int}],
                  "certificate cover items need a 'clique' list and a 'row' integer"),
    }),
    "pattern": (False, is_extended_clique_node_by_pattern, _recheck_pattern, {
        "pattern_columns": _INTEGERS,
        "pattern_rows": _INTEGERS,
        "pattern_zeros": _INTEGERS,
    }),
    "structural": (True, find_undominated_obstruction, _recheck_structural, {
        "obstruction_nodes": _INTEGERS,
        "dominated": ([{"kind": str, "nodes": [int], "dominator": int}],
                      "certificate dominated items need a 'kind' string, a 'nodes' list "
                      "and a 'dominator' integer"),
    }),
}


def kind_inputs(instance: Graph | BinaryMatrix) -> dict:
    """Kind -> what its recognizer and recheck read of ``instance``, in table
    order: a graph, or else its closed neighbourhood matrix; a matrix as
    given, and None for the kinds that read the graph."""
    g = instance if isinstance(instance, Graph) else None
    m = instance if g is None else closed_neighbourhood_matrix(g)
    return {name: g if reads_graph else m for name, (reads_graph, *_) in CERTIFICATE_KINDS.items()}
