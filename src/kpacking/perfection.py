"""Perfection oracles: the Berge test for graphs, exact vertex enumeration
for the polytope {x in [0,1]^n : Mx <= 1} and the facts read from its
fractional supports, and the combined verdict for a graph's closed
neighbourhood matrix.

The Berge test answers a chordal graph by simplicial elimination (why that
is exact is in ``is_perfect_graph``), and searches every other graph and its
complement for an odd hole.

All arithmetic on polytope data is exact: each candidate basis is solved by
Gauss-Jordan elimination over the integers, and coordinates are returned as
fractions.Fraction.  No floating point participates in any verdict.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceededError, ConsistencyError, ZeroColumnError
from .graphs import (
    BinaryMatrix,
    Graph,
    _bit,
    _bits,
    closed_neighbourhood_matrix,
    complement,
    induced_cycles,
    is_chordal,
)
from .recognition import (
    RecognitionCertificate,
    _cliques_certificate,
    clique_graph,
    find_undominated_obstruction,
    is_extended_clique_node_by_pattern,
)

ODD_HOLE_NODE_CAP = 16
VERTEX_ENUMERATION_COLUMN_CAP = 10
# bases one support pass may try, charged per class set before the memo is
# read, so an input meets the cap whatever the memo holds.  No connected graph
# up to 8 nodes needs more than 467, nor any of 1,200 random 10-node graphs
# more than 4,282; the 120 three-column rows of 10 columns exit 3 after 1.4-1.6
# s (2-vCPU x86-64 VM, Python 3.11)
SUPPORT_PASS_BASIS_CAP = 10**5
# distinct restricted systems whose solutions the support pass keeps per
# process; one report pass over the connected graphs up to 8 nodes meets
# 11,999 of them
SOLVED_SYSTEM_MEMO_SIZE = 16384


def _check_odd_hole_cap(n: int) -> None:
    if n > ODD_HOLE_NODE_CAP:
        raise CapExceededError(f"odd hole search capped at {ODD_HOLE_NODE_CAP} nodes")


def find_odd_hole(g: Graph):
    """First induced odd cycle of length >= 5 in the deterministic search
    order, or None.  Graphs above the node cap are rejected.
    """
    _check_odd_hole_cap(g.n)
    return next((c for c in induced_cycles(g, 5) if len(c) % 2), None)


def is_perfect_graph(g: Graph):
    """(verdict, witness): witness is ("odd_hole", nodes) or ("odd_antihole",
    nodes) where the node tuple induces a hole in the graph or its complement.
    Graphs above the node cap are rejected first.

    A chordal graph is answered (True, None) without either search, which is
    the answer the searches give it: it has no hole, odd or even.  Nor has
    it an odd antihole: one of length 5 is a 5-cycle, and in one of length
    L >= 7 (complement of the cycle c1..cL) the nodes c1, c4, c2, c5 induce
    a 4-cycle, since c1c2 and c4c5 are the only cycle edges among them.
    Every other graph gets the odd hole search in g, then in its complement,
    so on every input the verdict and witness are those of the two searches.
    """
    _check_odd_hole_cap(g.n)
    if is_chordal(g):
        return True, None
    hole = find_odd_hole(g)
    if hole is not None:
        return False, ("odd_hole", hole)
    antihole = find_odd_hole(complement(g))
    if antihole is not None:
        return False, ("odd_antihole", antihole)
    return True, None


# ---------------------------------------------------------------------------
# vertex enumeration


def _eliminate(rows: list[list[int]], width: int) -> list[int]:
    """Gauss-Jordan elimination of integer ``rows`` in place, searching the
    first ``width`` columns for pivots.  Returns the pivot columns: afterwards
    row i carries the pivot of column ``pivots[i]`` and every other row is zero
    there.  Rows stay primitive (their gcd is divided out), so entries stay
    small and no fraction arises.
    """
    pivots: list[int] = []
    for col in range(width):
        top = len(pivots)
        piv = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        prow = rows[top]
        a = prow[col]
        for r, row in enumerate(rows):
            b = row[col]
            if b and r != top:
                row = [a * x - b * y for x, y in zip(row, prow)]
                g = math.gcd(*row)
                rows[r] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
    return pivots


def _fractional_supports(m: BinaryMatrix):
    """The vertex enumeration's one pass over the supports, in integers only.

    Returns ``(conflict, den, starts)``.  ``conflict[j - 1]`` masks the
    columns that share a row with column j.  Each start is ``(numerators,
    their sum, free)``: a point as n integer numerators over the one common
    denominator ``den``, and the mask of the columns that may still be set to
    one.  The first start is the zero point with every column free; then
    comes every strictly fractional solution of every support F (|F| >= 2),
    padded with zeros, whose free columns are those outside F sharing no row
    with F.  The starts after the first come in no fixed order: every
    consumer takes a minimum, a maximum or a sort.  No ``Fraction`` is made.

    Every vertex splits its coordinates into ones (O), zeros and a strictly
    fractional part (F).  Feasibility forces O to meet each row at most once
    and zeroes out every column sharing a row with O.  A row that meets O
    therefore lies inside those zeroed columns and never meets F, so the rows
    binding the fractional part, and hence its solutions, depend on F alone.
    So the vertices are exactly the starts plus each row-compatible one-set
    of their free columns.  F must satisfy |F| independent tight rows, and a
    row whose restriction to F is a strict subset of another's can never be
    tight (the superset row would overflow).  Every full-rank subsystem drawn
    from the maximal restricted rows pins a unique rational solution, and the
    strict-interior and feasibility checks run on its numerators.

    A row inside another row restricts to a subset of that row's restriction
    on every F, so only the undominated rows are read.  Columns lying in the
    same undominated rows are twins, and the pass runs on their classes:

    - F holds at most one column of each class: two twins in F make every
      basis on F singular.
    - F holds no zero column (the class in no row): every basis is singular.
    - The restricted rows, and so the system, depend only on the classes F
      meets, and so does its closure (the union of the rows meeting it).

    So the scan runs over the 2**r sets S of the r classes, and each
    fractional S expands into one support per choice of a member of each of
    its classes, with the numerators on the chosen columns.  A basis on S
    needs |S| distinct maximal restricted rows, each holding two or more
    classes (one strictly fractional coordinate alone meets no tight row),
    so ``_class_set_systems`` keeps only the class sets that have them,
    testing all 2**r sets at once with reads of the per-width truth tables
    of ``_class_set_tables``.  That rules out |S| < 2, S inside one row
    (S is then the only maximal row) and |S| above the number of rows.
    The solutions of a system depend only on its maximal rows as masks over
    S's positions, so ``_solve_system`` keeps them in a memo shared by every
    call in the process, bounded by ``SOLVED_SYSTEM_MEMO_SIZE`` systems.

    Raises ``CapExceededError`` above ``VERTEX_ENUMERATION_COLUMN_CAP``
    columns, which bounds the per-width truth tables (one bit per set of twin
    classes), rho's memo (one entry per column mask), both at most 2**n, and
    ``polytope_vertices``' listing; and once the bases of the systems met so
    far, C(|maximal|, |S|) for each, add up to more than
    ``SUPPORT_PASS_BASIS_CAP``.
    """
    cap = VERTEX_ENUMERATION_COLUMN_CAP
    if m.cols > cap:
        raise CapExceededError(f"vertex enumeration capped at {cap} columns")
    n = m.cols
    # distinct rows by popcount descending, so each comes after its supersets
    top: list[int] = []
    for mk in sorted(set(m.row_masks), key=int.bit_count, reverse=True):
        for y in top:
            if mk & y == mk:
                break
        else:
            top.append(mk)
    pattern = [0] * n  # the undominated rows holding each column, as a mask
    row = 1
    for mk in top:
        for j in _bits(mk):
            pattern[j - 1] |= row
        row <<= 1
    # twin classes in order of their least column, without the zero columns;
    # members are 0-based columns
    by_pattern: dict[int, list[int]] = {}
    for j, p in enumerate(pattern):
        if p:
            by_pattern.setdefault(p, []).append(j)
    members = list(by_pattern.values())
    # each undominated row as the mask of the classes it holds, and each
    # column's conflicts: the union of its class's rows, less itself
    rows = [0] * len(top)
    conflict = [0] * n
    bit = 1
    for p, cols in by_pattern.items():
        union = 0
        for i in _bits(p):
            rows[i - 1] |= bit
            union |= top[i - 1]
        for j in cols:
            conflict[j] = union & ~(1 << j)
        bit <<= 1

    full = (1 << n) - 1
    # (S's classes as 1-based labels, their solutions as (numerators,
    # denominator), free) per fractional class set
    fractional: list[tuple[tuple[int, ...], frozenset, int]] = []
    bases = 0
    for smask, maximal in _class_set_systems(rows, len(members)):
        size = smask.bit_count()
        bases += math.comb(len(maximal), size)
        if bases > SUPPORT_PASS_BASIS_CAP:
            raise CapExceededError(f"support pass capped at {SUPPORT_PASS_BASIS_CAP} bases")
        classes = _bits(smask)
        # each maximal row as a mask over S's positions
        place = {}
        pos = 1
        for c in classes:
            place[c] = pos
            pos <<= 1
        system = []
        for x in maximal:
            y = 0
            for c in _bits(x):
                y |= place[c]
            system.append(y)
        solutions = _solve_system(size, tuple(sorted(system)))
        if solutions:
            closure = 0
            for mk, x in zip(top, rows):
                if x & smask:
                    closure |= mk
            fractional.append((classes, solutions, full & ~closure))
    den = math.lcm(1, *(d for _, sols, _ in fractional for _, d in sols))
    starts = [((0,) * n, 0, full)]
    for classes, sols, free in fractional:
        choices = list(itertools.product(*[members[c - 1] for c in classes]))
        for nums, d in sols:
            scale = den // d
            scaled = [a * scale for a in nums]
            total = sum(scaled)
            for chosen in choices:
                point = [0] * n
                for j, a in zip(chosen, scaled):
                    point[j] = a
                starts.append((tuple(point), total, free))
    return conflict, den, starts


@functools.cache
def _class_set_tables(r: int) -> tuple[Callable[[int], int], Callable[[int], int], list[int]]:
    """Truth tables over the 2**r sets of r classes: ints with bit S set
    for each class set S that has some property.  Returns ``(meets, two,
    exactly)``: ``meets(x)`` holds the sets that meet the class mask x,
    ``two(x)`` the sets that hold two or more classes of x, and
    ``exactly[k]`` the sets of exactly k classes.  The tables of each r are
    made the first time a pass meets r classes; ``meets`` and ``two`` are
    ``functools.cache``d functions, so they keep only the masks that passes
    have read.  r is at most ``VERTEX_ENUMERATION_COLUMN_CAP``, since the
    support pass refuses wider matrices.
    """
    everything = (1 << (1 << r)) - 1
    # holding[c]: the sets holding class c, the upper 2**c of each block of
    # 2**(c + 1) sets; the quotient puts a one at the start of every block
    holding = [
        everything // ((1 << (2 << c)) - 1) * (((1 << (1 << c)) - 1) << (1 << c))
        for c in range(r)
    ]

    def meets(x: int) -> int:
        sets = 0
        for c in _bits(x):
            sets |= holding[c - 1]
        return sets

    def two(x: int) -> int:
        one = sets = 0
        for c in _bits(x):
            sets |= one & holding[c - 1]
            one |= holding[c - 1]
        return sets

    exactly = [0] * (r + 1)
    for s in range(1 << r):
        exactly[s.bit_count()] |= 1 << s
    return functools.cache(meets), functools.cache(two), exactly


def _class_set_systems(rows: list[int], r: int):
    """Yield ``(S, maximal)`` for each set S of two or more of the r classes
    that has at least |S| maximal restricted rows of two or more classes;
    ``maximal`` lists those restrictions ``row & S``, each once.  ``rows``
    are the undominated rows as class masks, none inside another.

    The test runs on all 2**r sets at once, on the truth tables of
    ``_class_set_tables(r)``.  Row i's restriction lies inside row j's on
    exactly the sets that miss ``rows[i] & ~rows[j]``, one read of
    ``meets``.  It counts on S when it holds two or more classes of S (one
    read of ``two``), lies inside no other row's restriction unless the two
    are equal, and equals no earlier row's restriction.
    """
    meets, two_of, exactly = _class_set_tables(r)
    # counted[i]: the sets on which row i's restriction counts
    counted = [two_of(mi) for mi in rows]
    for i, mi in enumerate(rows):
        j = i + 1
        for mj in rows[j:]:
            # row i's restriction leaves row j's on ``out``, and row j's
            # leaves row i's on ``back``; equal restrictions count once, for
            # the earlier row
            out = meets(mi & ~mj)
            back = meets(mj & ~mi)
            counted[i] &= out | ~back
            counted[j] &= back
            j += 1
    # at_least[t]: the sets on which at least t restrictions count, for the
    # t that a kept set can need
    most = min(len(rows), r)
    at_least = [(1 << (1 << r)) - 1] + [0] * most
    for i, sets in enumerate(counted):
        for t in range(min(i + 1, most), 0, -1):
            at_least[t] |= at_least[t - 1] & sets
    keep = 0
    for k in range(2, most + 1):
        keep |= exactly[k] & at_least[k]
    while keep:
        low = keep & -keep
        keep ^= low
        smask = low.bit_length() - 1
        yield smask, [mk & smask for mk, on in zip(rows, counted) if on & low]


@functools.lru_cache(maxsize=SOLVED_SYSTEM_MEMO_SIZE)
def _solve_system(
    size: int, system: tuple[int, ...]
) -> frozenset[tuple[tuple[int, ...], int]]:
    """Every strictly fractional, feasible solution ``(numerators,
    denominator)`` of a full-rank choice of ``size`` rows of ``system`` set
    tight.  Each row of ``system`` is the mask of the ``size`` columns it
    holds.
    """
    coeffs = [[x >> i & 1 for i in range(size)] for x in system]
    meets = [[i for i, a in enumerate(row) if a] for row in coeffs]
    solutions = set()
    for basis in itertools.combinations(coeffs, size):
        rows = [[*row, 1] for row in basis]
        if len(_eliminate(rows, size)) < size:
            continue
        # row i now reads rows[i][i] * x_i = rows[i][size], in lowest terms
        den = math.lcm(*(row[i] for i, row in enumerate(rows)))
        nums = tuple(row[size] * (den // row[i]) for i, row in enumerate(rows))
        if any(not 0 < a < den for a in nums):
            continue
        # the solution is positive, so rows inside a maximal row hold too
        if any(sum(nums[i] for i in at) > den for at in meets):
            continue
        solutions.add((nums, den))
    return frozenset(solutions)


def polytope_vertices(m: BinaryMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """Exact vertex set of {x in [0,1]^n : Mx <= 1}, sorted coordinatewise.

    Each start of ``_fractional_supports`` plus every row-compatible one-set
    of its free columns is one vertex.  The vertices are listed and sorted as
    integer tuples over one common denominator; the ``Fraction`` coordinates
    are made after the sort.  Only ``perfection --emit-vertices`` lists them:
    the verdict and the report read ``_polytope_facts``, and the relaxation
    reads ``_relaxation_vertex``.

    Raises ``CapExceededError`` above ``VERTEX_ENUMERATION_COLUMN_CAP``
    columns and once the support pass has charged more than
    ``SUPPORT_PASS_BASIS_CAP`` bases.
    """
    conflict, den, starts = _fractional_supports(m)
    found: list[tuple[int, ...]] = []
    for point, _, free in starts:
        _complete(found, conflict, den, list(point), free)
    found.sort()
    # one Fraction per distinct numerator, shared by every vertex using it
    coord = {a: Fraction(a, den) for a in {den}.union(*(p for p, _, _ in starts))}
    return tuple(tuple(map(coord.__getitem__, v)) for v in found)


def _complete(found: list, conflict: list[int], den: int, point: list, free: int):
    """Append ``point``, then its completion by each row-compatible one-set of
    the ``free`` columns (ones are ``den``), to ``found``."""
    found.append(tuple(point))
    for j in _bits(free):
        point[j - 1] = den
        # later columns only, so each one-set is built once
        _complete(found, conflict, den, point, (free & ~conflict[j - 1]) >> j << j)
        point[j - 1] = 0


def _row_disjoint_columns(conflict: list[int], memo: dict[int, int], mask: int) -> int:
    """rho(S), the most pairwise row-disjoint columns inside the column mask
    S: the independence number of the conflict graph on S, where
    ``conflict[j - 1]`` masks the columns that share a row with column j.
    With j the lowest column of S and N[j] it and its conflicts,
    rho(S) = max(rho(S - j), 1 + rho(S - N[j])), which is 1 + rho(S - j)
    when j conflicts with nothing in S.  ``memo`` keeps every S reached.
    """
    got = memo.get(mask)
    if got is None:
        low = mask & -mask
        rest = mask ^ low
        near = conflict[low.bit_length() - 1] & rest
        got = 1 + _row_disjoint_columns(conflict, memo, rest & ~near)
        if near:
            got = max(got, _row_disjoint_columns(conflict, memo, rest))
        memo[mask] = got
    return got


def _largest_sum(conflict: list[int], den: int, starts: list):
    """(the largest coordinate sum as a numerator over ``den``, rho) over
    the vertices grown from ``starts``: with rho(S) the most pairwise
    row-disjoint columns inside S (``_row_disjoint_columns``, all calls of
    rho sharing one memo), a start reaches at most its sum plus rho(free)
    ones, and the largest sum is the best of these.
    """
    rho = functools.partial(_row_disjoint_columns, conflict, {0: 0})
    return max(total + rho(free) * den for _, total, free in starts), rho


def _polytope_facts(
    m: BinaryMatrix,
) -> tuple[tuple[Fraction, ...] | None, Fraction]:
    """(first fractional vertex or None, largest coordinate sum) of
    {x in [0,1]^n : Mx <= 1}, in sorted vertex order and read from the
    starts of ``_fractional_supports`` without listing any vertex.

    A vertex with ones O is coordinatewise at least its start, so the least
    fractional start is the first fractional vertex.  The largest sum comes
    from ``_largest_sum``; the vertex that reaches it is left to
    ``_relaxation_vertex``.
    """
    conflict, den, starts = _fractional_supports(m)
    unit = Fraction(_largest_sum(conflict, den, starts)[0], den)
    if len(starts) == 1:
        return None, unit
    # equal points share their sum and free columns, so the least start
    # holds the least point
    first = min(starts[1:])[0]
    # one Fraction per distinct numerator
    coord = {a: Fraction(a, den) for a in set(first)}
    return tuple(map(coord.__getitem__, first)), unit


def _relaxation_vertex(m: BinaryMatrix) -> tuple[Fraction, tuple[Fraction, ...]]:
    """(largest coordinate sum, first vertex with that sum) of
    {x in [0,1]^n : Mx <= 1} in sorted vertex order, read from the starts of
    ``_fractional_supports`` without listing any vertex.

    Among the starts that reach the largest sum (``_largest_sum``), each is
    completed to its least maximizing vertex, column by column: a free
    column stays 0 while the rest of the free columns still hold rho(free)
    ones, and otherwise becomes 1 and takes its conflicts out of the free
    columns.  The least completion is the relaxation witness.
    """
    conflict, den, starts = _fractional_supports(m)
    best, rho = _largest_sum(conflict, den, starts)
    witness = None
    for point, total, free in starts:
        need = rho(free)
        if total + need * den != best:
            continue
        point = list(point)
        for j in _bits(free):
            bit = _bit(j)
            if free & bit and rho(free & ~bit) < need:
                point[j - 1] = den
                need -= 1
                free &= ~conflict[j - 1]
            free &= ~bit
        if witness is None or point < witness:
            witness = point
    # one Fraction per distinct numerator
    coord = {a: Fraction(a, den) for a in set(witness)}
    return Fraction(best, den), tuple(map(coord.__getitem__, witness))


def is_perfect_matrix(m: BinaryMatrix):
    """(verdict, witness): true iff every vertex of the polytope is a 0/1
    point; otherwise the first fractional vertex in sorted order is returned.
    Both come from ``_polytope_facts``; no vertex list is built.
    """
    if m.has_zero_column():
        raise ZeroColumnError("matrix perfection undefined with a zero column")
    fractional = _polytope_facts(m)[0]
    return fractional is None, fractional


# ---------------------------------------------------------------------------
# combined verdict for a graph


@dataclass(frozen=True, slots=True)
class PerfectionReport:
    """All verdict paths for one graph's closed neighbourhood matrix.

    ``neighbourhood_matrix_perfect`` is the membership verdict: the matrix is
    an extended clique-node matrix and its column intersection graph is
    perfect.  ``matrix_perfect`` is the independent polytope cross-check:
    true iff no support of the polytope has a fractional solution.
    ``fractional_vertex`` is the first fractional vertex in sorted order, as
    a tuple of ``Fraction`` coordinates: the least such solution padded with
    zeros.  ``unit_relaxation`` is the largest coordinate sum over the
    vertices, the exact optimum of the linear relaxation at k = 1 (the
    optimum at k is k times it), taken from the support solutions and a count
    of the largest one-sets.  All three come from ``_polytope_facts`` without
    listing any vertex, and are None when the graph exceeds the vertex
    enumeration cap.  The structural screen's
    verdict is reported but never enforced; it is known to disagree on some
    graphs (first at 6 nodes).
    """

    extended_clique_node: bool
    clique_graph_perfect: bool
    clique_graph_witness: tuple | None
    matrix_perfect: bool | None
    fractional_vertex: tuple[Fraction, ...] | None
    unit_relaxation: Fraction | None
    structural_verdict: bool
    structural_agrees: bool
    neighbourhood_matrix_perfect: bool
    certificates: dict[str, RecognitionCertificate]


def perfection_report(g: Graph) -> PerfectionReport:
    """Evaluate every verdict path on N[g] and cross-check them.

    The two exact recognizers must agree, and when the polytope check runs it
    must agree with the combined verdict; violations raise ConsistencyError
    since they would demonstrate a bug, not a property of the graph.  Graphs
    above ``ODD_HOLE_NODE_CAP`` are refused before any work, because the odd
    hole search on the n-node column intersection graph would refuse them.

    ``gq``, the column intersection graph of N[g], is g², and the pattern
    recognizer is the Helly test on N[g], so ``neighbourhood_matrix_perfect``
    means Helly closed neighbourhoods and a Berge g².  ``is_perfect_graph``
    answers a chordal g² by simplicial elimination, with the verdict and
    witness the odd hole searches would give (see its docstring), and
    searches any other g²; the polytope cross-check still checks the
    combined verdict either way.
    """
    _check_odd_hole_cap(g.n)
    m = closed_neighbourhood_matrix(g)
    # N[g] has ones on its diagonal, so no zero column; its one column
    # intersection graph serves both uses
    gq = clique_graph(m)
    by_cliques = _cliques_certificate(m, gq)
    by_pattern = is_extended_clique_node_by_pattern(m)
    if by_cliques.verdict != by_pattern.verdict:
        raise ConsistencyError(
            "exact recognizers disagree: "
            f"cliques={by_cliques.verdict} pattern={by_pattern.verdict}"
        )
    structural = find_undominated_obstruction(g)

    gq_perfect, gq_witness = is_perfect_graph(gq)

    member = by_cliques.verdict and gq_perfect

    matrix_verdict = None
    fractional = None
    unit_relaxation = None
    if g.n <= VERTEX_ENUMERATION_COLUMN_CAP:
        fractional, unit_relaxation = _polytope_facts(m)
        matrix_verdict = fractional is None
        if matrix_verdict != member:
            raise ConsistencyError(
                "polytope check disagrees with combined verdict: "
                f"matrix={matrix_verdict} combined={member}"
            )

    return PerfectionReport(
        extended_clique_node=by_cliques.verdict,
        clique_graph_perfect=gq_perfect,
        clique_graph_witness=gq_witness,
        matrix_perfect=matrix_verdict,
        fractional_vertex=fractional,
        unit_relaxation=unit_relaxation,
        structural_verdict=structural.verdict,
        structural_agrees=structural.verdict == member,
        neighbourhood_matrix_perfect=member,
        certificates={
            "cliques": by_cliques,
            "pattern": by_pattern,
            "structural": structural,
        },
    )
