"""Perfection oracles: odd hole search for graphs, exact vertex enumeration
for the polytope {x in [0,1]^n : Mx <= 1}, and the combined verdict for a
graph's closed neighbourhood matrix.

All arithmetic on polytope data is exact: each candidate basis is solved by
Gauss-Jordan elimination over the integers, and coordinates are returned as
fractions.Fraction.  No floating point participates in any verdict.
"""

from __future__ import annotations

import itertools
import math
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
    find_induced_cycle,
)
from .recognition import (
    RecognitionCertificate,
    clique_graph,
    find_undominated_obstruction,
    is_extended_clique_node_by_cliques,
    is_extended_clique_node_by_pattern,
)

ODD_HOLE_NODE_CAP = 16
VERTEX_ENUMERATION_COLUMN_CAP = 10


@dataclass(frozen=True)
class RationalPoint:
    """A point with exact rational coordinates, kept in lowest terms."""

    coords: tuple[Fraction, ...]

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    def coordinate_sum(self) -> Fraction:
        den = math.lcm(*(c.denominator for c in self.coords))
        return Fraction(
            sum(c.numerator * (den // c.denominator) for c in self.coords), den
        )

    def as_strings(self) -> tuple[str, ...]:
        return tuple(f"{c.numerator}/{c.denominator}" for c in self.coords)


def find_odd_hole(g: Graph):
    """First induced odd cycle of length >= 5 in the deterministic search
    order, or None.  Graphs above the node cap are rejected.
    """
    if g.n > ODD_HOLE_NODE_CAP:
        raise CapExceededError(f"odd hole search capped at {ODD_HOLE_NODE_CAP} nodes")
    return find_induced_cycle(g, 5, odd_only=True)


def is_perfect_graph(g: Graph):
    """(verdict, witness): witness is ("odd_hole", nodes) or ("odd_antihole",
    nodes) where the node tuple induces a hole in the graph or its complement.
    """
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


def polytope_vertices(m: BinaryMatrix) -> tuple[RationalPoint, ...]:
    """Exact vertex set of {x in [0,1]^n : Mx <= 1}, sorted coordinatewise.

    Every vertex splits its coordinates into ones (O), zeros and a strictly
    fractional part (F).  Feasibility forces O to meet each row at most once
    and zeroes out every column sharing a row with O.  A row that meets O
    therefore lies inside those zeroed columns and never meets F, so the rows
    binding the fractional part, and hence its solutions, depend on F alone.
    F must satisfy |F| independent tight rows, and a row whose restriction to
    F is a strict subset of another's can never be tight (the superset row
    would overflow).  The enumeration makes two passes:

    1. Each support F (|F| >= 2) is scanned once.  Every full-rank subsystem
       drawn from its maximal restricted rows pins a unique rational solution,
       read as integer numerators over one common denominator; the
       strict-interior and feasibility checks run on those integers.
    2. Each row-compatible one-set O gives its 0/1 point, plus one vertex per
       solution of every support F that misses the columns O fixes.

    Raises ``CapExceededError`` above ``VERTEX_ENUMERATION_COLUMN_CAP``
    columns, since pass 1 scans all 2**n supports.
    """
    cap = VERTEX_ENUMERATION_COLUMN_CAP
    if m.cols > cap:
        raise CapExceededError(f"vertex enumeration capped at {cap} columns")
    n = m.cols
    row_masks = sorted(set(m.row_masks))
    conflict = [0] * n
    for mk in row_masks:
        for j in _bits(mk):
            conflict[j - 1] |= mk & ~_bit(j)

    # pass 1: (F, its columns, its fractional solutions) per support with any
    fractional: list[tuple[int, tuple[int, ...], list[list[Fraction]]]] = []
    for fmask in range(3, 1 << n):
        size = fmask.bit_count()
        if size < 2:
            continue
        restricted = []
        covered = 0
        for mk in row_masks:
            x = mk & fmask
            if x == fmask:
                # F itself would be the only maximal row
                restricted = []
                break
            if x.bit_count() >= 2 and x not in restricted:
                restricted.append(x)
                covered |= x
        if len(restricted) < size or covered != fmask:
            continue
        # by popcount descending, so each row comes after all of its supersets
        restricted.sort(key=int.bit_count, reverse=True)
        maximal: list[int] = []
        for i, x in enumerate(restricted):
            if len(maximal) + len(restricted) - i < size:
                break
            if not any(x & y == x for y in maximal):
                maximal.append(x)
        if len(maximal) < size:
            continue
        cols = tuple(_bits(fmask))
        # per maximal row: its 0/1 coefficients on F and the positions it meets
        coeffs = [[(x >> (c - 1)) & 1 for c in cols] for x in maximal]
        meets = [[i for i, a in enumerate(row) if a] for row in coeffs]
        solutions = set()
        for basis in itertools.combinations(range(len(maximal)), size):
            rows = [coeffs[b] + [1] for b in basis]
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
        if solutions:
            points = [[Fraction(a, den) for a in nums] for nums, den in solutions]
            fractional.append((fmask, cols, points))

    zero, one = Fraction(0), Fraction(1)
    found: list[tuple[Fraction, ...]] = []

    def one_sets(start: int, chosen: int):
        yield chosen
        for j in range(start, n + 1):
            if not conflict[j - 1] & chosen:
                yield from one_sets(j + 1, chosen | _bit(j))

    # pass 2: every vertex is one one-set plus at most one solution
    for ones in one_sets(1, 0):
        base = [zero] * n
        blocked = ones
        for j in _bits(ones):
            base[j - 1] = one
            blocked |= conflict[j - 1]
        found.append(tuple(base))
        for fmask, cols, points in fractional:
            if fmask & blocked:
                continue
            for coords in points:
                for j, c in zip(cols, coords):
                    base[j - 1] = c
                found.append(tuple(base))
            for j in cols:
                base[j - 1] = zero

    found.sort()
    return tuple(RationalPoint(coords) for coords in found)


def is_perfect_matrix(m: BinaryMatrix):
    """(verdict, witness): true iff every vertex of the polytope is a 0/1
    point; otherwise the first fractional vertex in sorted order is returned.
    """
    if m.has_zero_column():
        raise ZeroColumnError("matrix perfection undefined with a zero column")
    for point in polytope_vertices(m):
        if not point.is_integral():
            return False, point
    return True, None


# ---------------------------------------------------------------------------
# combined verdict for a graph


@dataclass(frozen=True)
class PerfectionReport:
    """All verdict paths for one graph's closed neighbourhood matrix.

    ``neighbourhood_matrix_perfect`` is the membership verdict: the matrix is
    an extended clique-node matrix and its column intersection graph is
    perfect.  ``matrix_perfect`` is the independent polytope cross-check.
    ``unit_relaxation`` is the largest coordinate sum over the same vertex
    set, the exact optimum of the linear relaxation at k = 1; the optimum at
    k is k times it.  Both are None when the graph exceeds the vertex
    enumeration cap.  The structural screen's verdict is reported but never
    enforced; it is known to disagree on some graphs (first at 6 nodes).
    """

    extended_clique_node: bool
    clique_graph_perfect: bool
    clique_graph_witness: tuple | None
    matrix_perfect: bool | None
    fractional_vertex: RationalPoint | None
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
    """
    if g.n > ODD_HOLE_NODE_CAP:
        raise CapExceededError(f"odd hole search capped at {ODD_HOLE_NODE_CAP} nodes")
    m = closed_neighbourhood_matrix(g)
    by_cliques = is_extended_clique_node_by_cliques(m)
    by_pattern = is_extended_clique_node_by_pattern(m)
    if by_cliques.verdict != by_pattern.verdict:
        raise ConsistencyError(
            "exact recognizers disagree: "
            f"cliques={by_cliques.verdict} pattern={by_pattern.verdict}"
        )
    structural = find_undominated_obstruction(g)

    gq = clique_graph(m)
    gq_perfect, gq_witness = is_perfect_graph(gq)

    member = by_cliques.verdict and gq_perfect

    matrix_verdict = None
    fractional = None
    unit_relaxation = None
    if g.n <= VERTEX_ENUMERATION_COLUMN_CAP:
        vertices = polytope_vertices(m)
        fractional = next((p for p in vertices if not p.is_integral()), None)
        matrix_verdict = fractional is None
        unit_relaxation = max(p.coordinate_sum() for p in vertices)
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
