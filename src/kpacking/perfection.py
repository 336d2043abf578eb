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
    induced_subgraph,
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


def _solve_unit_sum_system(masks, cols):
    """Solve sum(x_j for j in mask) == 1 for each mask; unknowns are ``cols``.
    Returns col -> Fraction, or None when the square system is singular.
    """
    k = len(cols)
    rows = [[(mk >> (c - 1)) & 1 for c in cols] + [1] for mk in masks]
    if len(_eliminate(rows, k)) < k:
        return None
    return {c: Fraction(rows[i][k], rows[i][i]) for i, c in enumerate(cols)}


def polytope_vertices(
    m: BinaryMatrix, max_cols: int = VERTEX_ENUMERATION_COLUMN_CAP
) -> tuple[RationalPoint, ...]:
    """Exact vertex set of {x in [0,1]^n : Mx <= 1}, sorted coordinatewise.

    Every vertex splits its coordinates into ones (O), zeros and a strictly
    fractional part (F).  Feasibility forces O to meet each row at most once
    and zeroes out every column sharing a row with O; the fractional part must
    satisfy |F| independent tight rows, and a row whose restriction to F is a
    strict subset of another's can never be tight (the superset row would
    overflow).  So it suffices to scan the row-compatible one-sets O, the
    fractional supports F over the remaining columns, and the full-rank
    subsystems drawn from the maximal restricted rows.  Each candidate basis
    pins a unique rational solution, checked strictly interior and feasible.
    """
    if m.cols > max_cols:
        raise CapExceededError(f"vertex enumeration capped at {max_cols} columns")
    n = m.cols
    row_masks = tuple(sorted(set(m.row_masks)))
    conflict = [0] * n
    for mk in row_masks:
        for j in _bits(mk):
            conflict[j - 1] |= mk & ~_bit(j)

    found: dict[tuple[Fraction, ...], RationalPoint] = {}

    def record(ones: int, frac: dict[int, Fraction] | None) -> None:
        coords = []
        for j in range(1, n + 1):
            if ones & _bit(j):
                coords.append(Fraction(1))
            elif frac and j in frac:
                coords.append(frac[j])
            else:
                coords.append(Fraction(0))
        key = tuple(coords)
        if key not in found:
            found[key] = RationalPoint(key)

    def one_sets(start: int, chosen: int):
        yield chosen
        for j in range(start, n + 1):
            if not conflict[j - 1] & chosen:
                yield from one_sets(j + 1, chosen | _bit(j))

    for ones in one_sets(1, 0):
        record(ones, None)
        zero_forced = 0
        for mk in row_masks:
            if mk & ones:
                zero_forced |= mk
        candidates = [
            j for j in range(1, n + 1) if not (ones | zero_forced) & _bit(j)
        ]
        for size in range(2, len(candidates) + 1):
            for fsub in itertools.combinations(candidates, size):
                fmask = 0
                for j in fsub:
                    fmask |= _bit(j)
                restricted = sorted(
                    {
                        mk & fmask
                        for mk in row_masks
                        if not mk & ones and (mk & fmask).bit_count() >= 2
                    }
                )
                covered = 0
                for mk in restricted:
                    covered |= mk
                if covered != fmask:
                    continue
                maximal = [
                    x
                    for x in restricted
                    if not any(x != y and x & y == x for y in restricted)
                ]
                if len(maximal) < size:
                    continue
                for basis in itertools.combinations(maximal, size):
                    sol = _solve_unit_sum_system(basis, fsub)
                    if sol is None:
                        continue
                    if any(not 0 < sol[j] < 1 for j in fsub):
                        continue
                    if any(
                        sum(sol[j] for j in _bits(mk)) > 1 for mk in restricted
                    ):
                        continue
                    record(ones, sol)

    return tuple(found[key] for key in sorted(found))


def tight_constraint_rank(m: BinaryMatrix, point: RationalPoint) -> int:
    """Rank of the constraints the point satisfies with equality (rows at 1,
    coordinates at either bound).  Vertices have rank equal to the dimension.
    """
    n = m.cols
    rows = [
        [(mk >> j) & 1 for j in range(n)]
        for mk in m.row_masks
        if sum(point.coords[j - 1] for j in _bits(mk)) == 1
    ]
    rows += [
        [int(i == j) for i in range(n)]
        for j, c in enumerate(point.coords)
        if c == 0 or c == 1
    ]
    return len(_eliminate(rows, n))


def is_perfect_matrix(
    m: BinaryMatrix, max_cols: int = VERTEX_ENUMERATION_COLUMN_CAP
):
    """(verdict, witness): true iff every vertex of the polytope is a 0/1
    point; otherwise the first fractional vertex in sorted order is returned.
    """
    if m.has_zero_column():
        raise ZeroColumnError("matrix perfection undefined with a zero column")
    for point in polytope_vertices(m, max_cols):
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


def perfection_report(
    g: Graph, vertex_cap: int = VERTEX_ENUMERATION_COLUMN_CAP
) -> PerfectionReport:
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
    if g.n <= vertex_cap:
        vertices = polytope_vertices(m, vertex_cap)
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


# ---------------------------------------------------------------------------
# imperfection inherited from an induced subgraph


@dataclass(frozen=True)
class InheritedImperfectionReport:
    """Empirical check that an imperfect-clique-graph subgraph, suitably
    dominated, forces the whole graph's clique graph to be imperfect.

    The containment hypothesis has two readings that swap the roles of the
    subgraph and its complement; both are evaluated (open neighbourhoods in
    the ambient graph, containment not required strict) and divergences are
    flagged rather than resolved.
    """

    subset: tuple[int, ...]
    applicable: bool
    hypothesis_holds: bool
    statement_reading_holds: bool
    readings_diverge: bool
    clique_graph_imperfect: bool
    conclusion_verified: bool


def check_inherited_imperfection(g: Graph, sub) -> InheritedImperfectionReport:
    subset = tuple(sorted(set(sub)))
    inside = induced_subgraph(g, subset)
    sub_gq = clique_graph(closed_neighbourhood_matrix(inside))
    applicable = not is_perfect_graph(sub_gq)[0]

    submask = 0
    for v in subset:
        submask |= _bit(v)
    outside = [v for v in g.nodes() if not submask & _bit(v)]

    hypothesis = all(
        any(g.adj[v - 1] & ~g.adj[w - 1] == 0 for w in subset) for v in outside
    )
    statement = all(
        any(g.adj[v - 1] & ~g.adj[w - 1] == 0 for w in outside) for v in subset
    )

    whole_gq = clique_graph(closed_neighbourhood_matrix(g))
    imperfect = not is_perfect_graph(whole_gq)[0]

    return InheritedImperfectionReport(
        subset=subset,
        applicable=applicable,
        hypothesis_holds=hypothesis,
        statement_reading_holds=statement,
        readings_diverge=hypothesis != statement,
        clique_graph_imperfect=imperfect,
        conclusion_verified=(not (applicable and hypothesis)) or imperfect,
    )
