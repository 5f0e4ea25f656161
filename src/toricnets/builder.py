"""Explicit construction of a spectral network for a 2-fold multi-section.

Let V_1 < ... < V_N be the maximal cones where the two sheet graphs cross.
The network consists of N-2 Y-graphs (one branch point, three boundary
walls, one cut each), nested as a left comb: the Y at nesting depth d is
anchored at vertex V_{N-1-d}; its first wall runs all the way back to the
half-edge before V_1, its second wall lands just before its anchor vertex,
its third wall just after, and its cut at the barycenter immediately after
that.  Between the first and second walls sits the entire next-deeper Y
(or, at the innermost level, the bare vertex V_1); between consecutive
arms the boundary label flips an odd number of times (vertices count one
flip each, cuts one each), which is exactly the alternation the wall
factors around a branch point need.

Geometry: every Y hangs at its own depth below the boundary (deeper for
outer Y-graphs); the long first arm travels as a polyline through
constant-depth waypoints over the quarter points of the boundary edges,
crossing spokes transversely, and descends at its target.  All placement
is exact; if the polygon is shaped so that some arms collide, all depths
are halved and the layout retried (the structure localizes toward the
boundary, so this terminates).

Placement runs on an integer grid of scale D, fixed before any point is
placed: a point is an int pair X and leaves once as ``Fraction(X, D)``.
With count = N-2 Y-graphs at depths 2^-d * shrink / 3 (d < count), D =
lcm(4(count+1), lcm(4, n) * 3 * 2^(count-1) / shrink) makes every division
exact.  The vertices are lattice points (the fan is smooth, phi integral),
so an edge vector is D times an integer vector and divides by any edge
parameter's denominator: 4, or 4(count+1) where a first arm lands.  The
center (mean of n vertices) has denominator n and a boundary point 4, so
their difference is D / lcm(4, n) times an integer vector and divides by
any depth's denominator, 3 * 2^d / shrink.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .cover import BranchCutLayout, Cut
from .errors import (InvariantViolated, NotRealizable, ParityViolation,
                     SlopeTie, ToricNetsError)
from .multisection import parity_and_realizability
from .network import SpectralNetwork, Wall, slope_pairing, validate_network


def _label_from_slopes(tms, cover, cone, edge):
    """Label (a, b) of a boundary half-edge: <m(b) - m(a), v_edge> > 0.

    The slopes are those of the lifts over ``cone`` that the sheets carry
    in the cover's sheet/lift matching.
    """
    pairing = slope_pairing(tms, cover.lift_map(tms), cone, edge, (0, 1))
    if pairing > 0:
        return (0, 1)
    if pairing < 0:
        return (1, 0)
    raise SlopeTie(
        f"zero slope pairing on edge {edge} at cone {cone}; "
        "input is not separated")


@dataclass
class _YPlan:
    depth_index: int
    w1_edge: int         # the first arm lands at w1_t of this edge
    w1_t: Fraction
    w2_edge: int         # ends at the anchor vertex; second arm lands at 3/4
    w3_edge: int         # starts there; third arm lands at 1/4, cut at 1/2


def _plan(tms, vees):
    """One plan per nesting depth d, anchored at V_{N-1-d}."""
    count = len(vees) - 2
    return [_YPlan(d, vees[0], Fraction(1, 2) + Fraction(d + 1, 4 * count + 4),
                   anchor, (anchor + 1) % tms.fan.n)
            for d, anchor in enumerate(vees[count:0:-1])]


def _quarter_points_cw(n, start_edge, end_edge):
    """Quarter points (edge, 1/4 or 3/4) walking cw from start to end.

    The walk starts at (start_edge, 1/4) and ends at (end_edge, 3/4), on
    the cyclic longitude edge_index + t mod n, and steps it down by 1/2.
    Returned in cw order, excluding the start, including the end.
    """
    out = []
    e = start_edge
    while True:
        e = (e - 1) % n
        out.append((e, Fraction(3, 4)))
        if e == end_edge:
            return out
        out.append((e, Fraction(1, 4)))


def _build_geometry(disk, plans, shrink):
    """Walls and cut layout of the planned Y-graphs, placed on the scale D."""
    n, count = disk.fan.n, len(plans)
    scale = lcm(4 * (count + 1),
                lcm(4, n) * 3 * 2 ** (count - 1) * shrink.denominator)
    verts = [(x.numerator * scale, y.numerator * scale)
             for x, y in disk.polytope.vertices]
    center = (sum(x for x, _ in verts) // n, sum(y for _, y in verts) // n)

    def lerp(a, b, t):
        return (a[0] + (b[0] - a[0]) * t.numerator // t.denominator,
                a[1] + (b[1] - a[1]) * t.numerator // t.denominator)

    def place(e, t, s=None):
        """Point t of edge e, taken the fraction s towards the center."""
        p = lerp(verts[e - 1], verts[e], t)
        p = lerp(p, center, s) if s else p
        return (Fraction(p[0], scale), Fraction(p[1], scale))

    walls_raw = []   # (branch index, polyline, end edge, end parameter)
    cuts = []
    quarter, three_quarters = Fraction(1, 4), Fraction(3, 4)
    for p in plans:
        s = shrink / (3 * 2 ** p.depth_index)
        b = place(p.w3_edge, quarter, s)
        w1 = (b, *(place(e, t, s) for e, t in
                   _quarter_points_cw(n, p.w3_edge, p.w1_edge)),
              place(p.w1_edge, p.w1_t))
        walls_raw += [
            (p.depth_index, w1, p.w1_edge, p.w1_t),
            (p.depth_index, (b, place(p.w2_edge, three_quarters)),
             p.w2_edge, three_quarters),
            (p.depth_index, (b, place(p.w3_edge, quarter)), p.w3_edge, quarter)]
        cuts.append(Cut((b, disk.spoke(p.w3_edge)[1]), (0, 1), p.w3_edge))
    return walls_raw, BranchCutLayout(disk, tuple(cuts))


def empty_network(disk):
    """Wall-free network for covers that need no walls (rank 1)."""
    layout = BranchCutLayout(disk, ())
    return SpectralNetwork((), layout), layout


def _assemble(tms, disk, plans, shrink):
    """The network and cover of one placement of the planned Y-graphs.

    Each wall lands at the parameter t of its edge that the plan chose, so
    the half-edge it lands on is read from t: the one at the vertex of
    cone e-1 for t < 1/2, of cone e for t > 1/2.
    """
    walls_raw, layout = _build_geometry(disk, plans, shrink)
    cover = layout.cover(tms.degree)
    half = Fraction(1, 2)
    walls = []
    for wid, (bi, poly, end_edge, t) in enumerate(walls_raw):
        if not (0 < t < 1 and t != half):
            raise InvariantViolated(f"wall {wid} does not land inside a "
                                    f"half-edge of edge {end_edge}")
        cone = (end_edge - 1) % disk.fan.n if t < half else end_edge
        label = _label_from_slopes(tms, cover, cone, end_edge)
        walls.append(Wall(wid, poly, label, bi, end_edge, cone))
    return SpectralNetwork(walls, layout), cover


def build_network(tms, disk):
    """Run the rank-2 construction; returns (network, layout).

    The output network passes ``validate_network`` with an empty report
    and carries exactly N-2 branch points.  Rank-1 inputs take the
    degenerate wall-free path.
    """
    if not tms.report.ok:
        raise NotRealizable(f"invalid multi-section: {tms.report}")
    if tms.degree == 1:
        return empty_network(disk)
    vees = tms.crossing_cones  # raises NotTwoFold for other degrees
    n_value = len(vees)
    result = parity_and_realizability(tms, n_value)
    if not result.parity_ok:
        raise ParityViolation(
            f"N = {n_value} has the wrong parity for this cover class")
    if not result.realizable:
        raise NotRealizable(f"N = {n_value} < 3 admits no embedded realization")

    # A placement is accepted when the assembled network validates, so
    # every disjointness and interiority check runs once per placement.
    plans = _plan(tms, vees)
    shrink = Fraction(1)
    for _ in range(40):
        net, cover = _assemble(tms, disk, plans, shrink)
        report = validate_network(net, tms, cover)
        if report.ok:
            break
        shrink /= 2
    else:
        raise ToricNetsError(f"could not place a valid layout: {report}")

    # Wall labels around every branch point must alternate; this is forced
    # by the flip structure, so a failure means the geometry is wrong.
    for bi in range(len(net.branch_points)):
        labels = [w.label for w in net.arms[bi]]
        if not (len(labels) == 3 and labels[0] == labels[2] != labels[1]):
            raise InvariantViolated(
                f"branch point {bi} labels {labels} do not alternate")
    return net, net.layout
