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

Geometry.  Write P for the polygon, with vertex a dual to cone a and edge
e = [vertex e-1, vertex e] dual to ray e, B(e, t) for the point t of edge e,
M_e = B(e, 1/2) for its barycenter and c for the center, the mean of the
vertices (and of the M_e).  H_s is the homothety p -> p + s(c - p), and Q
is the polygon of the quarter points B(e, 1/4), B(e, 3/4): P with its
corners cut off along the chords B(a, 3/4)-B(a+1, 1/4).  The Y of depth d
has depth s = 2^-d / 3, anchor a and e0 = V_1:

- its branch point is b = H_s(B(a+1, 1/4));
- its first wall w1 is an arc along Q_s = H_s(Q) from b cw through the
  quarter points (a, 3/4), (a, 1/4), ..., (e0, 3/4), then a descent to
  B(e0, 1/2 + (d+1)/(4(N-1))) on edge e0;
- its second and third walls w2, w3 run straight from b to B(a, 3/4) and
  B(a+1, 1/4), and its cut from b to M_{a+1}.

This placement passes every check that ``validate_network`` and
``build_cover`` make, so it is placed once.  One fact carries the proof:
c lies strictly on the far side of every chord B(a, 3/4)-B(a+1, 1/4) from
vertex a.  (Measure u linearly with u = 1 at vertex a and u = 0 at
vertices a-1, a+1; the other vertices have u < 0, so u(c) <= 1/3, while
the chord has u = 3/4 and the segment M_a-M_{a+1} u = 1/2.)  Hence c is
interior to Q, which is strictly convex, and every region (c, M_a,
vertex a, M_{a+1}) is convex.  The argument holds for any strictly
decreasing depths in (0, 1).

(a) Q_s = c + (1-s)(Q - c).  For s > s', Q_s is Q_{s'} shrunk by
    (1-s)/(1-s') about c, an interior point, so it lies in the interior
    of conv Q_{s'}: arcs at different depths are disjoint.
(b) w2, w3 and the cut run from b = H_s(p), p = B(a+1, 1/4), to the
    boundary.  w3 and the cut end on edge a+1, beyond the line of Q_s's
    edge-(a+1) piece through b; w2 ends at B(a, 3/4), beyond the line of
    Q_s's corner chord through b.  Each lies in a closed half-plane beyond
    a supporting line of conv Q_s, so it meets conv Q_s only at b: it
    misses every shallower arc (inside conv Q_s by (a)) and meets its own
    only at b.
(c) Every descent runs in the triangle T = (c, B(e0, 1/4), B(e0, 3/4)).  A
    deeper Y's arc arrives at its 3/4 corner by a corner chord, so a
    descent crosses each deeper Q_{s'} on its edge-e0 piece, strictly
    inside it and on no arc, and lies beyond conv Q_s otherwise.  Two
    descents join nested points of the two sides of T at the apex
    B(e0, 3/4), the deeper one nearer the apex on both sides; its line
    separates the apex from both ends of the shallower one, so they are
    disjoint.
(d) The anchors are V_2 .. V_{N-1}, so e0 = V_1 < a < V_N <= n-1.  So
    the corner sectors from c over the boundary arcs B(a, 3/4) .. M_{a+1},
    which hold each Y's w2, w3 and cut, meet each other and T only at c,
    which none of these segments holds.  A deeper Y's arc
    spans the arc B(e0, 3/4) .. B(a'+1, 1/4) with a' < a, outside every
    shallower Y's sector.
(e) A sector lies in region a, which is convex: the cut touches spoke
    a+1 only at its own barycenter, where it ends from inside the region,
    and w2, w3 touch no spoke.  Each corner chord of an arc lies inside
    one region, each descent inside region e0, and the edge-e piece of an
    arc crosses spoke e properly at H_s(M_e).
(f) At b the four directions are pairwise distinct: the line through c
    and p (which holds b and w3) separates B(a, 3/4), and w1's chord
    direction, from M_{a+1}, since region a's angle at c is below pi; and
    w1 runs along the chord while w2 climbs to it.  So the arms and the
    cut share only b.

Validation's conditions follow.  (1) Every vertex but a wall's landing
is H_s of a boundary point, 0 < s < 1, so interior; walls touch cuts only
at their own branch point and cross spokes only properly, by (b)-(f).  (2)
The labels are (0, 1) or (1, 0) on two sheets.  (3) Each branch point has
three walls and walls meet only there, by (a)-(d) and (f).  (4) The wall
ids are their positions.  (5) Each wall starts at its own branch point,
the cut's first point, and meets no other cut.  (6) Each landing is
inside the half-edge its parameter names (1/4 and 3/4 are off the
barycenters and vertices, as is every w1 parameter in (1/2, 3/4)), and
each label is the one of positive slope pairing there, computed from the
same sheet/lift matching the check reads.  ``build_cover``'s checks hold
too: each cut ends at its barycenter from an interior branch point,
touches a spoke only at that end (e), the cut edges a+1 are distinct, and
cuts lie in disjoint sectors (d).  ``build_network`` still validates the
placement once, by one contact sweep of the cover and one of the network
(``geom.contacts``), and a violation raises ``InvariantViolated``.

Placement runs on an integer grid of scale D, fixed before any point is
placed: a point is an int pair X standing for X / D, and the layout
carries D as its scale.  Edge parameters and depths are int ratios.
With count = N-2 Y-graphs at depths 2^-d / 3 (d < count), D =
lcm(4(count+1), lcm(4, n) * 3 * 2^(count-1)) makes every division exact.
D is a multiple of lcm(4, n), so of the disk model's scale (which divides
lcm(2, n)), and the placement starts from the vertices and the center of
``GridPoints(disk, D)``.  The vertices are lattice points (the fan is
smooth, phi integral), so an edge vector is D times an integer vector and
divides by any edge parameter's denominator: 2, 4, or 4(count+1) where a
first arm lands.  The center (mean of n vertices) has denominator n and a
boundary point 4, so their difference is D / lcm(4, n) times an integer
vector and divides by any depth's denominator, 3 * 2^d.
"""
from __future__ import annotations

from math import lcm
from typing import NamedTuple

from .cover import BranchCutLayout, Cut, GridPoints
from .errors import (InvariantViolated, NotRealizable, ParityViolation,
                     SlopeTie)
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


# An edge parameter or a depth t is an int ratio (numerator, denominator).
QUARTER, HALF, THREE_QUARTERS = (1, 4), (1, 2), (3, 4)


class _YPlan(NamedTuple):
    depth_index: int
    w1_edge: int         # the first arm lands at w1_t of this edge
    w1_t: tuple          # in (1/2, 3/4): 1/2 + (d+1)/(4(count+1))
    w2_edge: int         # ends at the anchor vertex; second arm lands at 3/4
    w3_edge: int         # starts there; third arm lands at 1/4, cut at 1/2


def _plan(tms, vees):
    """One plan per nesting depth d, anchored at V_{N-1-d}."""
    count = len(vees) - 2
    return [_YPlan(d, vees[0], (2 * count + 3 + d, 4 * count + 4),
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
        out.append((e, THREE_QUARTERS))
        if e == end_edge:
            return out
        out.append((e, QUARTER))


def _build_geometry(disk, plans):
    """Walls and cut layout of the planned Y-graphs, placed on the scale D."""
    n, count = disk.fan.n, len(plans)
    scale = lcm(4 * (count + 1), lcm(4, n) * 3 * 2 ** (count - 1))
    grid = GridPoints(disk, scale)
    verts, center = grid.vertices, grid.spokes[0][0]

    def lerp(a, b, t):
        num, den = t
        return (a[0] + (b[0] - a[0]) * num // den,
                a[1] + (b[1] - a[1]) * num // den)

    def place(e, t, s=None):
        """Point t of edge e, taken the fraction s towards the center."""
        p = lerp(verts[e - 1], verts[e], t)
        return lerp(p, center, s) if s else p

    walls_raw = []   # (branch index, polyline, end edge, end parameter)
    cuts = []
    for p in plans:
        s = (1, 3 * 2 ** p.depth_index)
        b = place(p.w3_edge, QUARTER, s)
        w1 = (b, *(place(e, t, s) for e, t in
                   _quarter_points_cw(n, p.w3_edge, p.w1_edge)),
              place(p.w1_edge, p.w1_t))
        walls_raw += [
            (p.depth_index, w1, p.w1_edge, p.w1_t),
            (p.depth_index, (b, place(p.w2_edge, THREE_QUARTERS)),
             p.w2_edge, THREE_QUARTERS),
            (p.depth_index, (b, place(p.w3_edge, QUARTER)),
             p.w3_edge, QUARTER)]
        cuts.append(Cut((b, place(p.w3_edge, HALF)), (0, 1), p.w3_edge))
    layout = BranchCutLayout(disk, tuple(cuts), scale)
    layout.grid = grid  # the grid it was placed on: one GridPoints a build
    return walls_raw, layout


def empty_network(disk):
    """Wall-free network for covers that need no walls (rank 1)."""
    layout = BranchCutLayout(disk, (), disk.scale)
    return SpectralNetwork((), layout), layout


def checked_realizability(tms):
    """``tms.realizability``, or ParityViolation when N has the wrong
    parity for the cover class (odd in case O, even in case E), which the
    parity theorem rules out on a valid two-fold multi-section."""
    result = tms.realizability
    if not result.parity_ok:
        raise ParityViolation(f"N = {len(tms.crossing_cones)} has the wrong "
                              "parity for this cover class")
    return result


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
    if not checked_realizability(tms).realizable:
        raise NotRealizable(
            f"N = {len(vees)} < 3 admits no embedded realization")

    # The module docstring proves this placement valid, so it is placed
    # once; a violation means the construction is wrong.  Each wall lands
    # at the parameter t = num/den of its edge that the plan chose, 1/4,
    # 3/4 or in (1/2, 3/4), so the half-edge it lands on is read from t:
    # the one at the vertex of cone e-1 for t < 1/2, of cone e for
    # t > 1/2.  Condition 6 of ``validate_network`` checks each landing.
    walls_raw, layout = _build_geometry(disk, _plan(tms, vees))
    cover = layout.cover(tms.degree)
    walls = []
    for wid, (bi, poly, end_edge, (num, den)) in enumerate(walls_raw):
        cone = (end_edge - 1) % disk.fan.n if 2 * num < den else end_edge
        label = _label_from_slopes(tms, cover, cone, end_edge)
        walls.append(Wall(wid, poly, label, bi, end_edge, cone))
    net = SpectralNetwork(walls, layout)
    report = validate_network(net, tms, cover)
    if not report.ok:
        v = report.violations[0]
        raise InvariantViolated(
            f"the placed network violates condition {v.condition}: "
            f"{v.message} (witness {v.witness!r})")

    # Wall labels around every branch point must alternate; this is forced
    # by the flip structure, so a failure means the geometry is wrong.
    for bi in range(len(net.branch_points)):
        labels = [w.label for w in net.arms[bi]]
        if not (len(labels) == 3 and labels[0] == labels[2] != labels[1]):
            raise InvariantViolated(
                f"branch point {bi} labels {labels} do not alternate")
    return net, net.layout
