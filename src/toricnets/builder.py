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
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import geom
from .cover import BranchCutLayout, Cut
from .errors import (InvariantViolated, NotRealizable, ParityViolation,
                     SlopeTie, ToricNetsError)
from .multisection import parity_and_realizability
from .network import SpectralNetwork, Wall, slope_pairing, validate_network


def _edge_point(polytope, e, t):
    a, b = polytope.edge(e)
    return geom.lerp(a, b, t)


def _depth_point(disk, boundary_point, s):
    return geom.lerp(boundary_point, disk.center, s)


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
    anchor: int          # cone index of the anchor vertex
    w1_edge: int
    w1_t: Fraction
    w2_edge: int
    w3_edge: int
    cut_edge: int


def _plan(tms, vees):
    n_value = len(vees)
    count = n_value - 2
    plans = []
    for d in range(count):
        anchor = vees[n_value - 2 - d]
        plans.append(_YPlan(
            depth_index=d,
            anchor=anchor,
            w1_edge=vees[0],
            w1_t=Fraction(1, 2) + Fraction(d + 1, 4 * (count + 1)),
            w2_edge=anchor,
            w3_edge=(anchor + 1) % tms.fan.n,
            cut_edge=(anchor + 1) % tms.fan.n,
        ))
    return plans


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
    polytope = disk.polytope
    walls_raw = []   # (branch index, polyline, end edge, end parameter)
    cuts = []
    base_depth = Fraction(1, 3) * shrink
    for p in plans:
        s = base_depth * Fraction(1, 2) ** p.depth_index
        q_long = _edge_point(polytope, p.w3_edge, Fraction(1, 4))
        b = _depth_point(disk, q_long, s)
        w3 = (b, q_long)
        cut_target = polytope.edge_barycenter(p.cut_edge)
        cut_poly = (b, cut_target)
        w2_target = _edge_point(polytope, p.w2_edge, Fraction(3, 4))
        w2 = (b, w2_target)
        w1_target = _edge_point(polytope, p.w1_edge, p.w1_t)
        waypoints = _quarter_points_cw(polytope.n, p.w3_edge, p.w1_edge)
        pts = [b]
        for (e, t) in waypoints:
            pts.append(_depth_point(disk, _edge_point(polytope, e, t), s))
        pts.append(w1_target)
        w1 = tuple(pts)
        bi = p.depth_index
        walls_raw.append((bi, w1, p.w1_edge, p.w1_t))
        walls_raw.append((bi, w2, p.w2_edge, Fraction(3, 4)))
        walls_raw.append((bi, w3, p.w3_edge, Fraction(1, 4)))
        cuts.append(Cut(cut_poly, (0, 1), p.cut_edge))
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
