"""Spectral networks subordinate to a 2-fold multi-section.

Walls are oriented rational polylines from a branch point to the boundary
of the polygon; each carries an ordered sheet pair (a, b) meaning its
solitons travel from sheet a to sheet b.  The package works in the regime
where walls are pairwise disjoint (one Y-graph per branch point), which is
what the rank-2 construction produces; joint-fed walls are detected and
rejected rather than propagated.

A network is its walls plus a ``BranchCutLayout``; it reads the disk
model, fan, polygon, cuts, branch points and cut regions from the layout.

The boundary-track machinery turns the ccw cyclic order of boundary
landings (wall endpoints, cut endpoints, spoke barycenters) into crossing
sequences for path-ordered products: a loop just inside the boundary
crosses exactly these curves in exactly this order.
"""
from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass
from fractions import Fraction

from . import geom
from .cover import Crossing, GridPoints, SurfacePath
from .errors import NoSharedLift, NotSupported
from .reporting import ValidationReport


@dataclass(frozen=True)
class Wall:
    id: int
    polyline: tuple          # oriented, start -> end
    label: tuple             # (source sheet, target sheet), solitons a -> b
    start_branch: int | None  # branch point index, None for joint-fed walls
    end_edge: int            # polygon edge carrying the endpoint
    end_cone: int            # cone of the half-edge's vertex endpoint

    @property
    def start(self):
        return self.polyline[0]

    @property
    def end(self):
        return self.polyline[-1]


class SpectralNetwork:
    """Walls plus their branch-cut layout.

    The walls are fixed at construction, so the facts derived from them
    and the layout (the points on one integer grid, the
    pairwise-disjointness verdict, the ccw-sorted track events, the arm
    order of every branch point) are computed once, on first use, and
    then read by everything that needs them.
    """

    def __init__(self, walls, layout):
        self._walls = tuple(walls)
        self.layout = layout
        # read through the layout, which owns them
        self.disk = layout.disk
        self.fan = layout.disk.fan
        self.polytope = layout.disk.polytope
        self.cuts = layout.cuts
        self.branch_points = layout.branch_points

    @property
    def walls(self):
        return self._walls

    @functools.cached_property
    def grid(self):
        """Every point of the network on one integer grid (``GridPoints``)."""
        return GridPoints(self.layout, [w.polyline for w in self.walls])

    @functools.cached_property
    def walls_disjoint(self):
        return walls_pairwise_disjoint(self)

    @functools.cached_property
    def events(self):
        """Boundary-track events in ccw order (see ``track_events``)."""
        return track_events(self)

    @functools.cached_property
    def arms(self):
        """Arms of each branch point in ccw order (``branch_point_arms``)."""
        return tuple(branch_point_arms(self, b)
                     for b in range(len(self.branch_points)))

    def walls_of_branch(self, b):
        return [w for w in self.walls if w.start_branch == b]


# -- boundary positions ------------------------------------------------------

def edge_parameter(polytope, edge_index, point):
    """Exact parameter of a point on the polygon edge, or None."""
    a, b = polytope.edge(edge_index)
    d = geom.sub(b, a)
    w = geom.sub(point, a)
    if geom.cross(d, w) != 0:
        return None
    if d[0] != 0:
        t = Fraction(w[0], d[0])
    else:
        t = Fraction(w[1], d[1])
    if 0 <= t <= 1:
        return t
    return None


def boundary_position(polytope, point):
    """(edge, parameter) of a boundary point, or None off the boundary.

    The parameter is taken in [0, 1): vertex e is t = 0 of edge e+1 rather
    than t = 1 of edge e.  Only the check of input claims (condition 6 of
    ``validate_network``) searches the edges, and only for a wall whose
    claimed edge does not carry its end inside a half-edge; the builder
    and the track know each wall's edge.
    """
    for e in range(polytope.n):
        t = edge_parameter(polytope, e, point)
        if t is not None and t < 1:
            return (e, t)
    return None


def half_edge_of_boundary_point(polytope, point):
    """(edge, cone-of-vertex-endpoint) for a half-edge interior point.

    Returns None when the point is a vertex or a barycenter (not in the
    relative interior of any half-edge).
    """
    pos = boundary_position(polytope, point)
    if pos is None:
        return None
    e, t = pos
    if t == 0 or t == Fraction(1, 2):
        return None
    n = polytope.n
    cone = (e - 1) % n if t < Fraction(1, 2) else e % n
    return e, cone


def _claimed_half_edge(polytope, wall):
    """The wall's half-edge, read on its claimed edge ``wall.end_edge``.

    None unless the end lies in the relative interior of a half-edge of
    that edge; then it is on no other edge, so the search of
    ``half_edge_of_boundary_point`` would find the same half-edge.
    """
    e, n = wall.end_edge, polytope.n
    if not 0 <= e < n:
        return None
    t = edge_parameter(polytope, e, wall.end)
    if t is None or t in (0, Fraction(1, 2), 1):
        return None
    return e, (e - 1) % n if t < Fraction(1, 2) else e


@dataclass(frozen=True)
class TrackEvent:
    """One crossing of the near-boundary ccw track."""
    key: tuple               # (edge, t, tier) ccw sort key
    kind: str                # 'wall' | 'spoke' | 'cut'
    index: int
    region: int              # region in which the crossing happens (walls,
                             # cuts) or the ccw-target region (spokes)


def track_events(net: SpectralNetwork):
    """All boundary-track crossings in ccw cyclic order, as a tuple.

    At a barycenter the order is: cut hugging from the earlier region,
    then the spoke, then a cut hugging from the later region.  A wall's
    event sits at its end's parameter on its own edge, ``w.end_edge``.
    """
    n = net.fan.n
    events = []
    for w in net.walls:
        t = edge_parameter(net.polytope, w.end_edge, w.end)
        if t is None:
            raise NotSupported(
                f"wall {w.id} does not end on edge {w.end_edge}")
        events.append(TrackEvent((w.end_edge, t, 1), "wall", w.id,
                                 w.end_cone))
    for k, (cut, region) in enumerate(zip(net.cuts, net.layout.cut_region)):
        e = cut.edge
        if region == (e - 1) % n:
            tier = 0
        elif region == e % n:
            tier = 2
        else:
            raise NotSupported(
                f"cut {k} lands on edge {e} from non-adjacent region {region}")
        events.append(TrackEvent((e, Fraction(1, 2), tier), "cut", k, region))
    for e in range(n):
        events.append(TrackEvent((e, Fraction(1, 2), 1), "spoke", e, e % n))
    events.sort(key=_event_key)
    return tuple(events)


def vertex_chamber_key(cone_index, n):
    """Track sort key of the basepoint at the polygon vertex of a cone."""
    return ((cone_index + 1) % n, Fraction(0), -1)


def _event_key(ev):
    return ev.key


def _loop_from(events, key):
    """The full ccw loop of sorted events, starting just after a key."""
    i = bisect.bisect_right(events, key, key=_event_key)
    return events[i:] + events[:i]


def _cyclic_slice(events, from_key, to_key):
    """Sorted events strictly between two keys going ccw, in crossing order."""
    if from_key == to_key:
        return ()
    i = bisect.bisect_right(events, from_key, key=_event_key)
    j = bisect.bisect_left(events, to_key, key=_event_key)
    if from_key < to_key:
        return events[i:j]
    return events[i:] + events[:j]


def track_path(net: SpectralNetwork, from_cone, to_cone,
               ccw=True) -> SurfacePath:
    """Boundary-track path between two vertex chambers, as a SurfacePath.

    The path starts on sheet 0 at the basepoint near the vertex dual to
    ``from_cone`` and crosses everything the ccw (or cw) track crosses.
    """
    n = net.fan.n
    a = vertex_chamber_key(from_cone, n)
    b = vertex_chamber_key(to_cone, n)
    if ccw:
        chosen, d = _cyclic_slice(net.events, a, b), +1
    else:
        chosen, d = _cyclic_slice(net.events, b, a)[::-1], -1
    return SurfacePath(from_cone % n, 0,
                       [Crossing(ev.kind, ev.index, d) for ev in chosen])


def boundary_loop(net: SpectralNetwork, base_cone, ccw=True) -> SurfacePath:
    """Full boundary-parallel loop based at a vertex chamber."""
    n = net.fan.n
    ordered = _loop_from(net.events, vertex_chamber_key(base_cone, n))
    if not ccw:
        ordered = ordered[::-1]
    d = +1 if ccw else -1
    crossings = [Crossing(ev.kind, ev.index, d) for ev in ordered]
    return SurfacePath(base_cone % n, 0, crossings)


# -- solitons ----------------------------------------------------------------

@dataclass(frozen=True)
class Soliton:
    wall_id: int
    source_sheet: int
    target_sheet: int
    branch_point: int
    cut_index: int
    turns: int               # full tangent turns of the closed-up loop

    def transport_path(self, cover) -> SurfacePath:
        region = cover.cut_region[self.cut_index]
        return SurfacePath(region, self.source_sheet,
                           [Crossing("cut", self.cut_index, +1)],
                           turns=self.turns)


def _initial_direction(polyline):
    return geom.sub(polyline[1], polyline[0])


def branch_point_arms(net: SpectralNetwork, b: int):
    """Walls of a branch point in ccw order starting after its cut.

    Returns the walls as a tuple; position j (0-based) in it is the
    winding count of the wall's soliton, which fixes its sign.
    """
    walls = net.walls_of_branch(b)
    cut = net.cuts[b]
    arms = [("cut", None, _initial_direction(cut.polyline))]
    for w in walls:
        arms.append(("wall", w, _initial_direction(w.polyline)))
    by_angle = functools.cmp_to_key(_angle_cmp)
    arms.sort(key=lambda arm: by_angle(arm[2]))
    cut_pos = next(i for i, a in enumerate(arms) if a[0] == "cut")
    rotated = arms[cut_pos + 1:] + arms[:cut_pos]
    return tuple(a[1] for a in rotated)


def _angle_cmp(u, v):
    """Exact three-way comparison of directions by angle in [0, 2*pi)."""
    return geom.angle_less(v, u) - geom.angle_less(u, v)


def walls_pairwise_disjoint(net: SpectralNetwork) -> bool:
    """True iff no two walls meet, except arms at their common branch point.

    Runs ``geom.touching_segments`` on the network's grid points for every
    wall pair; the shared-endpoint tolerance is
    ``geom.polyline_pairwise_disjoint``'s.
    """
    g = net.grid
    walls = net.walls
    for i, a in enumerate(walls):
        for j in range(i + 1, len(walls)):
            b = walls[j]
            shared = a.start_branch is not None and a.start_branch == b.start_branch
            if not geom.polyline_pairwise_disjoint(
                    g.walls[i], g.walls[j],
                    geom.touching_segments(g.walls[i], g.walls[j]),
                    skip_shared_endpoints=shared):
                return False
    return True


def enumerate_solitons(net: SpectralNetwork, wall: Wall):
    """Soliton classes of a wall in the pairwise-disjoint regime.

    A wall emanating from a simple branch point carries exactly one
    soliton class: backward along the wall, through the ramification point
    (one positive crossing of the branch point's cut), and forward again.
    Its winding count is the wall's ccw position after the cut among the
    branch point's arms.
    """
    if wall.start_branch is None:
        raise NotSupported("joint-fed walls carry no computable solitons here")
    if not net.walls_disjoint:
        raise NotSupported("soliton enumeration requires pairwise-disjoint walls")
    arms = net.arms[wall.start_branch]
    try:
        j = next(i for i, w in enumerate(arms) if w.id == wall.id)
    except StopIteration:
        raise NotSupported(f"wall {wall.id} is not an arm of its branch point")
    a, b = wall.label
    return [Soliton(wall.id, a, b, wall.start_branch, wall.start_branch, j)]


# -- validation ---------------------------------------------------------------

def slope_pairing(tms, lift, cone, edge, label):
    """<m(b) - m(a), v_edge> for a wall label (a, b) ending over ``cone``.

    m(s) is the slope of the lift sheet s carries over the cone in the
    sheet/lift matching ``lift``; a right label pairs positively.
    """
    a, b = label
    m_a = tms.slope(lift[(cone, a)])
    m_b = tms.slope(lift[(cone, b)])
    return geom.dot(geom.sub(m_b, m_a), tms.fan.ray(edge))


def validate_network(net: SpectralNetwork, tms, cover) -> ValidationReport:
    """Check the six defining conditions of a subordinate network.

    Contact tests run on the network's grid points (``net.grid``) through
    ``geom.touching_segments``, and each condition applies its own rule to
    the touching segment pairs: a wall may touch a cut only at a shared
    endpoint (1), cross a spoke only properly (1), and contain no branch
    point but its own start (5), which lies on the first segment of that
    branch point's cut.  Witnesses are the original points.
    """
    report = ValidationReport()
    poly = net.polytope
    g = net.grid
    bad_labels = set()

    for wi, w in enumerate(net.walls):
        pts = g.walls[wi]
        # (1) interior in the open polygon, away from cuts, transverse to spokes
        for p, q in zip(w.polyline[1:-1], pts[1:-1]):
            if not g.interior(q):
                report.add("1", f"wall {w.id} has a non-interior vertex", p)
        if not g.interior(pts[0]) and w.start_branch is not None:
            report.add("1", f"wall {w.id} starts outside the open polygon", w.start)
        through_branch_point = False
        for k, cut in enumerate(g.cuts):
            touching = list(geom.touching_segments(pts, cut))
            if not geom.polyline_pairwise_disjoint(
                    pts, cut, touching,
                    skip_shared_endpoints=(w.start_branch is not None)):
                report.add("1", f"wall {w.id} meets a branch cut", w.id)
            # (5) a wall segment through branch point k touches the first
            # segment of cut k there
            through_branch_point |= any(
                j == 0 and geom.on_segment(cut[0], pts[i], pts[i + 1])
                and not (i == 0 and w.start_branch == k and cut[0] == pts[0])
                for i, j in touching)
        for si, spoke in enumerate(g.spokes):
            for j, _ in geom.touching_segments(pts, spoke):
                if not geom.proper_crossing(pts[j], pts[j + 1], *spoke):
                    report.add("1",
                               f"wall {w.id} meets the spoke of ray {si} "
                               "non-transversely", si)
        # (2) labels name two distinct sheets
        a, b = w.label
        if a == b or not (0 <= a < cover.r and 0 <= b < cover.r):
            report.add("2", f"wall {w.id} carries a bad label {w.label}")
            bad_labels.add(w.id)
        # (5) at most one branch point on the wall
        if through_branch_point:
            report.add("5", f"wall {w.id} passes through a branch point")
        if w.start_branch is not None:
            if not 0 <= w.start_branch < len(net.branch_points):
                report.add("5", f"wall {w.id} names an unknown branch point "
                                f"{w.start_branch}", w.id)
            elif w.start != tuple(net.branch_points[w.start_branch]):
                report.add("5", f"wall {w.id} does not start at its branch point")

    # (3) interior endpoints must be branch points with the Y local model
    for wi, w in enumerate(net.walls):
        if w.start_branch is None and g.interior(g.walls[wi][0]):
            report.add("3", f"wall {w.id} starts at an undeclared joint", w.start)
    for b in range(len(net.branch_points)):
        arms = net.walls_of_branch(b)
        if len(arms) != 3:
            report.add("3", f"branch point {b} has {len(arms)} walls, not 3", b)
    if not net.walls_disjoint:
        report.add("3", "walls intersect away from branch points "
                        "(joint local models not realized here)")

    # (4) finiteness / local finiteness: a finite wall list with distinct ids
    ids = [w.id for w in net.walls]
    if len(set(ids)) != len(ids):
        report.add("4", "duplicate wall ids")

    # (6) boundary endpoints and the slope condition
    try:
        lift = cover.lift_map(tms)
    except NoSharedLift as exc:  # report, do not raise: validators collect
        report.add("6", f"sheet/lift matching failed: {exc}")
        lift = None
    for w in net.walls:
        he = (_claimed_half_edge(poly, w)
              or half_edge_of_boundary_point(poly, w.end))
        if he is None:
            report.add("6",
                       f"wall {w.id} endpoint is not in the relative interior "
                       "of a boundary half-edge", w.end)
            continue
        e, cone = he
        if (e, cone) != (w.end_edge, w.end_cone):
            report.add("6", f"wall {w.id} endpoint data disagrees with geometry",
                       (e, cone))
            continue
        if lift is not None and w.id not in bad_labels:
            pairing = slope_pairing(tms, lift, cone, e, w.label)
            if pairing < 0:
                report.add("6",
                           f"wall {w.id} label {w.label} violates the slope "
                           f"condition on ray {e} (pairing {pairing})", w.id)
            elif pairing == 0:
                report.add("6",
                           f"wall {w.id} label pairs to zero on ray {e} "
                           "(separatedness should forbid this)", w.id)
    return report
