"""Spectral networks subordinate to a 2-fold multi-section.

Walls are oriented polylines from a branch point to the boundary of the
polygon, on their layout's integer grid (tuples of the rational points
times ``BranchCutLayout.scale``); each carries an ordered
sheet pair (a, b) meaning its solitons travel from sheet a to sheet b.
The package works in the regime where walls are pairwise disjoint (one
Y-graph per branch point), which is what the rank-2 construction
produces.  Every wall starts at its declared branch point: ``schema``
rejects a wall without one.

A network is its walls plus a ``BranchCutLayout``; it reads the disk
model, fan, polygon, cuts, branch points, cut regions and grid from the
layout.

The boundary track is the ccw order of the boundary landings (wall
endpoints, cut endpoints, spoke barycenters) on each edge: a loop just
inside the boundary crosses exactly these curves in this order, and a
path from the vertex chamber of cone i, between edges i and i+1, crosses
the edges after it.  The track is walked ccw only, every crossing
positive; the product along a cw path is the inverse of the ccw one.
Every landing is read on the layout's integer grid (``GridPoints``): its
order along its edge by ``edge_position``, its half-edge by
``half_edge``.  Nothing here locates a point off the grid, and a rational
point is made only for a report witness (``GridPoints.rational``).
"""
from __future__ import annotations

import functools
from operator import itemgetter
from typing import NamedTuple

from . import geom
from .cover import Crossing, SurfacePath
from .errors import NoSharedLift, NotSupported
from .reporting import ValidationReport


class Wall(NamedTuple):
    id: int
    polyline: tuple          # grid points on the layout's grid, start -> end
    label: tuple             # (source sheet, target sheet), solitons a -> b
    start_branch: int        # index of the branch point the wall starts at
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

    The walls are fixed at construction, on the layout's grid, so the
    facts derived from them and the layout (the segment contacts, the
    pairwise-disjointness verdict, the track's crossings on each edge, the
    arm order of every branch point) are computed once, on first use, and then
    read by everything that needs them.
    """

    def __init__(self, walls, layout):
        self._walls = tuple(walls)
        self.layout = layout
        # read through the layout, which owns them
        self.disk = layout.disk
        self.fan = layout.disk.fan
        self.cuts = layout.cuts
        self.branch_points = layout.branch_points

    @property
    def walls(self):
        return self._walls

    @functools.cached_property
    def contacts(self):
        """``geom.contacts`` of the walls, then the cuts and the spokes."""
        fixed = [c.polyline for c in self.cuts] + list(self.layout.grid.spokes)
        return geom.contacts([w.polyline for w in self.walls], fixed)

    @functools.cached_property
    def walls_disjoint(self):
        return walls_pairwise_disjoint(self)

    @functools.cached_property
    def events(self):
        """Boundary-track crossings of each edge (see ``track_events``)."""
        return track_events(self)

    @functools.cached_property
    def arms(self):
        """Arms of each branch point in ccw order (``branch_point_arms``)."""
        return tuple(branch_point_arms(self, b)
                     for b in range(len(self.branch_points)))


def track_events(net: SpectralNetwork):
    """The crossings of the near-boundary ccw track, edge by edge.

    Entry e of the returned tuple is the tuple of ``Crossing``s on edge e
    in ccw order, each placed by its ``GridPoints.edge_position`` there,
    read on the layout's grid: a wall's at its end on its own edge,
    ``w.end_edge``, a cut's and a spoke's at the barycenter
    (``GridPoints.mids``).  At a barycenter the order is: cut hugging from
    the earlier region, then the spoke, then a cut hugging from the later
    region.
    """
    n = net.fan.n
    g = net.layout.grid
    edges = [[] for _ in range(n)]
    for w in net.walls:
        t = g.edge_position(w.end, w.end_edge)
        if t is None:
            raise NotSupported(
                f"wall {w.id} does not end on edge {w.end_edge}")
        edges[w.end_edge % n].append((t, 1, Crossing("wall", w.id)))
    for k, (cut, region) in enumerate(zip(net.cuts, net.layout.cut_region)):
        e = cut.edge
        if region == (e - 1) % n:
            tier = 0
        elif region == e % n:
            tier = 2
        else:
            raise NotSupported(
                f"cut {k} lands on edge {e} from non-adjacent region {region}")
        edges[e % n].append((g.mids[e % n], tier, Crossing("cut", k)))
    for e in range(n):
        edges[e].append((g.mids[e], 1, Crossing("spoke", e)))
    # stable: at one (position, tier), walls in wall order, then cuts
    return tuple(tuple([c for _, _, c in sorted(edge, key=itemgetter(0, 1))])
                 for edge in edges)


def _across(net, cone, count):
    """Sheet 0 at the vertex chamber of ``cone``, between edges cone and
    cone+1, then the crossings of the next ``count`` edges."""
    n = net.fan.n
    crossings = [c for e in range(cone + 1, cone + 1 + count)
                 for c in net.events[e % n]]
    return SurfacePath(cone % n, 0, crossings)


def track_path(net: SpectralNetwork, from_cone, to_cone) -> SurfacePath:
    """Boundary-track path between two vertex chambers, as a SurfacePath.

    The path starts on sheet 0 at the basepoint near the vertex dual to
    ``from_cone`` and crosses, positively, everything the ccw track
    crosses on its way to the vertex dual to ``to_cone``: the crossings
    of edges from_cone+1, ..., to_cone, read cyclically.
    """
    return _across(net, from_cone, (to_cone - from_cone) % net.fan.n)


def boundary_loop(net: SpectralNetwork, base_cone) -> SurfacePath:
    """Full ccw boundary-parallel loop based at a vertex chamber."""
    return _across(net, base_cone, net.fan.n)


# -- solitons ----------------------------------------------------------------

class Soliton(NamedTuple):
    wall_id: int
    source_sheet: int
    target_sheet: int
    cut_index: int
    turns: int               # full tangent turns of the closed-up loop


def branch_point_arms(net: SpectralNetwork, b: int):
    """Walls of a branch point in ccw order starting after its cut.

    Returns the walls as a tuple; position j (0-based) in it is the
    winding count of the wall's soliton, which fixes its sign.  The
    directions are read on the layout's grid, where each is a positive
    multiple of the rational one, so the order is the same.
    """
    arms = [(None, net.cuts[b].polyline)]
    arms += [(w, w.polyline) for w in net.walls if w.start_branch == b]
    by_angle = functools.cmp_to_key(_angle_cmp)
    arms.sort(key=lambda arm: by_angle(geom.sub(arm[1][1], arm[1][0])))
    cut_pos = next(i for i, (w, _) in enumerate(arms) if w is None)
    return tuple(w for w, _ in arms[cut_pos + 1:] + arms[:cut_pos])


def _angle_cmp(u, v):
    """Exact three-way comparison of directions by angle in [0, 2*pi)."""
    return geom.angle_less(v, u) - geom.angle_less(u, v)


def walls_pairwise_disjoint(net: SpectralNetwork) -> bool:
    """True iff no two walls meet, except arms at their common start.

    Reads the wall pairs of the network's sweep (``net.contacts``) with
    their kinds: two walls that start at the same point, whatever branch
    point they name (condition 5 judges the names), may touch only at
    their common ends (``geom.polyline_pairwise_disjoint``), and other
    walls not at all.
    """
    walls = net.walls
    for (i, j), touching in net.contacts.items():
        if j < len(walls):
            a, b = walls[i].polyline, walls[j].polyline
            shared = geom.shared_ends(a, b) if a[0] == b[0] else ()
            if not geom.polyline_pairwise_disjoint(touching, shared):
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
    if not net.walls_disjoint:
        raise NotSupported("soliton enumeration requires pairwise-disjoint walls")
    arms = net.arms[wall.start_branch]
    try:
        j = next(i for i, w in enumerate(arms) if w.id == wall.id)
    except StopIteration:
        raise NotSupported(f"wall {wall.id} is not an arm of its branch point")
    a, b = wall.label
    return [Soliton(wall.id, a, b, wall.start_branch, j)]


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

    Contacts are read from the network's one sweep (``net.contacts``), on
    the layout's grid, and each condition reads the kind of each touching
    segment pair, testing no pair again: a wall may touch a cut only in
    endpoint touches at their common ends (1) and a spoke only in proper
    crossings (1); it holds branch point k, not its start (5), when the
    first segment of cut k meets it there, in an endpoint touch or in an
    other contact, the one case that asks ``geom.on_segment``.  The
    contacts are grouped by wall once, so each wall walks only the cuts
    and spokes it touches, cuts in index order and then spokes.
    Condition 6 finds each wall's landing half-edge from its grid end
    with ``GridPoints.half_edge`` and compares it with the wall's claim
    (``end_edge``, ``end_cone``).  Witnesses are the rational points
    (``GridPoints.rational``).
    """
    report = ValidationReport()
    g = net.layout.grid
    bad_labels = set()
    first_cut, first_spoke = len(net.walls), len(net.walls) + len(net.cuts)
    # each wall's (other curve, touching pairs) with a cut or a spoke, in
    # the order of the other curve: the sweep's keys are sorted
    met = [[] for _ in net.walls]
    for (wi, other), touching in net.contacts.items():
        if other >= first_cut:
            met[wi].append((other, touching))

    for wi, w in enumerate(net.walls):
        pts = w.polyline
        # (1) interior in the open polygon, away from cuts, transverse to spokes
        for p in pts[1:-1]:
            if not g.interior(p):
                report.add("1", f"wall {w.id} has a non-interior vertex",
                           g.rational(p))
        if not g.interior(w.start):
            report.add("1", f"wall {w.id} starts outside the open polygon",
                       g.rational(w.start))
        through_branch_point = False
        for other, touching in met[wi]:
            if other < first_spoke:
                cut = net.cuts[other - first_cut].polyline
                if not geom.polyline_pairwise_disjoint(
                        touching, geom.shared_ends(pts, cut)):
                    report.add("1", f"wall {w.id} meets a branch cut", w.id)
                # (5) cut k's first segment meets the wall at branch point k
                through_branch_point |= any(
                    j == 0 and not (i == 0 and cut[0] == pts[0])
                    and (geom.on_segment(cut[0], pts[i], pts[i + 1])
                         if kind == geom.OTHER else kind == cut[0])
                    for i, j, kind in touching)
            else:
                si = other - first_spoke
                for _, _, kind in touching:
                    if kind != geom.CROSSING:
                        report.add("1", f"wall {w.id} meets the spoke of "
                                   f"ray {si} non-transversely", si)
        # (2) labels name two distinct sheets
        a, b = w.label
        if a == b or not (0 <= a < cover.r and 0 <= b < cover.r):
            report.add("2", f"wall {w.id} carries a bad label {w.label}")
            bad_labels.add(w.id)
        # (5) at most one branch point on the wall
        if through_branch_point:
            report.add("5", f"wall {w.id} passes through a branch point")
        if not 0 <= w.start_branch < len(net.branch_points):
            report.add("5", f"wall {w.id} names an unknown branch point "
                            f"{w.start_branch}", w.id)
        elif w.start != tuple(net.branch_points[w.start_branch]):
            report.add("5", f"wall {w.id} does not start at its branch point")

    # (3) every branch point carries the Y local model
    for b, arms in enumerate(net.arms):
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
        he = g.half_edge(w.end)
        if he is None:
            report.add("6",
                       f"wall {w.id} endpoint is not in the relative interior "
                       "of a boundary half-edge", g.rational(w.end))
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
