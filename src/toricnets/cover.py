"""Sheeted covers of the polygon with branch points and cuts.

The cover of the disk-model polygon is presented in a cut trivialization:
away from the branch cuts the r sheets are globally labelled 0..r-1, and
crossing a cut permutes labels by that cut's transposition.  A cover has
one or two sheets (``build_cover`` raises NotTwoFold on any other count),
so every cut swaps sheets 0 and 1: its transposition is (0, 1) or (1, 0),
and crossing it sends sheet s to 1 - s.  A cut is a polyline from its
branch point (inside a single region) to the barycenter of one boundary
edge; its relative interior avoids all spokes, so sheet labels are
constant on every region minus its cut.

A ``BranchCutLayout`` owns the facts of its cuts: the disk model, the
cuts, the branch points (each cut's first point), the one integer scale
every point of the cuts and of a network on the layout is given on, the
disk model on that grid with the point locators (``GridPoints``), the
region of every cut, located once on that grid, and its validated cover
for each sheet count, built once; covers, networks and validators read
them.  A cover in turn keeps its sheet/lift matching with each
multi-section, computed once.

Rank-1 local systems are stored in the gauge where all transport weights
sit on the cuts: crossing cut k positively from sheet 0 multiplies by t_k,
from sheet 1 by 1/t_k.  Every loop around a ramification point then has
holonomy 1 automatically, so the data descends to an honest local system
on the covering surface.  Moduli: (t_1, ..., t_B) modulo a common rescale,
which matches b_1 = B - 1 for a connected 2-fold cover.
``make_local_system`` is the one maker of a local system in the package:
it checks the holonomies once, against b_1 of the cover, and the
``RankOneLocalSystem`` constructor stores the weights it is handed.

A weight is a nonzero rational, or a symbol: ``make_local_system(cover,
TPoly.symbols(b1))`` gives the cut weights 1, t_1, ..., t_b1 in the
Laurent ring Q[t_1^±, ..., t_b1^±] (``laurent.TPoly``).  Transports are
then monomials in the t_k, and every factor and path-ordered product built
from that system has coefficients in the same ring.  Substituting nonzero
rationals for the t_k is a ring homomorphism, so an identity proved for
the symbolic system holds for every rational system as well.

Every crossing of a ``SurfacePath`` is positive, right to left of the
oriented curve crossed: the pipeline walks the boundary track ccw and a
branch point's loop ccw, and a cw product is the inverse of a ccw one.
"""
from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple

from . import geom
from .errors import (CutEndpointNotBarycenter, CutHitsRay, InvalidPath,
                     InvariantViolated, NoSharedLift, NotTwoFold,
                     OverlappingCuts, UnknownCone, WrongCount, ZeroHolonomy)
from .laurent import coefficient


class Cut(NamedTuple):
    """Branch cut: polyline from a branch point to an edge barycenter."""
    polyline: tuple           # grid points on the layout's grid,
                              # [branch point, ..., barycenter]
    transposition: tuple      # the swapped sheets: (0, 1) or (1, 0)
    edge: int                 # index of the landed edge (= its dual ray)

    @property
    def branch_point(self):
        return self.polyline[0]


class _LayoutFields(NamedTuple):
    disk: object              # the DiskModel the cuts are drawn on
    cuts: tuple               # Cut, one per branch point
    scale: int                # the grid: every point times it is an int pair


class BranchCutLayout(_LayoutFields):
    """Cuts on a disk model, one per branch point, in branch-point order.

    Every point of the cuts, and of the walls of a network on the layout,
    is an int pair: the rational point times ``scale``.  Its derived facts
    are computed once, on first use: the branch points, the disk model on
    the same grid (``grid``), which every cover built on the layout reads,
    and the region of each cut, located on that grid.  The fields are a
    read-only ``NamedTuple``; this subclass's ``__dict__`` holds the facts.
    """

    @functools.cached_property
    def branch_points(self):
        return tuple(c.branch_point for c in self.cuts)

    @functools.cached_property
    def grid(self):
        """The disk model on the layout's grid (``GridPoints``); the
        builder sets it to the grid it placed the cuts on."""
        return GridPoints(self.disk, self.scale)

    @functools.cached_property
    def cut_region(self):
        """Region of each cut's branch point, located once on the grid."""
        regions = tuple(map(self.grid.region, self.branch_points))
        if None in regions:
            p = self.grid.rational(self.branch_points[regions.index(None)])
            raise UnknownCone(f"point {p} is not interior to a unique region")
        return regions

    @functools.cached_property
    def _covers(self):
        return {}

    def cover(self, r):
        """The r-sheeted cover over this layout (``build_cover``).

        It is assembled and validated once per r; later calls return it.
        A cover keeps no reference to its layout, so the two form no
        reference cycle and are freed as soon as the layout is.
        """
        if r not in self._covers:
            self._covers[r] = build_cover(self.disk, self, r)
        return self._covers[r]


class SheetedSurface:
    """The r-sheeted branched cover in its cut trivialization."""

    def __init__(self, layout: BranchCutLayout, r: int):
        self.disk = layout.disk
        self.r = int(r)
        self.cuts = layout.cuts
        self.cut_region = layout.cut_region
        self.landed = {c.edge for c in self.cuts}
        self._lifts = {}

    def lift_map(self, tms):
        """``sheet_lift_map(tms, self)``, computed once per multi-section."""
        if tms not in self._lifts:
            self._lifts[tms] = sheet_lift_map(tms, self)
        return self._lifts[tms]

    # -- topology ---------------------------------------------------------

    @property
    def sheet_orbits(self):
        """Connected components of the cover, as sheet-label orbits (a
        tuple of tuples): every cut swaps the two sheets, so one orbit
        when there is a cut, and r singletons when there is none."""
        if self.cuts:
            return (tuple(range(self.r)),)
        return tuple((s,) for s in range(self.r))


def betti_one(cover: SheetedSurface) -> int:
    """First Betti number of the covering surface (with boundary)."""
    # b1 = #components - chi, where chi = r * chi(disk) - sum over branch
    # points of (r - #orbits(tau)); every transposition has deficiency 1.
    return len(cover.sheet_orbits) - cover.r + len(cover.cuts)


class GridPoints:
    """The disk model on one integer grid, and the point locators on it.

    ``vertices`` (ccw) and ``spokes`` (center, barycenter) are the disk
    model's int points times ``scale``, which must be a multiple of
    ``disk.scale`` (``InvariantViolated`` otherwise), and ``mids`` each
    barycenter's ``edge_position``.  Point location runs here only:
    ``interior``, ``region``, ``edge_position`` and ``half_edge``.
    Both ``interior`` and ``region`` read each ccw edge as (ax, ay, dx,
    dy), stored once, and decide by the signs of the cross products with
    the edges: a point is outside the closed polygon iff one of them is
    negative, and interior iff all of them are positive.  On the strictly
    convex polygons of the disk models that second test needs no
    collinear case: a point on an edge's line beyond the edge lies
    strictly outside a neighbouring edge.
    ``rational`` is the rational point a grid point stands for, made only
    to be written into a message or a witness.
    """

    def __init__(self, disk, scale):
        k, rest = divmod(scale, disk.scale)
        if rest:
            raise InvariantViolated(f"scale {scale} is not a multiple of the "
                                    f"disk model's scale {disk.scale}")
        self.scale = scale
        self.vertices = tuple((x * scale, y * scale)
                              for x, y in disk.polytope.vertices)
        # each ccw edge [a, b] as (ax, ay, bx - ax, by - ay)
        self._edges = tuple((ax, ay, bx - ax, by - ay) for (ax, ay), (bx, by)
                            in zip(self.vertices[-1:] + self.vertices,
                                   self.vertices))
        center = (disk.center[0] * k, disk.center[1] * k)
        self.spokes = tuple((center, (x * k, y * k))
                            for x, y in disk.barycenters)
        self.mids = tuple(self.edge_position(s[-1], e)
                          for e, s in enumerate(self.spokes))

    def rational(self, p):
        """The rational point that grid point p stands for."""
        return tuple(Fraction(c, self.scale) for c in p)

    def interior(self, p):
        """True iff grid point p is interior to the polygon: strictly left
        of every ccw edge."""
        x, y = p
        for ax, ay, dx, dy in self._edges:
            if dx * (y - ay) <= dy * (x - ax):
                return False
        return True

    def region(self, p):
        """Region of grid point p of the closed polygon, or None.

        None when p is outside the polygon or on a spoke (the center
        included).  Every region's angle at the center is less than pi, so
        p lies in region i exactly when it is strictly left of spoke i and
        strictly right of spoke i+1.
        """
        x, y = p
        if any(dx * (y - ay) < dy * (x - ax)
               for ax, ay, dx, dy in self._edges):
            return None
        s = self.spokes
        return next((i for i in range(len(s))
                     if geom.orient(*s[i], p) > 0
                     and geom.orient(*s[(i + 1) % len(s)], p) < 0), None)

    def edge_position(self, p, e):
        """<p - a, b - a> for grid point p on the closed edge e = [a, b].

        The edge is [vertex e-1, vertex e], dual to ray e (its index is
        taken mod n); None when p is off it.  Along the edge the position
        grows from 0 at a to |b - a|^2 at b, so it orders the edge's points.
        """
        n = len(self.vertices)
        a, b = self.vertices[(e - 1) % n], self.vertices[e % n]
        if not geom.on_segment(p, a, b):
            return None
        (px, py), (ax, ay), (bx, by) = p, a, b
        return (px - ax) * (bx - ax) + (py - ay) * (by - ay)

    def half_edge(self, p):
        """(edge, cone) of the open half-edge holding grid point p, or None.

        The cone is that of the half-edge's vertex endpoint: e - 1 on the
        half from vertex e - 1 to the barycenter, e on the other.  None at
        a vertex, at a barycenter or off the boundary.  A point inside a
        half-edge lies on exactly one edge, so the first edge holding p
        decides.
        """
        n = len(self.vertices)
        for e in range(n):
            t = self.edge_position(p, e)
            if t is not None:
                mid = self.mids[e]
                if t in (0, mid, 2 * mid):
                    return None
                return e, (e - 1) % n if t < mid else e
        return None


def _validate_cut_geometry(cut: Cut, g: GridPoints, touching):
    """Check one cut of a layout on its grid ``g``; the cut touches spoke
    si at the segment pairs ``touching[si]``."""
    pts = cut.polyline
    if len(pts) < 2:
        raise CutEndpointNotBarycenter("cut polyline needs two points")
    end, target = pts[-1], g.spokes[cut.edge % len(g.spokes)][-1]
    if end != target:
        raise CutEndpointNotBarycenter(
            f"cut ends at {g.rational(end)}, not at barycenter "
            f"{g.rational(target)} of edge {cut.edge}")
    for p in pts[:-1]:
        if not g.interior(p):
            raise CutHitsRay(
                f"cut vertex {g.rational(p)} is not interior to the polygon")
    # Relative interior must avoid every spoke: the last segment may meet
    # its edge's spoke in an endpoint touch at the barycenter only
    for si, spoke in enumerate(g.spokes):
        for j, _, kind in touching[si]:
            if j != len(pts) - 2 or si != cut.edge or kind != spoke[-1]:
                raise CutHitsRay(f"cut segment {g.rational(pts[j])}-"
                                 f"{g.rational(pts[j + 1])} meets the "
                                 f"spoke of ray {si}")


def build_cover(disk, layout: BranchCutLayout, r: int) -> SheetedSurface:
    """Assemble and validate the branched cover over the layout's disk model.

    One sweep (``geom.contacts``) finds the contacts of the cuts with each
    other and with the spokes, and the checks read their kinds: a cut may
    meet a spoke only in an endpoint touch at its own barycenter, and two
    cuts may not touch at all (two landing on one barycenter touch there),
    so the first touching pair is at fault.
    """
    if r not in (1, 2):
        raise NotTwoFold(f"a cover has one or two sheets, not {r}")
    if layout.disk is not disk:
        raise InvariantViolated("the layout is drawn on another disk model")
    g, cuts = layout.grid, layout.cuts
    touching = geom.contacts([c.polyline for c in cuts], g.spokes)
    for k, c in enumerate(cuts):
        # the one check of a transposition: it must swap sheets 0 and 1
        if r == 1 or sorted(c.transposition) != [0, 1]:
            raise OverlappingCuts(
                f"cut transposition {c.transposition} is not a valid swap")
        _validate_cut_geometry(c, g, [touching.get((k, len(cuts) + si), ())
                                      for si in range(len(g.spokes))])
    overlap = min((pair for pair in touching if pair[1] < len(cuts)),
                  default=None)
    if overlap is not None:
        a, b = (cuts[k] for k in overlap)
        if a.edge == b.edge:
            raise OverlappingCuts(
                f"two cuts land on the barycenter of edge {a.edge}")
        raise OverlappingCuts("cut polylines intersect")
    return SheetedSurface(layout, r)


# -- paths -------------------------------------------------------------------

class Crossing(NamedTuple):
    """A positive crossing, right to left of the oriented curve."""
    kind: str        # 'spoke' | 'cut' | 'wall'
    index: int       # spoke/ray index, cut index, or wall index


class SurfacePath(NamedTuple):
    """Combinatorial path on the cover.

    The path starts at a basepoint on a given sheet inside a given region
    and performs the listed crossings in order.  Sheet changes happen only
    at cut crossings (by the cut's transposition); region changes only at
    spoke crossings, ccw from region i-1 to region i across spoke i.
    """
    start_region: int
    start_sheet: int
    crossings: tuple = ()     # Crossing, in order (a list or a tuple)

    def states(self, cover):
        """The (region, sheet) before the first crossing and after each.

        InvalidPath is raised for a spoke crossed from a region other
        than the one before it, a cut crossed outside its own region, an
        unknown cut or an unknown kind of crossing.
        """
        n = cover.disk.fan.n
        states = [(self.start_region % n, self.start_sheet)]
        region, sheet = self.start_region % n, self.start_sheet
        for c in self.crossings:
            if c.kind == "spoke":
                if region != (c.index - 1) % n:
                    raise InvalidPath(
                        f"spoke {c.index} crossed from region {region}")
                region = c.index % n
            elif c.kind == "cut":
                if not (0 <= c.index < len(cover.cuts)):
                    raise InvalidPath(f"unknown cut {c.index}")
                if region != cover.cut_region[c.index]:
                    raise InvalidPath(
                        f"cut {c.index} lives in region "
                        f"{cover.cut_region[c.index]}, path is in {region}")
                sheet = 1 - sheet
            elif c.kind == "wall":
                pass
            else:
                raise InvalidPath(f"unknown crossing kind {c.kind!r}")
            states.append((region, sheet))
        return states


class RankOneLocalSystem:
    """Rank-1 local system in the cuts-carry-the-weights gauge.

    The constructor only stores its weights, one nonzero coefficient per
    cut; ``make_local_system`` is the one checked maker, which coerces and
    checks the holonomies once.  The inverse 1/t_k of a weight is taken on
    first use, once per cut.
    """

    def __init__(self, cover: SheetedSurface, cut_weights):
        self.cover = cover
        self.cut_weights = cut_weights
        self._inverses = {}

    def cut_crossing_weight(self, k, from_sheet):
        """Scalar picked up crossing cut k from a given sheet.

        A positive crossing from sheet 0 carries t_k, one from sheet 1
        carries 1/t_k.  It is the only weight a soliton picks up: its
        transport is this weight at its one crossing, of its branch
        point's cut, from its source sheet.
        """
        if from_sheet == 0:
            return self.cut_weights[k]
        inverse = self._inverses.get(k)
        if inverse is None:
            inverse = self._inverses[k] = 1 / self.cut_weights[k]
        return inverse


_ONE = Fraction(1)


def make_local_system(cover: SheetedSurface, holonomies) -> RankOneLocalSystem:
    """Local system with prescribed holonomies on the generator loops.

    The k-th generator loop crosses cut k+1 positively and then cut 0
    positively (see ``generator_loops`` in ``tests/support.py``); in the cut
    gauge with t_0 = 1 its holonomy is exactly t_{k+1}, so the weights are
    [1, h_1, ..., h_{b1}].  The holonomies are rationals, or the
    symbols ``TPoly.symbols(b1)`` for the system that stands for all of
    them at once.  This is the one checked maker of a local system: each
    holonomy is coerced once and the list checked once
    (``check_holonomies``) before the system is constructed.  This gauge
    covers the builder's covers: a connected 2-fold cover, with
    b1 = #cuts - 1, and the cut-free rank-1 cover, with no weights.
    """
    holonomies = [coefficient(h) for h in holonomies]
    check_holonomies(betti_one(cover), holonomies)
    return RankOneLocalSystem(cover, [_ONE, *holonomies] if cover.cuts else [])


def check_holonomies(b1, holonomies):
    """Raise unless there are ``b1`` holonomies, all nonzero."""
    if len(holonomies) != b1:
        raise WrongCount(f"need {b1} holonomies, got {len(holonomies)}")
    if any(h == 0 for h in holonomies):
        raise ZeroHolonomy("holonomies must be nonzero")


def sheet_lift_map(tms, cover: SheetedSurface):
    """Match cover sheets with multi-section lifts, per region.

    Returns lift[(region, sheet)] = lifted-cone id, determined by sending
    sheet s over region 0 to the s-th listed lift and propagating ccw: the
    lifted-ray matching over ray i pairs the deep tail of (region i-1,
    sheet s) with the deep tail of (region i, tau_i(s)), where tau_i is the
    swap of the cut landing at the barycenter of edge i (identity when
    there is none).  Raises NoSharedLift when the cut transpositions
    do not realize the multi-section's monodromy.
    """
    n = cover.disk.fan.n
    if tms.degree != cover.r:
        raise NoSharedLift(
            f"cover has {cover.r} sheets, multi-section degree {tms.degree}")

    def tau(i, sheet):
        return 1 - sheet if i % n in cover.landed else sheet

    lift = {}
    base_lifts = tms.lifts_of_cone(0)
    if len(base_lifts) < cover.r:
        raise NoSharedLift(
            f"cone 0 has {len(base_lifts)} lifts for {cover.r} sheets")
    for s in range(cover.r):
        lift[(0, s)] = base_lifts[s].id
    for i in range(1, n):
        match = tms.matching(i)
        for s in range(cover.r):
            prev = lift[(i - 1, s)]
            if prev not in match:
                raise NoSharedLift(f"no lifted ray over ray {i} from {prev}")
            lift[(i, tau(i, s))] = match[prev]
    # closure across ray 0
    match = tms.matching(0)
    for s in range(cover.r):
        prev = lift[(n - 1, s)]
        if match.get(prev) != lift[(0, tau(0, s))]:
            raise NoSharedLift(
                "cut transpositions do not realize the multi-section "
                f"monodromy (mismatch at ray 0, sheet {s})")
    return lift
