"""Exact planar geometry helpers on the integer grid.

Points are pairs of ``int``: a cut layout's points, and its network's,
times the layout's one ``scale`` (``cover.BranchCutLayout``); lattice
vectors are pairs of ``int`` too.  Everything here is a pure predicate or
constructor on those tuples, so the package never touches floating point.

The map p -> scale * p multiplies every signed area by scale^2 > 0 and is
injective, so every orientation sign and every point equality is that of
the rational points: the segment-contact predicates (``orient``,
``on_segment``, ``contact_kind``) and the arm order of a branch point
(``network.branch_point_arms``, by ``angle_less``) give the rational
answers exactly.  A rational point is made only for a message or a
witness (``cover.GridPoints.rational``); an emitted coordinate is written
from its grid int and the scale (``schema._points_out``).

The contact predicates are straight-line kernels (Shewchuk 1997): each
unpacks its points into ints and computes every cross product it needs
inline, once, calling no helper but the box test ``_in_box``; the answer
is a ``bool``, an int sign or a contact kind, never a float.

Point location is not done here: it runs on the same grid, in
``cover.GridPoints`` only, the one reader of the polygon's edges.  Its
``interior`` and ``region`` test the signs of the cross products with
those edges, stored once, and ``region`` reads ``orient`` against the
spokes; a boundary point's position along its edge and its half-edge
come from ``on_segment``.

``contacts``, the one contact query, is the only code that chooses which
segment pairs to test: one sweep over the segments of polylines (tuples of
grid points), each boxed once into a flat tuple, bounds each segment's
scan by one bisection and tests exactly only the pairs whose boxes meet;
its keys come back sorted.  Its kernel ``contact_kind`` is the one place
that decides how two segments meet, as one of four kinds: not at all, a
``CROSSING`` interior to both, an endpoint touch at their one common
point, or ``OTHER``.  Every rule reads the kind listed with each touching
pair; the shared-start rule, ``polyline_pairwise_disjoint``, tolerates
endpoint touches at the points its caller passes, the common ends of two
arms that share a start or of a wall and a cut.
"""
from __future__ import annotations

from bisect import bisect_right
from math import gcd


def is_primitive(v) -> bool:
    x, y = v
    return (x, y) != (0, 0) and gcd(abs(x), abs(y)) == 1


def dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def angular_half(v) -> int:
    """0 for the upper half-plane (incl. positive x-axis), 1 for the lower."""
    x, y = v
    if y > 0 or (y == 0 and x > 0):
        return 0
    return 1


def angle_less(a, b) -> bool:
    """Strict comparison of directions by angle in [0, 2*pi)."""
    ha, hb = angular_half(a), angular_half(b)
    if ha != hb:
        return ha < hb
    return cross(a, b) > 0


def orient(a, b, c):
    """Sign of the signed area of triangle abc: +1 ccw, -1 cw, 0 collinear."""
    ax, ay = a
    s = (b[0] - ax) * (c[1] - ay) - (b[1] - ay) * (c[0] - ax)
    return (s > 0) - (s < 0)


def _in_box(p, a, b) -> bool:
    """True iff p lies in the closed bounding box of [a, b]."""
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def on_segment(p, a, b) -> bool:
    """True iff p lies on the closed segment [a, b]."""
    ax, ay = a
    return ((b[0] - ax) * (p[1] - ay) == (b[1] - ay) * (p[0] - ax)
            and _in_box(p, a, b))


CROSSING = "crossing"
OTHER = "other"


def contact_kind(p1, p2, q1, q2):
    """How closed segments [p1,p2] and [q1,q2] meet, symmetrically.

    None when they do not meet, ``CROSSING`` at one point interior to
    both, their common point when they meet only there, at an end of each
    (an endpoint touch), and ``OTHER`` otherwise: an end on the other's
    interior or a collinear overlap.  Four orientations decide it, each
    computed once: ends strictly on one side of the other's line cannot
    touch it, and with no end on the other's line the segments cross
    properly; else they meet exactly at the ends on the other segment.
    """
    (x1, y1), (x2, y2), (x3, y3), (x4, y4) = p1, p2, q1, q2
    ux, uy = x4 - x3, y4 - y3
    s1 = ux * (y1 - y3) - uy * (x1 - x3)
    s2 = ux * (y2 - y3) - uy * (x2 - x3)
    if s1 > 0 < s2 or s1 < 0 > s2:
        return None
    vx, vy = x2 - x1, y2 - y1
    s3 = vx * (y3 - y1) - vy * (x3 - x1)
    s4 = vx * (y4 - y1) - vy * (x4 - x1)
    if s3 > 0 < s4 or s3 < 0 > s4:
        return None
    if s1 and s2 and s3 and s4:
        return CROSSING
    on = [p for p, s, a, b in ((p1, s1, q1, q2), (p2, s2, q1, q2),
                               (q1, s3, p1, p2), (q2, s4, p1, p2))
          if not s and _in_box(p, a, b)]
    if not on:
        return None
    t = on[0]
    return t if {*on} == {t} and t in (p1, p2) and t in (q1, q2) else OTHER


def contacts(curves, fixed=()):
    """Touching segment pairs of every two polylines, found in one sweep.

    Polylines are numbered ``curves`` first, then ``fixed``.  Returns
    {(a, b): [(i, j, kind), ...]}, a < b, with the keys in sorted order,
    listing in (i, j) order each touching pair of segments a[i]a[i+1],
    b[j]b[j+1] with its ``contact_kind``: ``CROSSING``, the common point of
    an endpoint touch, or ``OTHER``; shared starts are judged by reading
    it (``polyline_pairwise_disjoint``).  Each segment is boxed once,
    inline, into one flat tuple (left, low, right, high, polyline, index,
    p, q), and the tuples sorted once by their boxes (Shamos-Hoey 1976):
    a segment is tested against the later ones whose boxes start before
    its box ends, a slice bounded by one bisection of the sorted left
    sides, and of those only the ones whose boxes meet its own in y.
    Pairs within one polyline, or within ``fixed``, are never tested.
    """
    m = len(curves)
    segments = []
    for a, poly in enumerate((*curves, *fixed)):
        for i in range(len(poly) - 1):
            p, q = poly[i], poly[i + 1]
            (px, py), (qx, qy) = p, q
            segments.append((px if px < qx else qx, py if py < qy else qy,
                             qx if px < qx else px, qy if py < qy else py,
                             a, i, p, q))
    segments.sort()
    lefts = [s[0] for s in segments]
    found = {}
    for k, (_, bottom, right, top, a, i, p1, p2) in enumerate(segments):
        for _, low, _, high, b, j, q1, q2 in \
                segments[k + 1:bisect_right(lefts, right, k + 1)]:
            if (low <= top and bottom <= high and a != b and (a < m or b < m)
                    and (kind := contact_kind(p1, p2, q1, q2)) is not None):
                key, pair = (((a, b), (i, j, kind)) if a < b
                             else ((b, a), (j, i, kind)))
                found.setdefault(key, []).append(pair)
    return {key: sorted(found[key]) for key in sorted(found)}


def shared_ends(a, b):
    """The common ends of polylines a and b."""
    return {a[0], a[-1]} & {b[0], b[-1]}


def polyline_pairwise_disjoint(touching, tolerated) -> bool:
    """True iff every touching pair (i, j, kind) of two polylines, as
    ``contacts`` lists them, is an endpoint touch at a point of
    ``tolerated``: the ``shared_ends`` of arms that share a start, or of
    a wall and a cut."""
    return all(kind in tolerated for _, _, kind in touching)
