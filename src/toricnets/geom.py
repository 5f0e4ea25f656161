"""Exact planar geometry helpers.

Points are pairs of ``Fraction``; lattice vectors are pairs of ``int``.
Everything here is a pure predicate or constructor on those tuples, so the
rest of the package never touches floating point.

The segment-contact predicates (``orient``, ``on_segment``,
``segments_cross``, ``polyline_pairwise_disjoint``,
``point_in_convex_polygon``) run on points put on one integer grid by
``Grid``: every coordinate times a positive common denominator D.  That
map multiplies every signed area by D^2 > 0, so every orientation sign is
unchanged, and it is injective, so every point equality is unchanged too;
the predicates give the same answers on plain ``int``s, exactly.  Only
the predicates see the grid: emitted points, report witnesses and error
messages keep the original ``Fraction`` points.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Point = tuple  # (Fraction, Fraction)
IVec = tuple   # (int, int)


def is_primitive(v: IVec) -> bool:
    x, y = v
    return (x, y) != (0, 0) and gcd(abs(x), abs(y)) == 1


def dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def sub(a, b) -> Point:
    return (a[0] - b[0], a[1] - b[1])


def add(a, b) -> Point:
    return (a[0] + b[0], a[1] + b[1])


def lerp(a, b, t) -> Point:
    """Point a + t*(b-a) with exact rational t."""
    t = Fraction(t)
    return (a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t)


def midpoint(a, b) -> Point:
    return lerp(a, b, Fraction(1, 2))


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
    s = cross(sub(b, a), sub(c, a))
    return (s > 0) - (s < 0)


def on_segment(p, a, b) -> bool:
    """True iff p lies on the closed segment [a, b]."""
    if orient(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def box(points):
    """Closed bounding box (xmin, ymin, xmax, ymax) of a point list.

    An empty list has no segment to test, so any box does for it.
    """
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return (min(xs, default=0), min(ys, default=0),
            max(xs, default=0), max(ys, default=0))


def boxes_meet(a, b) -> bool:
    """True iff two closed bounding boxes share a point."""
    return a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3]


def segments_cross(p1, p2, q1, q2) -> bool:
    """True iff closed segments [p1,p2], [q1,q2] share at least one point."""
    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    return ((d1 == 0 and on_segment(p1, q1, q2))
            or (d2 == 0 and on_segment(p2, q1, q2))
            or (d3 == 0 and on_segment(q1, p1, p2))
            or (d4 == 0 and on_segment(q2, p1, p2)))


def polyline_pairwise_disjoint(poly_a, poly_b, skip_shared_endpoints=True) -> bool:
    """True iff two polylines have disjoint images.

    With ``skip_shared_endpoints`` a single common endpoint of the two
    polylines is tolerated (arms meeting at a branch point).  Segment
    pairs whose bounding boxes miss each other are not tested.
    """
    shared = set()
    if skip_shared_endpoints:
        ends_a = {poly_a[0], poly_a[-1]}
        ends_b = {poly_b[0], poly_b[-1]}
        shared = ends_a & ends_b
    boxes_b = [box(poly_b[j:j + 2]) for j in range(len(poly_b) - 1)]
    for i in range(len(poly_a) - 1):
        a1, a2 = poly_a[i], poly_a[i + 1]
        box_a = box((a1, a2))
        for j, box_b in enumerate(boxes_b):
            if not boxes_meet(box_a, box_b):
                continue
            b1, b2 = poly_b[j], poly_b[j + 1]
            if not segments_cross(a1, a2, b1, b2):
                continue
            # Tolerate contact that is exactly one shared endpoint.
            contact_ok = False
            for s in shared:
                if (s in (a1, a2)) and (s in (b1, b2)):
                    # Make sure the two segments only touch at s.
                    others = [p for p in (a1, a2) if p != s] + \
                             [p for p in (b1, b2) if p != s]
                    if all(not on_segment(o, b1, b2) or o == s for o in others[:1]) \
                       and all(not on_segment(o, a1, a2) or o == s for o in others[1:]):
                        contact_ok = True
            if not contact_ok:
                return False
    return True


class Grid:
    """One integer grid for a finite set of rational points.

    ``scale`` is the least positive common denominator of every
    coordinate, and ``point(p)`` is the integer point scale * p.
    """

    def __init__(self, points):
        self.scale = lcm(*(c.denominator for p in points for c in p))

    def point(self, p):
        s = self.scale
        return (p[0].numerator * (s // p[0].denominator),
                p[1].numerator * (s // p[1].denominator))

    def polyline(self, points):
        return tuple(map(self.point, points))


def point_in_convex_polygon(p, vertices):
    """Location of p in a ccw convex polygon: 1 inside, 0 boundary, -1 outside."""
    n = len(vertices)
    on_edge = False
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        o = orient(a, b, p)
        if o < 0:
            return -1
        if o == 0 and on_segment(p, a, b):
            on_edge = True
    return 0 if on_edge else 1


def polygon_barycenter(vertices) -> Point:
    n = len(vertices)
    sx = sum((v[0] for v in vertices), Fraction(0))
    sy = sum((v[1] for v in vertices), Fraction(0))
    return (sx / n, sy / n)
