"""Exact planar geometry helpers on the integer grid.

Points are pairs of ``int``: a cut layout's points, and its network's,
times the layout's one ``scale`` (``cover.BranchCutLayout``); lattice
vectors are pairs of ``int`` too.  Everything here is a pure predicate or
constructor on those tuples, so the package never touches floating point.

The map p -> scale * p multiplies every signed area by scale^2 > 0 and is
injective, so every orientation sign and every point equality is that of
the rational points: the segment-contact predicates (``orient``,
``on_segment``, ``proper_crossing``, ``segments_cross``,
``point_in_convex_polygon``) and the arm order of a branch point
(``network.branch_point_arms``, by ``angle_less``) give the rational
answers exactly.  A rational point is made only for a message or a
witness (``cover.GridPoints.rational``); an emitted coordinate is written
from its grid int and the scale (``schema._points_out``).

The contact predicates are straight-line kernels (Shewchuk 1997): each
unpacks its points into ints and computes every cross product it needs
inline, once, calling no helper but the box test ``_in_box``; the answer
is a ``bool`` or an int sign, never a float.

Point location runs on the same grid, in ``cover.GridPoints`` only: its
``region`` is the one caller of ``point_in_convex_polygon`` and reads
``orient`` against the spokes, its ``interior`` tests the signs of the
cross products with the polygon's edges, stored once, and a boundary
point's position along its edge and its half-edge come from
``on_segment`` and ``dot``.

``contacts``, the one contact query, is the only code that chooses which
segment pairs to test: one sweep over the segments of polylines (tuples of
grid points), each boxed once into a flat tuple, bounds each segment's
scan by one bisection and tests exactly only the pairs whose boxes meet;
its keys come back sorted, and each caller applies its own tolerance rule
to the pairs it finds.
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


def proper_crossing(p1, p2, q1, q2) -> bool:
    """True iff [p1,p2] and [q1,q2] cross at one point interior to both."""
    (x1, y1), (x2, y2), (x3, y3), (x4, y4) = p1, p2, q1, q2
    ux, uy, vx, vy = x4 - x3, y4 - y3, x2 - x1, y2 - y1
    s1 = ux * (y1 - y3) - uy * (x1 - x3)
    s2 = ux * (y2 - y3) - uy * (x2 - x3)
    s3 = vx * (y3 - y1) - vy * (x3 - x1)
    s4 = vx * (y4 - y1) - vy * (x4 - x1)
    return ((s1 < 0 < s2 or s2 < 0 < s1)
            and (s3 < 0 < s4 or s4 < 0 < s3))


def segments_cross(p1, p2, q1, q2) -> bool:
    """True iff closed segments [p1,p2], [q1,q2] share at least one point.

    Four orientations decide it, each computed once: ends strictly on one
    side of the other segment's line cannot touch it; the segments cross
    properly when each splits the other's ends, and touch otherwise
    exactly when an end of one is collinear with the other (a zero
    orientation) and in its box.
    """
    (x1, y1), (x2, y2), (x3, y3), (x4, y4) = p1, p2, q1, q2
    ux, uy = x4 - x3, y4 - y3
    s1 = ux * (y1 - y3) - uy * (x1 - x3)
    s2 = ux * (y2 - y3) - uy * (x2 - x3)
    if s1 > 0 < s2 or s1 < 0 > s2:
        return False
    vx, vy = x2 - x1, y2 - y1
    s3 = vx * (y3 - y1) - vy * (x3 - x1)
    s4 = vx * (y4 - y1) - vy * (x4 - x1)
    return ((s1 < 0 < s2 or s2 < 0 < s1) and (s3 < 0 < s4 or s4 < 0 < s3)
            or not s1 and _in_box(p1, q1, q2) or not s2 and _in_box(p2, q1, q2)
            or not s3 and _in_box(q1, p1, p2) or not s4 and _in_box(q2, p1, p2))


def contacts(curves, fixed=()):
    """Touching segment pairs of every two polylines, found in one sweep.

    Polylines are numbered ``curves`` first, then ``fixed``.  Returns
    {(a, b): [(i, j), ...]}, a < b, with the keys in sorted order, listing
    in (i, j) order each touching pair of segments a[i]a[i+1], b[j]b[j+1].
    Each segment is boxed once, inline, into one flat tuple (left, low,
    right, high, polyline, index, p, q), and the tuples sorted once by
    their boxes (Shamos-Hoey 1976): a segment is tested against the later
    ones whose boxes start before its box ends, a slice bounded by one
    bisection of the sorted left sides, and of those only the ones whose
    boxes meet its own in y.  Pairs within one polyline, or within
    ``fixed``, are never tested.
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
            if (low <= top and bottom <= high and a != b
                    and (a < m or b < m) and segments_cross(p1, p2, q1, q2)):
                key, pair = ((a, b), (i, j)) if a < b else ((b, a), (j, i))
                found.setdefault(key, []).append(pair)
    return {key: sorted(found[key]) for key in sorted(found)}


def polyline_pairwise_disjoint(a, b, touching, skip_shared_endpoints=True) -> bool:
    """True iff the touching segment pairs of a and b are all tolerated.

    ``touching`` lists them, as ``contacts`` finds them.  With
    ``skip_shared_endpoints`` a single common endpoint of the two
    polylines is tolerated (arms meeting at a branch point): a touching
    pair passes when both segments end there and touch nowhere else.
    """
    shared = {a[0], a[-1]} & {b[0], b[-1]} if skip_shared_endpoints else ()
    return all(any(_touch_only_at(s, a[i:i + 2], b[j:j + 2]) for s in shared)
               for i, j in touching)


def _touch_only_at(s, seg_a, seg_b):
    """True iff s ends both segments and no other end lies on the other."""
    if s not in seg_a or s not in seg_b:
        return False
    others = [p for p in seg_a if p != s] + [p for p in seg_b if p != s]
    return not (any(on_segment(o, *seg_b) for o in others[:1])
                or any(on_segment(o, *seg_a) for o in others[1:]))


def point_in_convex_polygon(p, vertices):
    """Location of p in a ccw convex polygon: 1 inside, 0 boundary, -1 outside."""
    x, y = p
    on_edge = False
    a = vertices[-1]
    for b in vertices:
        (ax, ay), (bx, by) = a, b
        s = (bx - ax) * (y - ay) - (by - ay) * (x - ax)
        if s < 0:
            return -1
        if not s and _in_box(p, a, b):
            on_edge = True
        a = b
    return 0 if on_edge else 1
