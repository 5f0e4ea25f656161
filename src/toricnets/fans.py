"""Complete smooth fans in the plane and their dual polytopes.

A fan is given by its cyclically ordered primitive ray generators; maximal
cone ``i`` is spanned by rays ``i`` and ``i+1 (mod n)``.  A strictly convex
support function turns the fan into a lattice polygon whose vertices are
dual to the maximal cones and whose edges are dual to the rays.  On top of
the polygon we keep a "disk model": straight segments from the barycenter
of the polygon to the edge midpoints, one per ray, cutting the polygon into
one region per maximal cone.

The polygon's vertices and the disk model's center and barycenters are
exact rationals (gcd-reduced Fractions); every layout puts them on its
integer grid (``cover.GridPoints``), where points are located and contacts
tested.  Nothing here locates points.  Strict convexity is decided on
each vertex's integer solve, before any Fraction is made.  The polygon
keeps its vertices as int pairs over one denominator (1 on a smooth fan):
the center and each edge barycenter are one int sum over one denominator
(n times it, and 2 times it), made one Fraction per coordinate.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import geom
from .errors import (NonPrimitiveRay, NotComplete, NotSmooth,
                     NotStrictlyConvex)


class Fan:
    """A complete smooth fan in Z^2.

    Rays are primitive integer vectors listed in strict counterclockwise
    cyclic order.  Maximal cone ``i`` is cone(v_i, v_{i+1 mod n}); the
    shared ray of maximal cones ``i-1`` and ``i`` is ray ``i``.
    """

    def __init__(self, rays):
        self.rays = [tuple(v) for v in rays]
        self.n = len(self.rays)

    def ray(self, i):
        return self.rays[i % self.n]

    def __eq__(self, other):
        return isinstance(other, Fan) and self.rays == other.rays

    def __repr__(self):
        return f"Fan({self.rays})"


def make_fan(rays) -> Fan:
    """Build a complete smooth fan from cyclically ordered primitive rays.

    The given order is verified, never re-sorted: downstream labels index
    cones by position in this list.
    """
    if not rays:
        raise NotComplete("empty ray list")
    rays = [tuple(v) for v in rays]
    for v in rays:
        if not geom.is_primitive(v):
            raise NonPrimitiveRay(f"ray {v} is not primitive")
    if len(set(rays)) != len(rays):
        raise NotComplete("duplicate ray directions")
    n = len(rays)
    if n < 3:
        raise NotComplete("a complete fan in the plane needs at least 3 rays")
    # Each consecutive gap must be a strictly convex cone (det > 0) and the
    # sequence must wrap around the circle exactly once: exactly one descent
    # with respect to the exact angular order.
    descents = 0
    for i in range(n):
        a, b = rays[i], rays[(i + 1) % n]
        d = geom.cross(a, b)
        if d <= 0:
            raise NotComplete(
                f"rays {a} -> {b} do not bound a convex cone in ccw order")
        if not geom.angle_less(a, b):
            descents += 1
    if descents != 1:
        raise NotComplete("ray directions wrap the circle more than once")
    for i in range(n):
        a, b = rays[i], rays[(i + 1) % n]
        if geom.cross(a, b) != 1:
            raise NotSmooth(
                f"cone ({a}, {b}) has determinant {geom.cross(a, b)} != 1")
    return Fan(rays)


class SupportFunction:
    """Integer values of a strictly convex support function, one per ray."""

    def __init__(self, fan: Fan, values):
        if len(values) != fan.n:
            raise NotStrictlyConvex("one value per ray required")
        self.fan = fan
        self.values = list(values)

    def __getitem__(self, i):
        return self.values[i % self.fan.n]


class Polytope:
    """The lattice polygon dual to (fan, support function).

    Vertex ``i`` is dual to maximal cone ``i``; the edge from vertex
    ``i-1`` to vertex ``i`` is dual to ray ``i``.  Vertices are in ccw
    order because the fan's rays are.
    """

    def __init__(self, fan: Fan, phi: SupportFunction, vertices):
        self.fan = fan
        self.phi = phi
        self.vertices = vertices
        self.n = len(vertices)
        # the vertices as int pairs over one denominator (1: a smooth
        # fan's vertices are integral), which the barycenters sum
        self._den = lcm(*(c.denominator for v in vertices for c in v))
        self._ints = [tuple(c.numerator * (self._den // c.denominator)
                            for c in v) for v in vertices]

    def vertex(self, i):
        return self.vertices[i % self.n]

    def edge(self, i):
        """Endpoints of the edge dual to ray i: (vertex i-1, vertex i)."""
        return (self.vertices[(i - 1) % self.n], self.vertices[i % self.n])

    def edge_barycenter(self, i):
        n, den = self.n, 2 * self._den
        (ax, ay), (bx, by) = self._ints[(i - 1) % n], self._ints[i % n]
        return (Fraction(ax + bx, den), Fraction(ay + by, den))

    def barycenter(self):
        den = self.n * self._den
        return tuple(Fraction(sum(c), den) for c in zip(*self._ints))

    def __repr__(self):
        return f"Polytope({self.vertices})"


def dual_polytope(fan: Fan, phi: SupportFunction) -> Polytope:
    """Polygon {x : <x, v_rho> >= phi(v_rho)} with its dual-cell structure.

    Strict convexity of phi is checked on every consecutive ray triple; it
    is exactly the condition for the vertex map cone -> vertex to be
    injective with edges of positive length.  On a complete fan this local
    (wall) criterion implies the global one (Cox-Little-Schenck, Toric
    Varieties, 6.1), so every vertex satisfies every half-plane.
    """
    if phi.fan is not fan and phi.fan != fan:
        raise NotStrictlyConvex("support function belongs to another fan")
    n, rays, values = fan.n, fan.rays, phi.values
    # vertex i solves <x, v_i> = phi_i, <x, v_{i+1}> = phi_{i+1}: it is
    # (X, Y) / det with det = v_i x v_{i+1} (1 on a smooth fan)
    solved = []
    for (ax, ay), (bx, by), a, b in zip(rays, rays[1:] + rays[:1], values,
                                        values[1:] + values[:1]):
        det = ax * by - ay * bx
        x, y = a * by - b * ay, b * ax - a * bx
        if not det:  # a Fan built without make_fan; as Fraction(x, 0)
            raise ZeroDivisionError(f"Fraction({x}, 0)")
        solved.append((x, y, det))
    # <(X, Y) / det, v_{i+2}> > phi_{i+2}, decided on the ints
    for i, ((x, y, det), (cx, cy), c) in enumerate(zip(
            solved, rays[2:] + rays[:2], values[2:] + values[:2])):
        lhs, rhs = x * cx + y * cy, c * det
        if (lhs <= rhs) if det > 0 else (lhs >= rhs):
            raise NotStrictlyConvex(
                f"support function is not strictly convex across ray {(i + 2) % n}")
    return Polytope(fan, phi, [(Fraction(x, det), Fraction(y, det))
                               for x, y, det in solved])


class DiskModel:
    """Combinatorial stand-in for the Legendre transform picture.

    The polygon plays the role of the compactified plane; the segment from
    the polygon barycenter to the midpoint of the edge dual to ray ``rho``
    plays the role of the image of ``rho``.  Region ``i`` (for maximal cone
    ``i``) is the quadrilateral (center, midpoint_i, vertex_i,
    midpoint_{i+1}).  The center is also the barycenter of the edge
    midpoints, so every region's angle at the center is less than pi.

    ``scale`` is the least common denominator of every coordinate (the
    center's divide n, the barycenters' 2; the vertices are integral).
    """

    def __init__(self, fan: Fan, polytope: Polytope):
        self.fan = fan
        self.polytope = polytope
        self.center = polytope.barycenter()
        self.ray_segments = {
            i: (self.center, polytope.edge_barycenter(i)) for i in range(fan.n)
        }
        self.scale = lcm(*(c.denominator for seg in self.ray_segments.values()
                           for p in seg for c in p))

    def spoke(self, i):
        return self.ray_segments[i % self.fan.n]


def disk_model(fan: Fan, polytope: Polytope) -> DiskModel:
    return DiskModel(fan, polytope)
