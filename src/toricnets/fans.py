"""Complete smooth fans in the plane and their dual polytopes.

A fan is given by its cyclically ordered primitive ray generators; maximal
cone ``i`` is spanned by rays ``i`` and ``i+1 (mod n)``.  A strictly convex
support function turns the fan into a lattice polygon whose vertices are
dual to the maximal cones and whose edges are dual to the rays.  On top of
the polygon we keep a "disk model": straight segments from the barycenter
of the polygon to the edge midpoints, one per ray, cutting the polygon into
one region per maximal cone.

The fan is smooth and the support integral, so the polygon is a lattice
polygon: ``dual_polytope`` solves each vertex as an int pair and decides
strict convexity on those ints.  The disk model's center and edge
barycenters have denominators dividing n and 2; ``DiskModel`` keeps them
as int pairs on their least common denominator, ``scale``.  Every layout
puts the disk model on its own integer grid (``cover.GridPoints``), where
points are located and contacts tested.  Nothing here locates points, and
no rational number is made.
"""
from __future__ import annotations

from math import gcd, lcm

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
    ``i-1`` to vertex ``i`` is dual to ray ``i``.  Vertices are int pairs
    in ccw order because the fan's rays are.
    """

    def __init__(self, fan: Fan, phi: SupportFunction, vertices):
        self.fan = fan
        self.phi = phi
        self.vertices = vertices
        self.n = len(vertices)

    def __repr__(self):
        return f"Polytope({self.vertices})"


def dual_polytope(fan: Fan, phi: SupportFunction) -> Polytope:
    """Polygon {x : <x, v_rho> >= phi(v_rho)} with its dual-cell structure.

    Each cone is unimodular (else ``NotSmooth``, which only a ``Fan``
    built without ``make_fan`` reaches), so each vertex is an int pair.
    Strict convexity of phi is checked on every consecutive ray triple; it
    is exactly the condition for the vertex map cone -> vertex to be
    injective with edges of positive length.  On a complete fan this local
    (wall) criterion implies the global one (Cox-Little-Schenck, Toric
    Varieties, 6.1), so every vertex satisfies every half-plane.
    """
    if phi.fan is not fan and phi.fan != fan:
        raise NotStrictlyConvex("support function belongs to another fan")
    n, rays, values = fan.n, fan.rays, phi.values
    # vertex i solves <x, v_i> = phi_i, <x, v_{i+1}> = phi_{i+1}, on a
    # cone of determinant v_i x v_{i+1} = 1
    vertices = []
    for a, b, p, q in zip(rays, rays[1:] + rays[:1], values,
                          values[1:] + values[:1]):
        if geom.cross(a, b) != 1:
            raise NotSmooth(
                f"cone ({a}, {b}) has determinant {geom.cross(a, b)} != 1")
        vertices.append((p * b[1] - q * a[1], q * a[0] - p * b[0]))
    # <vertex i, v_{i+2}> > phi_{i+2}
    for i, ((x, y), (cx, cy), c) in enumerate(zip(
            vertices, rays[2:] + rays[:2], values[2:] + values[:2])):
        if x * cx + y * cy <= c:
            raise NotStrictlyConvex(
                f"support function is not strictly convex across ray {(i + 2) % n}")
    return Polytope(fan, phi, vertices)


class DiskModel:
    """Combinatorial stand-in for the Legendre transform picture.

    The polygon plays the role of the compactified plane; the segment from
    the polygon barycenter to the midpoint of the edge dual to ray ``rho``
    plays the role of the image of ``rho``.  Region ``i`` (for maximal cone
    ``i``) is the quadrilateral (center, midpoint_i, vertex_i,
    midpoint_{i+1}).  The center is also the barycenter of the edge
    midpoints, so every region's angle at the center is less than pi.

    ``scale`` is the least common denominator of the center (the n
    vertices' int sum over n) and the edge barycenters (two vertices' sum
    over 2), by gcds on those sums.  ``center`` and ``barycenters`` (that
    of edge ``i``) are those points times ``scale``, as int pairs.
    """

    def __init__(self, fan: Fan, polytope: Polytope):
        self.fan = fan
        self.polytope = polytope
        verts, n = polytope.vertices, polytope.n
        sx, sy = map(sum, zip(*verts))
        sums = [(ax + bx, ay + by) for (ax, ay), (bx, by)
                in zip(verts[-1:] + verts[:-1], verts)]
        self.scale = lcm(n // gcd(n, sx, sy),
                         2 // gcd(2, *(c for p in sums for c in p)))
        self.center = (sx * self.scale // n, sy * self.scale // n)
        self.barycenters = tuple((x * self.scale // 2, y * self.scale // 2)
                                 for x, y in sums)


def disk_model(fan: Fan, polytope: Polytope) -> DiskModel:
    return DiskModel(fan, polytope)
