import random
from fractions import Fraction
from math import isqrt

import pytest

from support import (ZERO_CONE, barycentric_boundary,
                     brute_force_polytope_vertices, dual_cell, locate,
                     max_cone, perfbench_gen, ray_cone, ref_dual_polytope,
                     region_of_interior_point, region_polygon)

from toricnets.errors import (NonPrimitiveRay, NotComplete, NotSmooth,
                              NotStrictlyConvex, UnknownCone)
from toricnets.geom import dot
from toricnets.fans import (Fan, SupportFunction, disk_model, dual_polytope,
                            make_fan)

P2 = [(1, 0), (0, 1), (-1, -1)]
P1P1 = [(1, 0), (0, 1), (-1, 0), (0, -1)]


def test_make_fan_p2():
    fan = make_fan(P2)
    assert fan.n == 3


def test_make_fan_p1p1():
    fan = make_fan(P1P1)
    assert fan.n == 4


def test_make_fan_rejects_half_plane():
    with pytest.raises(NotComplete):
        make_fan([(1, 0), (0, 1)])


def test_make_fan_rejects_nonprimitive():
    with pytest.raises(NonPrimitiveRay):
        make_fan([(2, 0), (0, 1), (-1, -1)])


def test_make_fan_rejects_nonsmooth():
    # (1,0),(1,2) has determinant 2
    with pytest.raises(NotSmooth):
        make_fan([(1, 0), (1, 2), (-1, 0), (0, -1)])


def test_make_fan_rejects_wrong_cyclic_order():
    with pytest.raises(NotComplete):
        make_fan([(1, 0), (-1, -1), (0, 1)])


def test_make_fan_rejects_double_wrap():
    # every consecutive turn is ccw by less than pi, yet the directions
    # wind around the circle twice
    rays = [(1, 0), (-4, 3), (2, -3), (1, 3), (-4, -3)]
    with pytest.raises(NotComplete):
        make_fan(rays)


def test_dual_polytope_p2_matches_brute_force():
    fan = make_fan(P2)
    phi = SupportFunction(fan, [0, 0, -1])
    poly = dual_polytope(fan, phi)
    assert set(poly.vertices) == brute_force_polytope_vertices(fan, phi)
    assert set(poly.vertices) == {(0, 0), (1, 0), (0, 1)}


def test_dual_polytope_p1p1_matches_brute_force():
    fan = make_fan(P1P1)
    phi = SupportFunction(fan, [-1, -1, -1, -1])
    poly = dual_polytope(fan, phi)
    assert set(poly.vertices) == brute_force_polytope_vertices(fan, phi)
    assert set(poly.vertices) == {(1, 1), (-1, 1), (-1, -1), (1, -1)}


def _random_smooth_fan(rng, n):
    """Rays of a random smooth fan with n rays: blow-ups of P^2 or of a
    Hirzebruch fan, which between them give every complete smooth fan."""
    a = rng.randint(0, 3)
    rays = rng.choice([list(P2), [(1, 0), (0, 1), (-1, a), (0, -1)]])
    while len(rays) < n:
        i = rng.randrange(len(rays))
        u, v = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, (u[0] + v[0], u[1] + v[1]))
    return rays


def test_dual_polytope_vertices_satisfy_every_half_plane():
    # dual_polytope checks strict convexity on consecutive ray triples
    # only; on a complete fan that local criterion is the global one, so
    # every support function it accepts gives vertices that satisfy every
    # half-plane and are the brute-force vertex set.  The values are
    # -floor(K|v|) plus noise: near a circle of radius K, so that about
    # half of them are strictly convex, on fans of up to 10 rays
    rng = random.Random(20261019)
    accepted = rejected = 0
    for _ in range(1000):
        fan = make_fan(_random_smooth_fan(rng, rng.randint(3, 10)))
        k = rng.randint(1, 40)
        phi = SupportFunction(fan, [-isqrt(k * k * dot(v, v))
                                    + rng.randint(-2, 2) for v in fan.rays])
        try:
            poly = dual_polytope(fan, phi)
        except NotStrictlyConvex:
            rejected += 1
            continue
        accepted += 1
        assert all(dot(x, fan.ray(j)) >= phi[j]
                   for x in poly.vertices for j in range(fan.n))
        assert len(set(poly.vertices)) == fan.n
        assert set(poly.vertices) == brute_force_polytope_vertices(fan, phi)
    assert accepted >= 300 and rejected >= 300


def _polytope_outcome(build, fan, phi):
    """The vertices ``build`` returns, or the type and message it raises."""
    try:
        return build(fan, phi).vertices
    except (NotStrictlyConvex, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def test_dual_polytope_matches_the_fraction_reference():
    # the integer-first check against the Fraction/lcm reference: balanced
    # blow-up fans (the benchmark's) at K around the accepting one, with
    # jitter, and fans built without make_fan: every cone of det 2, a det 0
    # cone after cones that may reject, every cone of det -1 (clockwise)
    rng = random.Random(20261020)
    gen = perfbench_gen()
    accepted = 0
    for _ in range(400):
        fan = make_fan(gen.blowup_fan(rng.randint(3, 20)))
        k = rng.randint(1, 12)
        values = [-isqrt(k * k * dot(v, v)) - rng.randint(0, 2)
                  for v in fan.rays]
        phi = SupportFunction(fan, values)
        want = _polytope_outcome(ref_dual_polytope, fan, phi)
        assert _polytope_outcome(dual_polytope, fan, phi) == want
        accepted += isinstance(want, list)
    assert 100 <= accepted <= 300
    direct = [[(1, 0), (1, 2), (-1, 0), (-1, -2)],
              [(1, 0), (0, 1), (-1, 0), (1, 0), (0, -1)],
              [(0, 1), (1, 0), (0, -1), (-1, 0)]]
    seen = set()
    for rays in direct:
        fan = Fan(rays)
        for _ in range(60):
            phi = SupportFunction(fan, [rng.randint(-6, 6) for _ in rays])
            want = _polytope_outcome(ref_dual_polytope, fan, phi)
            assert _polytope_outcome(dual_polytope, fan, phi) == want
            seen.add(want[0] if isinstance(want, tuple) else list)
    assert seen == {list, NotStrictlyConvex, ZeroDivisionError}


def test_dual_polytope_rejects_linear_support():
    fan = make_fan(P2)
    # phi(v) = <(1,1), v> is linear, not strictly convex
    phi = SupportFunction(fan, [1, 1, -2])
    with pytest.raises(NotStrictlyConvex):
        dual_polytope(fan, phi)


def test_dual_cells():
    fan = make_fan(P2)
    phi = SupportFunction(fan, [0, 0, -1])
    poly = dual_polytope(fan, phi)
    assert dual_cell(poly, max_cone(0)) == ((Fraction(0), Fraction(0)),)
    edge = dual_cell(poly, ray_cone(0))
    assert set(edge) == {(0, 1), (0, 0)}
    assert set(dual_cell(poly, ZERO_CONE)) == set(poly.vertices)
    with pytest.raises(UnknownCone):
        dual_cell(poly, ray_cone(7))


def test_dual_cell_bijection_counts():
    for rays, values in [(P2, [0, 0, -1]), (P1P1, [-1, -1, -1, -1])]:
        fan = make_fan(rays)
        poly = dual_polytope(fan, SupportFunction(fan, values))
        assert poly.n == fan.n  # vertices <-> maximal cones
        edges = {tuple(sorted(poly.edge(i))) for i in range(fan.n)}
        assert len(edges) == fan.n  # edges <-> rays


def test_barycentric_boundary_counts():
    fan = make_fan(P2)
    poly = dual_polytope(fan, SupportFunction(fan, [0, 0, -1]))
    cells = barycentric_boundary(poly)
    kinds = {}
    for c in cells:
        kinds[c.kind] = kinds.get(c.kind, 0) + 1
    assert kinds == {"vertex": 3, "barycenter": 3, "half-edge": 6}

    fan = make_fan(P1P1)
    poly = dual_polytope(fan, SupportFunction(fan, [-1, -1, -1, -1]))
    kinds = {}
    for c in barycentric_boundary(poly):
        kinds[c.kind] = kinds.get(c.kind, 0) + 1
    assert kinds == {"vertex": 4, "barycenter": 4, "half-edge": 8}


def test_half_edges_record_their_data():
    fan = make_fan(P2)
    poly = dual_polytope(fan, SupportFunction(fan, [0, 0, -1]))
    for cell in barycentric_boundary(poly):
        if cell.kind == "half-edge":
            assert cell.points[0] == poly.vertex(cell.vertex_index)
            assert cell.points[1] == poly.edge_barycenter(cell.edge)


def test_disk_model_counts_and_partition():
    fan = make_fan(P2)
    poly = dual_polytope(fan, SupportFunction(fan, [0, 0, -1]))
    disk = disk_model(fan, poly)
    assert len(disk.ray_segments) == 3
    # each region's boundary contains exactly one polytope vertex
    for i in range(3):
        region = region_polygon(disk, i)
        assert poly.vertex(i) in region


def test_disk_model_point_location():
    fan = make_fan(P1P1)
    poly = dual_polytope(fan, SupportFunction(fan, [-1, -1, -1, -1]))
    disk = disk_model(fan, poly)
    # vertex of the polytope: boundary point adjacent to two regions
    regions, on_boundary = locate(disk, poly.vertex(0))
    assert on_boundary
    assert len(regions) == 1  # a vertex is interior to its region's arc
    # a point on a spoke belongs to the two adjacent regions
    mid = disk.spoke(1)
    p = ((mid[0][0] + mid[1][0]) / 2, (mid[0][1] + mid[1][1]) / 2)
    regions, on_boundary = locate(disk, p)
    assert sorted(regions) == [0, 1]
    assert not on_boundary
    # interior point of a region
    centerish = region_polygon(disk, 2)
    q = tuple(sum(c[k] for c in centerish) / 4 for k in (0, 1))
    assert region_of_interior_point(disk, q) == 2
    # points outside locate nowhere
    assert locate(disk, (Fraction(10), Fraction(10))) == ([], False)


def test_spokes_meet_only_at_center():
    fan = make_fan(P2)
    poly = dual_polytope(fan, SupportFunction(fan, [0, 0, -1]))
    disk = disk_model(fan, poly)
    for i in range(3):
        for j in range(i + 1, 3):
            a1, a2 = disk.spoke(i)
            b1, b2 = disk.spoke(j)
            assert a1 == b1 == disk.center
            assert a2 != b2
