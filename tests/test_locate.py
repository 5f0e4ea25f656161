"""Grid point location against the ``Fraction`` reference locator.

``BranchCutLayout.cut_region`` locates each branch point once, on the
layout's integer grid (``GridPoints.region``).  The reference in
``support`` is the ``Fraction`` locator the package used before: a
polygon test and a closed-sector test against every spoke.  Both must
give the same region, or the same ``UnknownCone`` message, for the branch
points of every fixture and generated layout up to (12, 12), and for
seeded random points, the center, points on spokes, edge midpoints,
vertices, other boundary points and outside points of their disk models.
``GridPoints.interior``, on precomputed edges, must agree with the
reference polygon test on the same kinds of points, points on an edge's
line beyond its ends among them, and on a generated (20, 4) disk model.
``GridPoints.region`` decides "outside the closed polygon" on those same
edges: on every fixture's grid and on generated (8, 8), (16, 4) and
(20, 4) disk models, each also on a grid scaled by a 69- to 70-bit
factor, it must be None exactly where the reference polygon test says
outside or the point lies on a spoke, and ``interior`` exactly where the
reference says inside.

Boundary landings are read on the grid too: ``GridPoints.edge_position``
and ``GridPoints.half_edge`` must agree with the reference edge parameter
and half-edge search on every edge of the same disk models, for vertices,
barycenters, quarter points, seeded points of each edge, and points just
inside and just outside it.

The disk model's center and barycenters, each one int sum over one
denominator, must equal the ``Fraction`` formulas (vertex sums divided by
n and by 2), and the grid must hold them times the scale; an emitted
coordinate, one gcd with the scale, must read as ``str(Fraction(c,
scale))``.
"""
import json
import random
from fractions import Fraction
from math import gcd, lcm
from types import SimpleNamespace

from support import (FIXTURES, GEN_TOOLKIT, edge_parameter,
                     generated_problems, half_edge_of_boundary_point, lerp,
                     load, perfbench_gen, rational, ref_on_segment,
                     ref_point_in_convex_polygon, region_of_interior_point,
                     skewed_fan_and_support)

from toricnets.builder import build_network
from toricnets.cover import BranchCutLayout, Cut, GridPoints
from toricnets.errors import NotRealizable, UnknownCone
from toricnets.fans import SupportFunction, disk_model, dual_polytope
from toricnets.schema import _points_out, parse_problem


def _on_one_grid(disk, points):
    """The scale of the least grid holding the disk model and ``points``,
    and the points on it."""
    scale = lcm(disk.scale, *(c.denominator for p in points for c in p))
    return scale, [(int(x * scale), int(y * scale)) for x, y in points]


def _outcome(locate, *args):
    try:
        return locate(*args)
    except UnknownCone as exc:
        return str(exc)


def _probe_points(disk, rng):
    """Points of every kind the locator must tell apart, on one disk."""
    poly = disk.polytope
    n = disk.fan.n
    c = disk.center
    (x0, y0), (x1, y1) = (tuple(map(f, zip(*poly.vertices)))
                          for f in (min, max))
    pts = [c]
    for i in range(n):
        a, b = poly.edge(i)
        m = poly.edge_barycenter(i)
        pts += [a, m, lerp(a, b, Fraction(1, 4)), lerp(a, b, Fraction(3, 4)),
                lerp(a, b, Fraction(rng.randint(1, 99), 100)),
                lerp(c, m, Fraction(1, 3)), lerp(c, m, Fraction(1, 2)),
                lerp(c, a, Fraction(1, 2)), lerp(c, a, Fraction(5, 4)),
                lerp(c, m, Fraction(3, 2)), lerp(m, c, -1)]
    # seeded points of the bounding box, widened by 1 on every side
    for _ in range(4 * n):
        u, v = (Fraction(rng.randint(0, 1000), 1000) for _ in "uv")
        pts.append((x0 - 1 + (x1 - x0 + 2) * u, y0 - 1 + (y1 - y0 + 2) * v))
    return pts


def assert_locators_agree(disk, points):
    """The reference outcome of each point, checked against the grid.

    ``GridPoints.region`` must give the reference region (None where the
    reference raises), and the ``cut_region`` of a layout with one cut from
    the point the same region or ``UnknownCone`` message.
    """
    scale, grid_points = _on_one_grid(disk, points)
    g = GridPoints(disk, scale)
    outcomes = []
    for p, q in zip(points, grid_points):
        want = _outcome(region_of_interior_point, disk, p)
        assert g.region(q) == (want if isinstance(want, int) else None), p
        cut = Cut((q, g.spokes[0][-1]), (0, 1), 0)
        alone = BranchCutLayout(disk, (cut,), scale)
        assert _outcome(lambda: alone.cut_region[0]) == want
        outcomes.append(want)
    return outcomes


def _layouts():
    for path in sorted(FIXTURES.glob("*.json")):
        spec = load(path.stem)
        try:
            yield path.stem, spec, build_network(spec.tms, spec.disk)[1]
        except NotRealizable:
            yield path.stem, spec, None
    for shape, spec in generated_problems("locate", 20261019, 5):
        yield shape, spec, build_network(spec.tms, spec.disk)[1]


def test_grid_locator_matches_fraction_reference():
    kinds = set()
    for name, spec, layout in _layouts():
        disk = spec.disk
        if layout is not None and layout.cuts:
            points = rational(layout, layout.branch_points)
            assert list(layout.cut_region) == [
                region_of_interior_point(disk, p) for p in points]
            assert_locators_agree(disk, points)
        rng = random.Random(f"locate:{name}")
        outcomes = assert_locators_agree(disk, _probe_points(disk, rng))
        kinds |= {type(o) for o in outcomes}
        # the center and every edge midpoint sit on spokes, every vertex
        # inside its own region
        n = disk.fan.n
        assert outcomes[0] == \
            f"point {disk.center} is not interior to a unique region"
        assert [outcomes[1 + 11 * i] for i in range(n)] == \
            [(i - 1) % n for i in range(n)]
        assert all(isinstance(outcomes[2 + 11 * i], str) for i in range(n))
    assert kinds == {int, str}


def _disks():
    for path in sorted(FIXTURES.glob("*.json")):
        yield path.stem, load(path.stem).disk
    for shape, spec in generated_problems("locate", 20261019, 5):
        yield shape, spec.disk


def _edge_probes(disk, rng):
    """Points of and near every edge, by kind."""
    poly = disk.polytope
    c = disk.center
    for e in range(disk.fan.n):
        a, b = poly.edge(e)
        for t in (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1,
                  Fraction(rng.randint(1, 999), 1000),
                  Fraction(rng.randint(1, 999), 1000)):
            q = lerp(a, b, t)
            kind = ("vertex" if t in (0, 1) else
                    "barycenter" if t == Fraction(1, 2) else "edge")
            yield kind, q
            yield "inside", lerp(q, c, Fraction(1, 997))
            yield "outside", lerp(c, q, Fraction(1001, 1000))


def test_grid_half_edges_match_fraction_reference():
    seen = set()
    for name, disk in _disks():
        poly = disk.polytope
        n = disk.fan.n
        kinds, points = zip(*_edge_probes(disk, random.Random(f"edge:{name}")))
        scale, grid_points = _on_one_grid(disk, points)
        g = GridPoints(disk, scale)
        # every edge index, also below 0 and from n on: the grid position
        # is the reference parameter times the squared grid edge length
        lengths = {e: g.edge_position(g.vertices[e % n], e)
                   for k in (-n, 0, n) for e in range(k, k + n)}
        for kind, p, q in zip(kinds, points, grid_points):
            he = half_edge_of_boundary_point(poly, p)
            assert g.half_edge(q) == he, (name, kind, p)
            assert (he is not None) == (kind == "edge"), (name, kind, p)
            for e, length in lengths.items():
                t = edge_parameter(poly, e, p)
                assert g.edge_position(q, e) == \
                    (None if t is None else t * length), (name, e, p)
                seen.add((kind, t is None))
        # the grid barycenter is the end of the spoke, and ``mids`` holds
        # its position
        assert [g.edge_position(s[-1], e) * 2 for e, s in
                enumerate(g.spokes)] == [m * 2 for m in g.mids] == \
            [g.edge_position(g.vertices[e], e) for e in range(n)]
    assert seen == {(kind, on) for kind in ("vertex", "barycenter", "edge")
                    for on in (False, True)} | {("inside", True),
                                                ("outside", True)}


def _interior_probes(disk, rng):
    """Points of every kind ``GridPoints.interior`` must tell apart."""
    poly = disk.polytope
    c = disk.center
    (x0, y0), (x1, y1) = (tuple(map(f, zip(*poly.vertices)))
                          for f in (min, max))
    yield "center", c
    for e in range(disk.fan.n):
        a, b = poly.edge(e)
        for t in (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4),
                  Fraction(rng.randint(1, 999), 1000)):
            q = lerp(a, b, t)
            yield ("vertex" if t == 0 else "barycenter"
                   if t == Fraction(1, 2) else "edge"), q
            yield "inside", lerp(q, c, Fraction(1, 997))
            yield "outside", lerp(c, q, Fraction(1001, 1000))
        # on the edge's line, beyond its ends
        yield "beyond", lerp(a, b, Fraction(-1, 4))
        yield "beyond", lerp(a, b, Fraction(5, 4))
        yield "inside", lerp(c, a, Fraction(1, 4))
    for _ in range(8 * disk.fan.n):
        u, v = (Fraction(rng.randint(0, 1000), 1000) for _ in "uv")
        yield "random", (x0 - 1 + (x1 - x0 + 2) * u,
                         y0 - 1 + (y1 - y0 + 2) * v)


def test_grid_interior_matches_the_polygon_reference():
    # GridPoints.interior reads its precomputed edges: a point is interior
    # iff it is strictly left of every ccw edge, which on the strictly
    # convex polygons of the disk models is the reference's interior
    gen = perfbench_gen()
    wide = parse_problem(json.loads(gen.serialize(
        gen.generate(20, 4, "interior", GEN_TOOLKIT))))
    seen = set()
    for name, disk in [*_disks(), ((20, 4), wide.disk)]:
        kinds, points = zip(*_interior_probes(
            disk, random.Random(f"interior:{name}")))
        scale, grid_points = _on_one_grid(disk, points)
        g = GridPoints(disk, scale)
        for kind, q in zip(kinds, grid_points):
            want = ref_point_in_convex_polygon(q, g.vertices) == 1
            assert g.interior(q) == want, (name, kind, q)
            seen.add((kind, want))
    assert seen >= {("center", True), ("inside", True), ("random", True),
                    ("random", False), ("outside", False),
                    ("beyond", False), ("vertex", False),
                    ("barycenter", False), ("edge", False)}


def _region_grids():
    """Every fixture's grid (its built layout's, else its disk model's)
    and generated (8, 8), (16, 4) and (20, 4) disk models, then each of
    them again on a grid scaled by a seeded factor of 69 to 70 bits."""
    grids = []
    for path in sorted(FIXTURES.glob("*.json")):
        spec = load(path.stem)
        try:
            grid = build_network(spec.tms, spec.disk)[1].grid
        except NotRealizable:
            grid = GridPoints(spec.disk, spec.disk.scale)
        grids.append((path.stem, spec.disk, grid))
    gen = perfbench_gen()
    for n, crossings in [(8, 8), (16, 4), (20, 4)]:
        disk = parse_problem(json.loads(gen.serialize(
            gen.generate(n, crossings, "region", GEN_TOOLKIT)))).disk
        grids.append(((n, crossings), disk, GridPoints(disk, disk.scale)))
    rng = random.Random("region grids")
    return grids + [(f"{name} wide", disk,
                     GridPoints(disk, g.scale * rng.randrange(2 ** 69,
                                                              2 ** 70)))
                    for name, disk, g in grids]


def _grid_probes(g, rng):
    """Grid points of every kind ``region`` and ``interior`` must tell
    apart: the center, vertices, barycenters, points on each edge and one
    grid step off it on both sides, points on each edge's line beyond its
    ends, points on each spoke and on its line beyond the center, and
    seeded points of the bounding box."""
    n = len(g.vertices)
    c = g.spokes[0][0]
    yield c
    for e in range(n):
        a, b = g.vertices[(e - 1) % n], g.vertices[e]
        dx, dy = b[0] - a[0], b[1] - a[1]
        k = gcd(dx, dy)
        ux, uy = dx // k, dy // k
        for t in (0, rng.randint(1, k - 1) if k > 1 else 0, k // 2, k):
            q = (a[0] + t * ux, a[1] + t * uy)
            yield q
            yield (q[0] - uy, q[1] + ux)          # one step inside
            yield (q[0] + uy, q[1] - ux)          # one step outside
        yield (a[0] - ux, a[1] - uy)              # beyond a
        yield (b[0] + ux, b[1] + uy)              # beyond b
        t = rng.randint(1, k)
        yield (a[0] - t * ux, a[1] - t * uy)      # further beyond a
        m = g.spokes[e][-1]
        sx, sy = m[0] - c[0], m[1] - c[1]
        j = gcd(sx, sy)
        vx, vy = sx // j, sy // j
        for t in (rng.randint(0, j), -rng.randint(1, j), j + 1):
            yield (c[0] + t * vx, c[1] + t * vy)
    (x0, y0), (x1, y1) = (tuple(map(f, zip(*g.vertices))) for f in (min, max))
    dx, dy = (x1 - x0) // 8, (y1 - y0) // 8
    for _ in range(8 * n):
        yield (rng.randint(x0 - dx, x1 + dx), rng.randint(y0 - dy, y1 + dy))


def test_grid_region_matches_the_polygon_reference():
    # region decides "outside the closed polygon" on the edges interior
    # reads: some cross product is negative, the reference's outside
    seen = set()
    bits = set()
    for name, disk, g in _region_grids():
        rng = random.Random(f"region:{name}")
        for p in _grid_probes(g, rng):
            ref = ref_point_in_convex_polygon(p, g.vertices)
            on_spoke = any(ref_on_segment(p, *s) for s in g.spokes)
            assert (g.region(p) is None) == (ref < 0 or on_spoke), (name, p)
            assert g.interior(p) == (ref == 1), (name, p)
            seen.add((ref, on_spoke))
        bits.add(max(abs(x) for v in g.vertices for x in v).bit_length() > 70)
    assert seen == {(-1, False), (0, False), (0, True), (1, False),
                    (1, True)}
    assert bits == {False, True}


def _blowup_disks():
    """The disk models of seeded skewed blow-up fans, 3 to 12 rays."""
    rng = random.Random("int disk")
    for n in [3, 4, 5, 6, 7, 8, 9, 10, 11, 12] * 2:
        fan, values = skewed_fan_and_support(rng, n)
        poly = dual_polytope(fan, SupportFunction(fan, values))
        yield fan.rays, disk_model(fan, poly)


def test_int_disk_model_matches_the_fraction_formulas():
    disks = list(_disks()) + list(_blowup_disks())
    scales = set()
    for name, disk in disks:
        vertices, n = disk.polytope.vertices, disk.fan.n
        center = tuple(sum(c) / n for c in zip(*vertices))
        assert disk.center == center, name
        for i in range(n):
            a, b = vertices[(i - 1) % n], vertices[i]
            mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
            assert disk.spoke(i) == (center, mid), (name, i)
        points = [p for i in range(n) for p in disk.spoke(i)] + vertices
        assert all(type(c) is Fraction for p in points for c in p)
        assert disk.scale == lcm(*(c.denominator for p in points for c in p))
        scales.add(disk.scale)
        for scale in (disk.scale, 3 * disk.scale):
            g = GridPoints(disk, scale)
            assert g.vertices == tuple((int(x * scale), int(y * scale))
                                       for x, y in vertices)
            assert g.spokes == tuple(
                tuple((int(x * scale), int(y * scale)) for x, y in spoke)
                for spoke in map(disk.spoke, range(n)))
    # centers over 2, 3, 4, ... and both parities of n occur
    assert len(scales) > 4


def test_points_out_writes_each_rational_point():
    rng = random.Random("points out")
    for scale in [1, 2, 3, 12, 2 ** 40 * 3 ** 5, rng.randrange(1, 10 ** 9)]:
        points = [(0, 0), (scale, -scale), (-1, 1)] + [
            (rng.randint(-10 ** 12, 10 ** 12), rng.randint(-3, 3) * scale)
            for _ in range(200)]
        assert _points_out(points, SimpleNamespace(scale=scale)) == [
            [str(Fraction(c, scale)) for c in p] for p in points]
    for name, spec, layout in _layouts():
        if layout is not None:
            points = [p for c in layout.cuts for p in c.polyline]
            assert _points_out(points, layout.grid) == [
                [str(c) for c in layout.grid.rational(p)] for p in points]
