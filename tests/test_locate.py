"""Grid point location against the ``Fraction`` reference locator.

``BranchCutLayout.cut_region`` locates each branch point once, on the
layout's integer grid (``GridPoints.region``).  The reference in
``support`` is the ``Fraction`` locator the package used before: a
polygon test and a closed-sector test against every spoke.  Both must
give the same region, or the same ``UnknownCone`` message, for the branch
points of every fixture and generated layout up to (12, 12), and for
seeded random points, the center, points on spokes, edge midpoints,
vertices, other boundary points and outside points of their disk models.

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
import random
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

from support import (FIXTURES, edge_parameter, generated_problems,
                     half_edge_of_boundary_point, lerp, load, rational,
                     region_of_interior_point, skewed_fan_and_support)

from toricnets.builder import build_network
from toricnets.cover import BranchCutLayout, Cut, GridPoints
from toricnets.errors import NotRealizable, UnknownCone
from toricnets.fans import SupportFunction, disk_model, dual_polytope
from toricnets.schema import _points_out


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
