"""Grid-point contact tests against the all-pairs ``Fraction`` oracle.

``validate_network`` and ``build_cover`` test contacts on integer grid
points and only for pairs whose bounding boxes meet.  The references in
``support`` test every pair on the rational points the grid points stand
for.  Both must give the same reports (condition, message, witness,
multiplicity, order) and the same cover errors (class and message) on
every fixture, on generated networks up to (12, 12) and on perturbed
networks.  A perturbed network is written as a document's network, its
layout included, with ``Fraction`` points off the built layout's grid and
read back by ``schema`` (``support.on_grid``), which puts both on one
grid.
"""
import random
from fractions import Fraction

import pytest

from support import (FIXTURES, edited_network, generated_problems, lerp,
                     load, midpoint, on_grid, polygon_barycenter,
                     rational_cuts, rational_walls, reference_build_cover,
                     reference_validate_network, region_polygon)

from toricnets import builder, cover as cover_module, errors
from toricnets.builder import build_network
from toricnets.cover import Cut, build_cover
from toricnets.network import validate_network


def _violations(report):
    return [(v.condition, v.message, v.witness) for v in report.violations]


def assert_same_report(net, tms, cover):
    got = _violations(validate_network(net, tms, cover))
    assert got == _violations(reference_validate_network(net, tms, cover))
    return got


def _cover_outcome(build, disk, layout, r):
    try:
        build(disk, layout, r)
    except errors.ToricNetsError as exc:
        return type(exc), str(exc)
    return None


def assert_same_cover(disk, layout, r):
    got = _cover_outcome(build_cover, disk, layout, r)
    assert got == _cover_outcome(reference_build_cover, disk, layout, r)
    return got


def _checked_build(spec, monkeypatch):
    """Build a network, comparing every placement the builder tries."""
    seen = []

    def validate(net, tms, cover):
        seen.append(assert_same_report(net, tms, cover))
        return validate_network(net, tms, cover)

    def cover(disk, layout, r):
        assert_same_cover(disk, layout, r)
        return build_cover(disk, layout, r)

    with monkeypatch.context() as m:
        m.setattr(builder, "validate_network", validate)
        m.setattr(cover_module, "build_cover", cover)
        net, layout = build_network(spec.tms, spec.disk)
    return net, layout, seen


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")),
                         ids=lambda p: p.stem)
def test_fixtures_match_reference(path, monkeypatch):
    spec = load(path.stem)
    try:
        net, layout, seen = _checked_build(spec, monkeypatch)
    except errors.NotRealizable:
        assert path.stem in ("p2_n1", "p2_split_n0")
        return
    cover = build_cover(spec.disk, layout, spec.tms.degree)
    assert assert_same_report(net, spec.tms, cover) == []
    # a rank-2 build validates every placement; the accepted one is clean
    assert seen[-1:] == ([[]] if spec.tms.degree == 2 else [])


def test_generated_networks_match_reference(monkeypatch):
    for (n, big_n), spec in generated_problems("contact", 20261018, 5):
        net, layout, seen = _checked_build(spec, monkeypatch)
        assert len(net.walls) == 3 * (big_n - 2)
        assert seen and seen[-1] == []


def _replace_wall(net, index, polyline):
    """``net`` with wall ``index`` moved onto ``Fraction`` points."""
    walls = list(rational_walls(net))
    walls[index] = walls[index]._replace(polyline=tuple(polyline))
    return edited_network(net, walls=walls)


def _replace_cut(net, k, polyline):
    """``net``'s cuts, with cut k moved onto ``Fraction`` points."""
    cuts = list(rational_cuts(net.layout))
    cuts[k] = cuts[k]._replace(polyline=tuple(polyline))
    return tuple(cuts)


def _through(a, p):
    """Polyline from a through p to the mirror image of a in p."""
    return (a, p, (2 * p[0] - a[0], 2 * p[1] - a[1]))


def _wall_perturbations(net, rng):
    """(kind, network) pairs, each with one wall moved."""
    walls = rational_walls(net)
    for _ in range(2):
        i = rng.randrange(len(walls))
        a = walls[i]
        others = [w for w in walls if w.start_branch != a.start_branch]
        b = rng.choice(others) if others else walls[(i + 1) % len(walls)]
        j = rng.randrange(len(b.polyline) - 1)
        b1, b2 = b.polyline[j], b.polyline[j + 1]
        m = midpoint(b1, b2)
        yield "crossing", _replace_wall(net, i, _through(a.start, m))
        yield "overlap", _replace_wall(
            net, i, (a.start, lerp(b1, b2, Fraction(1, 4)),
                     lerp(b1, b2, Fraction(3, 4))))
        yield "endpoint touch", _replace_wall(net, i, (a.start, m))
        yield "vertex touch", _replace_wall(net, i, (a.start, b2))
        foreign = [c.polyline[0] for c in rational_cuts(net.layout)
                   if c.polyline[0] != a.start]
        if foreign:
            yield "foreign branch point", _replace_wall(
                net, i, _through(a.start, rng.choice(foreign)))
        s1, s2 = net.disk.spoke(rng.randrange(net.fan.n))
        yield "spoke touch", _replace_wall(
            net, i, (a.start, lerp(s1, s2, Fraction(1, 2))))
        yield "along spoke", _replace_wall(
            net, i, (a.start, lerp(s1, s2, Fraction(1, 4)),
                     lerp(s1, s2, Fraction(3, 4))))
        yield "through center", _replace_wall(net, i, _through(a.start, s1))
        corner = net.polytope.vertex(rng.randrange(net.fan.n))
        yield "boundary vertex", _replace_wall(net, i,
                                               (a.start, corner, a.end))
        sibling = next(w for w in walls if w.id != a.id
                       and w.start_branch == a.start_branch)
        yield "along a sibling arm", _replace_wall(
            net, i, (a.start, midpoint(*sibling.polyline[:2])))


def _crossing_cuts(net, k, m):
    """Cuts with k and m moved into the region of cut k, crossing."""
    poly = net.polytope
    n = net.fan.n
    i = net.layout.cut_region[k]
    b0, b1 = poly.edge_barycenter(i), poly.edge_barycenter(i + 1)
    mid = polygon_barycenter(region_polygon(net.disk, i))
    p0, p1 = midpoint(mid, b0), midpoint(mid, b1)
    cuts = list(rational_cuts(net.layout))
    cuts[k] = Cut((p0, b1), cuts[k].transposition, (i + 1) % n)
    cuts[m] = Cut((p1, b0), cuts[m].transposition, i)
    return tuple(cuts)


def _cut_perturbations(net, rng):
    """(kind, cuts) pairs, each with one or two of ``net``'s cuts
    rerouted, with ``Fraction`` points."""
    cuts = rational_cuts(net.layout)
    for _ in range(2):
        k = rng.randrange(len(cuts))
        start, end = cuts[k].polyline[0], cuts[k].polyline[-1]
        s1, s2 = net.disk.spoke(rng.randrange(net.fan.n))
        beyond = lerp(start, lerp(s1, s2, Fraction(1, 2)), Fraction(5, 4))
        yield "cut across spoke", _replace_cut(net, k, (start, beyond, end))
        yield "cut along spoke", _replace_cut(
            net, k, (start, lerp(s1, s2, Fraction(1, 3)), end))
        yield "cut leaves polygon", _replace_cut(
            net, k, (start, _through(start, end)[2], end))
        corner = net.polytope.vertex(rng.randrange(net.fan.n))
        yield "cut touches boundary", _replace_cut(net, k,
                                                   (start, corner, end))
        w = rng.choice(rational_walls(net))
        yield "cut across wall", _replace_cut(
            net, k, (start, midpoint(w.polyline[0], w.polyline[1]), end))
        if len(cuts) > 1:
            m = rng.choice([c for c in range(len(cuts)) if c != k])
            yield "cuts cross", _crossing_cuts(net, k, m)


@pytest.mark.parametrize("name", ["p1p1_n4", "fan7_n7"])
def test_perturbed_networks_match_reference(name):
    spec = load(name)
    net, layout = build_network(spec.tms, spec.disk)
    cover = build_cover(spec.disk, layout, 2)
    rng = random.Random(f"contact:{name}")
    kinds, cover_errors, scales = set(), set(), set()
    for kind, bad in _wall_perturbations(net, rng):
        scales.add(bad.layout.scale)
        if assert_same_report(bad, spec.tms, cover):
            kinds.add(kind)
    for kind, cuts in _cut_perturbations(net, rng):
        bad = on_grid(spec.disk, cuts, rational_walls(net))
        scales.add(bad.layout.scale)
        error = assert_same_cover(spec.disk, bad.layout, 2)
        if error:
            cover_errors.add(" ".join(error[1].split()[:2]))
        if error or assert_same_report(bad, spec.tms, cover):
            kinds.add(kind)
    # every perturbation is caught, by each kind of check
    assert kinds == {"crossing", "overlap", "endpoint touch", "vertex touch",
                     "foreign branch point", "spoke touch", "along spoke",
                     "through center", "boundary vertex",
                     "along a sibling arm", "cut across spoke",
                     "cut along spoke", "cut leaves polygon",
                     "cut touches boundary", "cut across wall", "cuts cross"}
    assert cover_errors == {"cut segment", "cut vertex", "cut polylines"}
    # the perturbed points put the layout and network on other grids than
    # the builder's D: some multiples of D, some that D is no multiple of
    assert any(s % layout.scale == 0 and s > layout.scale for s in scales)
    assert any(layout.scale % s for s in scales)
