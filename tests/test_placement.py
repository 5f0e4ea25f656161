"""Integer placement, arm order and drawing against ``Fraction`` references.

``builder._build_geometry`` places every point as an int pair on one scale,
``network.branch_point_arms`` orders a branch point's arms by their grid
directions and ``render.render_svg`` draws from the integer grid.
``support`` keeps all three as they were in ``Fraction`` arithmetic.  The
placed points must be equal, in order, the arms in the same order and every
figure byte-identical, on every realizable fixture, on generated problems
up to (12, 12) and on the perturbed networks of ``test_contact``, whose
points are rational off the lattice.  A network's grid extends its
layout's: the same ints and boxes as one grid scaled from every point at
once.
"""
import random
from fractions import Fraction
from itertools import chain

import pytest

from support import (REALIZABLE, generated_problems, load,
                     reference_branch_point_arms, reference_build_geometry,
                     reference_render_svg)
from test_contact import _cut_perturbations, _wall_perturbations

from toricnets import builder, geom
from toricnets.builder import build_network
from toricnets.network import SpectralNetwork
from toricnets.render import render_svg

def assert_same_placement(spec):
    plans = builder._plan(spec.tms, spec.tms.crossing_cones)
    walls, layout = builder._build_geometry(spec.disk, plans)
    want_walls, want_cuts = reference_build_geometry(spec.disk, plans)
    assert walls == want_walls
    assert layout.cuts == want_cuts
    points = chain(*(w[1] for w in walls), *(c.polyline for c in layout.cuts))
    assert all(type(c) is Fraction for p in points for c in p)


def assert_same_arms(net):
    assert net.arms == tuple(reference_branch_point_arms(net, b)
                             for b in range(len(net.branch_points)))


def assert_same_figures(disk, net, layout):
    assert render_svg(disk, net, layout) == \
        reference_render_svg(disk, net, layout)
    assert render_svg(disk, None, layout) == \
        reference_render_svg(disk, None, layout)
    assert render_svg(disk) == reference_render_svg(disk)


def assert_grid_extends_layout(net):
    """``net.grid`` equals one grid of every point, reusing at k = 1."""
    disk, g, base = net.disk, net.grid, net.layout.grid
    spokes = [disk.spoke(i) for i in range(disk.fan.n)]
    cuts = [c.polyline for c in net.cuts]
    walls = [w.polyline for w in net.walls]
    fresh = geom.Grid(chain(disk.polytope.vertices, *spokes, *cuts, *walls))
    assert g.scale == fresh.scale
    assert g.vertices == tuple(map(fresh.point, disk.polytope.vertices))
    for got, want in zip((g.spokes, g.cuts, g.walls), (spokes, cuts, walls)):
        want = [fresh.polyline(p) for p in want]
        assert got == want
        assert [p.boxes for p in got] == [p.boxes for p in want]
    reused = [a is b for a, b in zip(g.spokes + g.cuts,
                                     base.spokes + base.cuts)]
    assert all(reused) if g.scale == base.scale else not any(reused)
    return g.scale // base.scale


@pytest.mark.parametrize("name", REALIZABLE)
def test_fixture_placement_and_figures_match_reference(name):
    spec = load(name)
    if spec.tms.degree == 2:
        assert_same_placement(spec)
    net, layout = build_network(spec.tms, spec.disk)
    assert_same_arms(net)
    assert_same_figures(spec.disk, net, layout)
    assert_grid_extends_layout(net)


def test_generated_placement_and_figures_match_reference():
    ks, shapes = set(), []
    for shape, spec in generated_problems("placement", 20261019, 5):
        assert_same_placement(spec)
        net, layout = build_network(spec.tms, spec.disk)
        assert_same_arms(net)
        assert_same_figures(spec.disk, net, layout)
        ks.add(assert_grid_extends_layout(net) == 1)
        shapes.append(shape)
    assert shapes[0] == (12, 12)
    # the walls refine the layout's grid on some problems and not on others
    assert ks == {True, False}


@pytest.mark.parametrize("name", ["p1p1_n4", "fan7_n7"])
def test_perturbed_figures_match_reference(name):
    spec = load(name)
    net, layout = build_network(spec.tms, spec.disk)
    rng = random.Random(f"contact:{name}")
    for _, bad in _wall_perturbations(net, rng):
        assert_same_arms(bad)
        assert_same_figures(spec.disk, bad, bad.layout)
        assert_grid_extends_layout(bad)
    for _, bad_layout in _cut_perturbations(net, rng):
        # the cuts drawn from a layout that is not the network's own
        assert_same_figures(spec.disk, net, bad_layout)
        bad = SpectralNetwork(net.walls, bad_layout)
        assert_same_arms(bad)
        assert_same_figures(spec.disk, bad, bad_layout)
        assert_grid_extends_layout(bad)
