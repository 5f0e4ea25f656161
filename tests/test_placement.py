"""Integer placement, arm order and drawing against ``Fraction`` references.

``builder._build_geometry`` places every point as an int pair on one scale
D and hands the ints and D to the layout, ``network.branch_point_arms``
orders a branch point's arms by their grid directions and
``render.render_svg`` draws from the integer grid.  ``support`` keeps all
three as they were in ``Fraction`` arithmetic.  The rational points the
grid points stand for must be equal, in order, the arms in the same order
and every figure byte-identical, on every realizable fixture, on generated
problems up to (12, 12) and on the perturbed networks of ``test_contact``,
whose points are rational off the built layout's grid.

A built network written out and parsed back as a document's network sits
on the least grid of its points, which may be coarser than D: its
``network.json``, validation report and figure are the built network's.
The placement proof holds for any strictly decreasing depths in (0, 1):
the reference placement at seeded random depths, written as a problem
document and parsed, validates clean against the package and the
reference, and its cover builds.
"""
import json
import random
from fractions import Fraction

import pytest

from support import (FIXTURES, REALIZABLE, generated_documents, geometry_doc,
                     load, on_grid, rational, rational_cuts, rational_walls,
                     reference_branch_point_arms, reference_build_geometry,
                     reference_render_svg, reference_validate_network)
from test_contact import _cut_perturbations, _wall_perturbations

from toricnets import builder, schema
from toricnets.builder import build_network
from toricnets.network import validate_network
from toricnets.render import render_svg


def assert_same_placement(spec):
    plans = builder._plan(spec.tms, spec.tms.crossing_cones)
    walls, layout = builder._build_geometry(spec.disk, plans)
    want_walls, want_cuts = reference_build_geometry(spec.disk, plans)
    assert [(bi, rational(layout, poly), e, Fraction(*t))
            for bi, poly, e, t in walls] == want_walls
    assert rational_cuts(layout) == want_cuts
    points = [p for w in walls for p in w[1]] + \
        [p for c in layout.cuts for p in c.polyline]
    assert all(type(c) is int for p in points for c in p)


def assert_same_arms(net):
    assert net.arms == tuple(reference_branch_point_arms(net, b)
                             for b in range(len(net.branch_points)))


def assert_same_figures(disk, net, layout):
    assert render_svg(disk, net, layout) == \
        reference_render_svg(disk, net, layout)
    assert render_svg(disk) == reference_render_svg(disk)


def _dump(doc):
    return json.dumps(doc, sort_keys=True, indent=2)


def _fixture_document(name):
    return json.loads((FIXTURES / f"{name}.json").read_text())


def assert_round_trip(problem, spec, net, layout):
    """The network built from the ``problem`` document (parsed: ``spec``),
    parsed back as its network, gives the same bytes, report and figure;
    returns the two scales."""
    doc = schema.emit_network(net)
    parsed = schema.parse_problem(dict(problem, network=doc))
    again = parsed.network
    assert _dump(schema.emit_network(again)) == _dump(doc)
    cover = layout.cover(spec.tms.degree)
    assert validate_network(again, spec.tms,
                            again.layout.cover(spec.tms.degree)) == \
        validate_network(net, spec.tms, cover)
    assert render_svg(parsed.disk, again, again.layout) == \
        render_svg(spec.disk, net, layout)
    assert layout.scale % again.layout.scale == 0
    return layout.scale, again.layout.scale


def _random_depths(rng, count):
    """``count`` strictly decreasing seeded rationals in (0, 1)."""
    depths = set()
    while len(depths) < count:
        den = rng.randint(2, 60)
        depths.add(Fraction(rng.randint(1, den - 1), den))
    return sorted(depths, reverse=True)


def assert_placed_valid_at_random_depths(problem, spec, net, rng):
    """The reference placement at random depths, written into the
    ``problem`` document (parsed: ``spec``) and parsed, validates clean
    and builds its cover."""
    plans = builder._plan(spec.tms, spec.tms.crossing_cones)
    depths = _random_depths(rng, len(plans))
    walls_raw, cuts = reference_build_geometry(spec.disk, plans, depths)
    walls = [w._replace(polyline=poly) for w, (_, poly, _, _) in
             zip(rational_walls(net), walls_raw, strict=True)]
    parsed = schema.parse_problem(json.loads(json.dumps(
        dict(problem, network=geometry_doc(cuts, walls)))))
    cover = parsed.network.layout.cover(2)
    assert validate_network(parsed.network, parsed.tms, cover).ok
    assert reference_validate_network(parsed.network, parsed.tms, cover).ok
    return depths


@pytest.mark.parametrize("name", REALIZABLE)
def test_fixture_placement_and_figures_match_reference(name):
    problem = _fixture_document(name)
    spec = schema.parse_problem(problem)
    if spec.tms.degree == 2:
        assert_same_placement(spec)
    net, layout = build_network(spec.tms, spec.disk)
    assert_same_arms(net)
    assert_same_figures(spec.disk, net, layout)
    assert_round_trip(problem, spec, net, layout)


def test_generated_placement_and_figures_match_reference():
    coarser, shapes = set(), []
    for shape, problem in generated_documents("placement", 20261019, 5):
        spec = schema.parse_problem(problem)
        assert_same_placement(spec)
        net, layout = build_network(spec.tms, spec.disk)
        assert_same_arms(net)
        assert_same_figures(spec.disk, net, layout)
        built, parsed = assert_round_trip(problem, spec, net, layout)
        coarser.add(parsed < built)
        shapes.append(shape)
    assert shapes[0] == (12, 12)
    # the parsed grid is a proper divisor of D on some problems only
    assert coarser == {True, False}


def test_placement_is_valid_at_random_depths():
    # the builder's proof assumes only strictly decreasing depths in
    # (0, 1): place at seeded random ones, on every realizable rank-2
    # fixture and on generated problems up to (12, 12)
    rng = random.Random("depths")
    problems = [_fixture_document(name) for name in REALIZABLE]
    problems = [p for p in problems if p["multisection"]["degree"] == 2]
    problems += [p for _, p in generated_documents("depths", 20261020, 5)]
    for problem in problems:
        spec = schema.parse_problem(problem)
        net, _ = build_network(spec.tms, spec.disk)
        depths = assert_placed_valid_at_random_depths(problem, spec, net, rng)
        assert depths != [Fraction(1, 3 * 2 ** d) for d in range(len(depths))]


@pytest.mark.parametrize("name", ["p1p1_n4", "fan7_n7"])
def test_perturbed_figures_match_reference(name):
    spec = load(name)
    net, layout = build_network(spec.tms, spec.disk)
    rng = random.Random(f"contact:{name}")
    for _, bad in _wall_perturbations(net, rng):
        assert_same_arms(bad)
        assert_same_figures(spec.disk, bad, bad.layout)
    for _, cuts in _cut_perturbations(net, rng):
        bad = on_grid(spec.disk, cuts, rational_walls(net))
        assert_same_arms(bad)
        assert_same_figures(spec.disk, bad, bad.layout)
