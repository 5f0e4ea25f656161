import pytest

from support import boundary_labels, count_calls, load

from toricnets.builder import build_network
from toricnets.cover import build_cover
from toricnets.errors import NotRealizable, NotTwoFold
from toricnets.network import branch_point_arms, validate_network, \
    walls_pairwise_disjoint


def test_p2_n3_build(p2, p2_built):
    net, layout, cover = p2_built
    assert len(layout.branch_points) == 1
    assert len(net.walls) == 3
    assert len(layout.cuts) == 1
    assert validate_network(net, p2.tms, cover).ok


def test_fan5_n5_build(fan5, fan5_built):
    net, layout, cover = fan5_built
    assert len(layout.branch_points) == 3
    assert len(net.walls) == 9
    assert len(layout.cuts) == 3
    assert validate_network(net, fan5.tms, cover).ok


def test_p1p1_n4_build(p1p1, p1p1_built):
    net, layout, cover = p1p1_built
    assert len(layout.branch_points) == 2
    assert len(net.walls) == 6
    assert validate_network(net, p1p1.tms, cover).ok


def test_not_realizable_below_three(p2_n1, split_e):
    with pytest.raises(NotRealizable):
        build_network(p2_n1.tms, p2_n1.disk)
    with pytest.raises(NotRealizable):
        build_network(split_e.tms, split_e.disk)


def test_endpoint_labels_match_wall_labels(p2, p2_built, fan5, fan5_built):
    for spec, (net, layout, cover) in [(p2, p2_built), (fan5, fan5_built)]:
        labeling = boundary_labels(spec.tms, spec.disk, layout)
        for w in net.walls:
            assert labeling.label_of(w.end_edge, w.end_cone) == w.label


def test_boundary_label_flip_count(p2, p2_built, fan5, fan5_built,
                                   p1p1, p1p1_built):
    # flips at the N intersection vertices plus the N-2 cut landings
    for spec, (net, layout, cover), n_value in [
            (p2, p2_built, 3), (fan5, fan5_built, 5), (p1p1, p1p1_built, 4)]:
        labeling = boundary_labels(spec.tms, spec.disk, layout)
        assert len(labeling.entries) == 2 * spec.fan.n
        assert labeling.flip_count() == n_value + (n_value - 2)


def test_walls_disjoint_and_labels_alternate(fan5, fan5_built):
    net, layout, cover = fan5_built
    assert walls_pairwise_disjoint(net)
    for b in range(len(layout.branch_points)):
        labels = [w.label for w in branch_point_arms(net, b)]
        assert labels[0] == labels[2] != labels[1]


def test_builder_determinism(p2):
    net1, layout1 = build_network(p2.tms, p2.disk)
    net2, layout2 = build_network(p2.tms, p2.disk)
    assert [w.polyline for w in net1.walls] == [w.polyline for w in net2.walls]
    assert [w.label for w in net1.walls] == [w.label for w in net2.walls]
    assert [c.polyline for c in layout1.cuts] == \
        [c.polyline for c in layout2.cuts]


def test_build_rejects_rank_three():
    from toricnets.multisection import (LiftedCone, LiftedRay,
                                        TropicalMultiSection)
    spec = load("p2_n3")
    fan = spec.fan
    cones = [LiftedCone(f"t{i}_{s}", i, (s, s))
             for i in range(3) for s in range(3)]
    rays = [LiftedRay(i, f"t{(i - 1) % 3}_{s}", f"t{i}_{s}")
            for i in range(3) for s in range(3)]
    tms = TropicalMultiSection(fan, 3, cones, rays)
    with pytest.raises(NotTwoFold):
        build_network(tms, spec.disk)


def test_betti_matches_n_minus_three(p2, p2_built, p1p1, p1p1_built,
                                     fan5, fan5_built):
    from toricnets.cover import betti_one
    from toricnets.multisection import n_genericity
    for spec, (net, layout, cover) in [(p2, p2_built), (p1p1, p1p1_built),
                                       (fan5, fan5_built)]:
        assert betti_one(cover) == n_genericity(spec.tms) - 3


def test_builder_on_random_realizable_covers():
    import random
    from fractions import Fraction

    from support import random_two_fold
    from toricnets.cover import betti_one, make_local_system
    from toricnets.fans import SupportFunction, disk_model, dual_polytope, \
        make_fan
    from toricnets.multisection import n_genericity
    from toricnets.nonabelian import Factors, loop_identity_check

    fans = [
        (make_fan([(1, 0), (0, 1), (-1, -1)]), [0, 0, -1]),
        (make_fan([(1, 0), (0, 1), (-1, 0), (0, -1)]), [-1, -1, -1, -1]),
        (make_fan([(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)]),
         [0, 0, -1, -2, -2]),
    ]
    rng = random.Random(31337)
    for fan, phi_vals in fans:
        disk = disk_model(fan, dual_polytope(fan,
                                             SupportFunction(fan, phi_vals)))
        built, tries = 0, 0
        while built < 5 and tries < 80:
            tries += 1
            tms = random_two_fold(fan, rng)
            if n_genericity(tms) < 3:
                continue
            net, layout = build_network(tms, disk)
            cover = build_cover(disk, layout, 2)
            assert validate_network(net, tms, cover).ok
            b1 = betti_one(cover)
            hol = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                   for _ in range(b1)]
            ls = make_local_system(cover, hol)
            assert loop_identity_check(Factors(net, tms, cover, ls))
            built += 1
        assert built == 5


def test_build_prunes_segment_pair_tests_on_one_grid(monkeypatch):
    # fan7_n7: 15 walls (50 segments), 5 cuts and 7 spokes.  Testing every
    # segment pair of walls, cuts and spokes takes 1710 exact tests; after
    # the bounding-box reject 114 remain.  The points are scaled onto the
    # integer grid once for the cover and once for the network.
    from toricnets import cover, geom
    spec = load("fan7_n7")
    tests, grids = [], []
    segments_cross = geom.segments_cross
    grid_points = cover.GridPoints.__init__
    monkeypatch.setattr(geom, "segments_cross",
                        lambda *a: tests.append(a) or segments_cross(*a))
    monkeypatch.setattr(
        cover.GridPoints, "__init__",
        lambda self, *a: grids.append(a) or grid_points(self, *a))
    net, layout = build_network(spec.tms, spec.disk)
    assert (len(net.walls), len(layout.cuts)) == (15, 5)
    assert len(tests) == 114
    assert [len(walls) for _, walls in grids] == [0, 15]
    assert all(isinstance(c, int) for a in tests for p in a for c in p)
    # the network keeps its grid: validating it again scales only the
    # points of the new cover
    validate_network(net, spec.tms, build_cover(spec.disk, layout, 2))
    assert [len(walls) for _, walls in grids] == [0, 15, 0]


def test_build_matches_sheets_and_lifts_once(monkeypatch):
    # the builder labels the walls from the sheet/lift map of the cover it
    # validates against; validation reads the same map from the cover
    from toricnets import cover
    spec = load("fan7_n7")
    lifts = count_calls(monkeypatch, cover, "sheet_lift_map")
    net, layout = build_network(spec.tms, spec.disk)
    assert len(lifts) == 1
    assert layout.cover(2).lift_map(spec.tms) is \
        layout.cover(2).lift_map(spec.tms)
    assert len(lifts) == 1
