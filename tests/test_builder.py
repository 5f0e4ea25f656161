import json
import random
import re
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from support import (FIXTURES, GEN_TOOLKIT, REALIZABLE, boundary_labels,
                     count_calls, generated_problems, load, perfbench_gen,
                     quarter_points_cw, random_two_fold,
                     skewed_fan_and_support)

from toricnets.builder import (_quarter_points_cw, build_network,
                               checked_realizability)
from toricnets.cover import build_cover
from toricnets.errors import (InvariantViolated, NotRealizable, NotTwoFold,
                              ParityViolation)
from toricnets.fans import make_fan
from toricnets.multisection import RealizabilityResult
from toricnets.network import branch_point_arms, validate_network, \
    walls_pairwise_disjoint
from toricnets.schema import parse_problem


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


def _betti_instances():
    """Every realizable fixture, then seeded generated problems on 4 to
    12 rays, each with one odd N (case O) and one even N (case E), up to
    (12, 12)."""
    for name in REALIZABLE:
        yield name, load(name)
    gen = perfbench_gen()
    rng = random.Random("betti one")
    shapes = [(12, 12), (12, 11)] + [
        (n, rng.choice(range(first, n + 1, 2)))
        for n in (4, 5, 6, 8, 10) for first in (3, 4)]
    for n, crossings in shapes:
        doc = gen.generate(n, crossings, f"betti:{rng.randrange(10 ** 6)}",
                           GEN_TOOLKIT)
        yield (n, crossings), parse_problem(json.loads(gen.serialize(doc)))


def test_betti_matches_n_minus_three():
    # the theorem that makes nonabelianize's two holonomy-count checks one
    # decision: b1 of the cover the builder makes (what make_local_system
    # checks against) equals b1 read from the multi-section (what the
    # holonomies stage checks against before the build), #cuts - 1 = N - 3
    from toricnets.cli import _betti_one
    from toricnets.cover import betti_one
    classes = set()
    for name, spec in _betti_instances():
        tms = spec.tms
        layout = build_network(tms, spec.disk)[1]
        b1 = betti_one(layout.cover(tms.degree))
        assert b1 == _betti_one(tms), name
        if tms.degree == 1:
            assert b1 == 0 and layout.cuts == (), name
            continue
        assert b1 == tms.realizability.betti_one == len(layout.cuts) - 1 \
            == len(tms.crossing_cones) - 3, name
        classes.add(tms.cover_class.tag)
    assert classes == {"O", "E"}


def test_builder_on_random_realizable_covers(monkeypatch):
    # every rank-2 build places its network once and validates it once,
    # on the fixed fans and on skewed polygons (``skewed_fan_and_support``):
    # random multi-sections there, and the generator's at random crossing
    # cones with N from 3 to n-1
    import random
    from fractions import Fraction

    from support import random_two_fold, skewed_fan_and_support, \
        skewed_problem
    from toricnets import network
    from toricnets.cover import betti_one, make_local_system
    from toricnets.fans import SupportFunction, disk_model, dual_polytope, \
        make_fan
    from toricnets.multisection import n_genericity
    from toricnets.nonabelian import Factors, loop_identity_check

    validations = count_calls(monkeypatch, network, "validate_network")

    def build_once(tms, disk):
        before = len(validations)
        net, layout = build_network(tms, disk)
        assert len(validations) == before + 1
        cover = build_cover(disk, layout, 2)
        assert validate_network(net, tms, cover).ok
        return net, cover

    fans = [
        (make_fan([(1, 0), (0, 1), (-1, -1)]), [0, 0, -1]),
        (make_fan([(1, 0), (0, 1), (-1, 0), (0, -1)]), [-1, -1, -1, -1]),
        (make_fan([(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)]),
         [0, 0, -1, -2, -2]),
    ]
    rng = random.Random(31337)
    fans += [skewed_fan_and_support(rng, n) for n in (4, 5, 6, 7)]
    for fan, phi_vals in fans:
        disk = disk_model(fan, dual_polytope(fan,
                                             SupportFunction(fan, phi_vals)))
        built, tries = 0, 0
        while built < 5 and tries < 80:
            tries += 1
            tms = random_two_fold(fan, rng)
            if n_genericity(tms) < 3:
                continue
            net, cover = build_once(tms, disk)
            b1 = betti_one(cover)
            hol = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                   for _ in range(b1)]
            ls = make_local_system(cover, hol)
            assert loop_identity_check(Factors(net, tms, cover, ls))
            built += 1
        assert built == 5
    shapes = set()
    for _ in range(24):
        n = rng.randint(4, 12)
        big_n = rng.randint(3, n - 1)
        spec = skewed_problem(rng, n, big_n)
        net, _ = build_once(spec.tms, spec.disk)
        assert len(net.walls) == 3 * (big_n - 2)
        shapes.add((n, big_n))
    assert len(shapes) > 12


def _swap_landings(place, i, j):
    """``place`` with the landings (last point, edge, parameter) of raw
    walls i and j swapped."""
    def defective(disk, plans):
        walls, layout = place(disk, plans)
        walls = list(walls)
        (bi, pi, ei, ti), (bj, pj, ej, tj) = walls[i], walls[j]
        walls[i] = (bi, pi[:-1] + pj[-1:], ej, tj)
        walls[j] = (bj, pj[:-1] + pi[-1:], ei, ti)
        return walls, layout
    return defective


def test_defective_placement_raises_its_first_violation(monkeypatch,
                                                        tmp_path, capsys):
    # p1p1_n4 with the third walls of its two Y-graphs swapping landings:
    # wall 2 then runs from branch point 0 across cut 1.  The build names
    # the first violation's condition, message and witness, and the CLI
    # reports it as a failed build stage
    from toricnets import builder
    from toricnets.cli import main
    spec = load("p1p1_n4")
    monkeypatch.setattr(builder, "_build_geometry",
                        _swap_landings(builder._build_geometry, 2, 5))
    message = ("the placed network violates condition 1: wall 2 meets a "
               "branch cut (witness 2)")
    with pytest.raises(InvariantViolated) as exc:
        build_network(spec.tms, spec.disk)
    assert str(exc.value) == message
    code = main(["build", "--input", str(FIXTURES / "p1p1_n4.json"),
                 "--out", str(tmp_path), "--report", "json"])
    out, err = capsys.readouterr()
    stage = json.loads(out)["stages"][-1]
    assert code == 1
    assert stage == {"name": "build", "status": "fail", "detail": message}
    assert "Traceback" not in out + err
    assert not (tmp_path / "network.json").exists()


def test_build_prunes_segment_pair_tests_on_one_grid(monkeypatch):
    # fan7_n7: 15 walls (50 segments), 5 cuts and 7 spokes.  Testing every
    # segment pair of walls, cuts and spokes takes 1710 exact tests; after
    # the bounding-box reject 114 remain.  The builder places the cuts and
    # walls on the layout's one grid, and the layout puts the disk model
    # on it once (one GridPoints per build).  A build runs two contact
    # sweeps, each boxing its segments once, inline, and bounding each
    # segment's scan by one bisection: the cover's sweep scans 5 cuts and
    # 7 spokes, the network's 50 wall segments, 5 cuts and 7 spokes.
    from toricnets import cover, geom
    spec = load("fan7_n7")
    tests, grids = [], []
    segments_cross = geom.segments_cross
    grid_points = cover.GridPoints.__init__
    scans = count_calls(monkeypatch, geom, "bisect_right")
    sweeps = count_calls(monkeypatch, geom, "contacts")
    monkeypatch.setattr(geom, "segments_cross",
                        lambda *a: tests.append(a) or segments_cross(*a))
    monkeypatch.setattr(
        cover.GridPoints, "__init__",
        lambda self, *a: grids.append(a) or grid_points(self, *a))
    net, layout = build_network(spec.tms, spec.disk)
    assert (len(net.walls), len(layout.cuts)) == (15, 5)
    assert len(tests) == 114
    assert grids == [(spec.disk, layout.scale)]
    assert len(scans) == (5 + 7) + (50 + 5 + 7) == 74
    assert not hasattr(geom, "box")
    assert len(sweeps) == 2
    assert all(isinstance(c, int) for a in tests for p in a for c in p)
    # the layout keeps its grid: building a cover again and validating
    # against it scales no point again
    validate_network(net, spec.tms, build_cover(spec.disk, layout, 2))
    assert len(grids) == 1
    # the new cover sweeps its cuts again; validation reads the sweep the
    # network keeps
    assert len(sweeps) == 3


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


def test_builder_and_validator_read_one_slope_pairing(monkeypatch):
    # the builder picks each wall label from network.slope_pairing and
    # condition (6) checks the label with the same function: negated, it
    # flips every label and the build still validates
    from toricnets import builder, network
    spec = load("fan7_n7")
    net, _ = build_network(spec.tms, spec.disk)
    pairing = network.slope_pairing
    for module in (network, builder):
        monkeypatch.setattr(module, "slope_pairing",
                            lambda *a: -pairing(*a))
    flipped, _ = build_network(spec.tms, spec.disk)
    assert [w.label for w in flipped.walls] == \
        [w.label[::-1] for w in net.walls]


def test_quarter_point_walk_matches_sorted_reference():
    # the waypoints of a long arm: from (start, 1/4) cw to (end, 3/4),
    # stepping the longitude down by 1/2, as the sorted search finds them
    for n in range(3, 21):
        poly = SimpleNamespace(n=n)
        for start in range(n):
            for end in range(n):
                want = quarter_points_cw(poly, start, Fraction(1, 4),
                                         end, Fraction(3, 4))
                assert [(e, Fraction(*t)) for e, t in
                        _quarter_points_cw(n, start, end)] == want, \
                    (n, start, end)


def test_the_parity_gate_never_fires_on_a_valid_multisection():
    # the builder's ParityViolation gate guards the parity theorem, so no
    # valid input reaches it: in case O the sign sequence that
    # intersection_cones reads flips sign under k -> k+n, so its first n
    # pairs change sign an odd number of times; in case E the changes
    # around a cycle are even.  Random multi-sections of each class on P2,
    # P1xP1 and blow-ups of P2, and generated problems, all pass it
    rng = random.Random(30)
    fans = [make_fan([(1, 0), (0, 1), (-1, -1)]),
            make_fan([(1, 0), (0, 1), (-1, 0), (0, -1)])]
    fans += [skewed_fan_and_support(rng, n)[0] for n in (4, 5, 6, 7, 9)]
    sections = [random_two_fold(fan, rng, force_class=tag)
                for fan in fans for tag in "OE" for _ in range(5)]
    sections += [spec.tms for _, spec in generated_problems("parity", 30, 4)]
    tags = Counter()
    for tms in sections:
        tag = tms.cover_class.tag
        assert len(tms.crossing_cones) % 2 == (tag == "O")
        assert checked_realizability(tms) is tms.realizability
        assert tms.realizability.parity_ok
        tags[tag] += 1
    assert tags["O"] >= 35 and tags["E"] >= 35


def test_the_parity_gate_names_the_wrong_parity():
    # reached through a stub: no valid multi-section has the wrong parity
    stub = SimpleNamespace(realizability=RealizabilityResult(False, True, 1),
                           crossing_cones=[0, 1, 2, 3])
    with pytest.raises(ParityViolation, match=r"^N = 4 has the wrong parity "
                       "for this cover class$"):
        checked_realizability(stub)


def test_labels_that_do_not_alternate_name_the_branch_point(monkeypatch):
    # every wall labelled (0, 1), and a validator whose slope condition
    # accepts that label: the alternation gate is the one left to refuse
    from toricnets import builder, network
    spec = load("fan5_n5")
    monkeypatch.setattr(builder, "_label_from_slopes", lambda *a: (0, 1))
    monkeypatch.setattr(network, "slope_pairing", lambda *a: 1)
    with pytest.raises(InvariantViolated, match=re.escape(
            "branch point 0 labels [(0, 1), (0, 1), (0, 1)] do not "
            "alternate")):
        build_network(spec.tms, spec.disk)


def test_a_wall_landing_on_a_barycenter_fails_validation(monkeypatch):
    # the builder reads no landing parameter as a check: a first arm
    # planned to land on its edge's barycenter is refused by the
    # validator, whose condition 6 finds no half-edge there
    from toricnets import builder
    spec = load("fan5_n5")
    plan, reports = builder._plan, []

    def recorded(*args):
        reports.append(validate_network(*args))
        return reports[-1]

    monkeypatch.setattr(builder, "_plan", lambda tms, vees: [
        p._replace(w1_t=builder.HALF) for p in plan(tms, vees)])
    monkeypatch.setattr(builder, "validate_network", recorded)
    with pytest.raises(InvariantViolated, match="violates condition"):
        build_network(spec.tms, spec.disk)
    assert ("6", "wall 0 endpoint is not in the relative interior of a "
            "boundary half-edge") in [(v.condition, v.message)
                                      for v in reports[0].violations]
