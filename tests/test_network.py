import random
from fractions import Fraction

import pytest

from support import chambers, count_calls, load, reference_validate_network

from toricnets import network
from toricnets.builder import build_network, empty_network
from toricnets.cover import build_cover
from toricnets.errors import NotSupported
from toricnets.geom import lerp
from toricnets.network import (SpectralNetwork, Wall, branch_point_arms,
                               enumerate_solitons, track_events,
                               validate_network, walls_pairwise_disjoint)


def test_empty_network_over_section_is_valid(r1):
    net, layout = empty_network(r1.disk)
    cover = build_cover(r1.disk, layout, 1)
    rep = validate_network(net, r1.tms, cover)
    assert rep.ok


def test_builder_output_is_valid(p2_built, p2):
    net, layout, cover = p2_built
    rep = validate_network(net, p2.tms, cover)
    assert rep.ok


def test_wall_ending_at_lattice_vertex_violates_condition_6(p2_built, p2):
    net, layout, cover = p2_built
    bad_wall = net.walls[0]
    vertex = p2.polytope.vertex(0)
    tampered = Wall(bad_wall.id, (bad_wall.polyline[0], vertex),
                    bad_wall.label, bad_wall.start_branch,
                    bad_wall.end_edge, bad_wall.end_cone)
    walls = [tampered] + [w for w in net.walls if w.id != bad_wall.id]
    net2 = SpectralNetwork(walls, net.layout)
    rep = validate_network(net2, p2.tms, cover)
    assert any(v.condition == "6" for v in rep.violations)


def test_wall_back_through_its_own_branch_point_violates_condition_5(
        p2_built, p2):
    # only the wall's start may lie on it: a wall that turns back through
    # its branch point passes through it, on its second segment
    net, layout, cover = p2_built
    w = net.walls[0]
    out = lerp(w.start, w.polyline[1], Fraction(1, 100))
    back = (2 * w.start[0] - out[0], 2 * w.start[1] - out[1])
    tampered = Wall(w.id, (w.start, out, back), w.label, w.start_branch,
                    w.end_edge, w.end_cone)
    net2 = SpectralNetwork([tampered] + list(net.walls[1:]), net.layout)
    violations = validate_network(net2, p2.tms, cover).violations
    assert [(v.condition, v.message, v.witness) for v in violations] == \
        [(v.condition, v.message, v.witness) for v in
         reference_validate_network(net2, p2.tms, cover).violations]
    assert ("5", f"wall {w.id} passes through a branch point") in \
        [(v.condition, v.message) for v in violations]


def test_flipped_label_violates_condition_6(p2_built, p2):
    net, layout, cover = p2_built
    w = net.walls[0]
    tampered = Wall(w.id, w.polyline, (w.label[1], w.label[0]),
                    w.start_branch, w.end_edge, w.end_cone)
    walls = [tampered] + [x for x in net.walls if x.id != w.id]
    net2 = SpectralNetwork(walls, net.layout)
    rep = validate_network(net2, p2.tms, cover)
    assert any(v.condition == "6" for v in rep.violations)


def test_chambers_counts(p2, p2_built, fan5_built):
    net0, layout0 = empty_network(p2.disk)
    assert len(chambers(net0)) == 1

    net1, _, _ = p2_built
    assert len(chambers(net1)) == 3  # one Y-graph

    net3, _, _ = fan5_built
    assert len(chambers(net3)) == 2 * 3 + 1  # three Y-graphs


def test_chamber_adjacency_crosses_walls(p2_built):
    net, _, _ = p2_built
    chs = chambers(net)
    wall_ids = {w.id for w in net.walls}
    seen = set()
    for ch in chs:
        for other, wall in ch.adjacent:
            assert wall in wall_ids
            seen.add(wall)
    assert seen == wall_ids


def test_solitons_one_per_builder_wall(p2_built):
    net, layout, cover = p2_built
    for w in net.walls:
        sols = enumerate_solitons(net, w)
        assert len(sols) == 1
        s = sols[0]
        assert (s.source_sheet, s.target_sheet) == tuple(w.label)
        path = s.transport_path(cover)
        # exactly one sheet change, at the branch-point encirclement
        states = path.states(cover)
        assert states[0][1] == w.label[0]
        assert states[-1][1] == w.label[1]
        assert len(path.crossings) == 1 and path.crossings[0].kind == "cut"


def test_soliton_windings_are_arm_positions(fan5_built):
    net, layout, cover = fan5_built
    for b in range(len(layout.branch_points)):
        arms = branch_point_arms(net, b)
        turns = [enumerate_solitons(net, w)[0].turns for w in arms]
        assert turns == [0, 1, 2]


def test_crossed_walls_are_rejected(p2, p2_built):
    net, layout, cover = p2_built
    # an artificial wall crossing wall 0 transversely at one of its
    # segment midpoints
    w0 = net.walls[0]
    a = w0.polyline[0]
    b = w0.polyline[1]
    mid = lerp(a, b, Fraction(1, 2))
    off1 = lerp(mid, p2.disk.center, Fraction(1, 5))
    # reflect through mid to get a crossing segment
    off2 = (2 * mid[0] - off1[0], 2 * mid[1] - off1[1])
    crossing = Wall(99, (off1, off2), (0, 1), None, w0.end_edge, w0.end_cone)
    net2 = SpectralNetwork(list(net.walls) + [crossing], net.layout)
    assert not walls_pairwise_disjoint(net2)
    with pytest.raises(NotSupported):
        enumerate_solitons(net2, net2.walls[0])
    with pytest.raises(NotSupported):
        chambers(net2)
    rep = validate_network(net2, p2.tms, cover)
    assert not rep.ok


def test_track_events_cover_everything(p2_built, p2):
    net, layout, cover = p2_built
    events = track_events(net)
    kinds = {}
    for ev in events:
        kinds[ev.kind] = kinds.get(ev.kind, 0) + 1
    assert kinds == {"wall": 3, "spoke": 3, "cut": 1}
    keys = [ev.key for ev in events]
    assert keys == sorted(keys)


def test_two_y_graphs_give_five_chambers(p1p1_built):
    net, _, _ = p1p1_built
    assert len(chambers(net)) == 5


def test_disjointness_verdict_is_computed_once_per_network(p1p1, monkeypatch):
    # so are the track events and the arm order of every branch point
    import toricnets.network as network
    from toricnets.builder import build_network
    from toricnets.cover import make_local_system
    from toricnets.nonabelian import (Factors, kaneyama_cocycle,
                                      loop_identity_check)

    seen = {"disjoint": [], "events": [], "arms": []}
    check = network.walls_pairwise_disjoint
    events = network.track_events
    arms = network.branch_point_arms
    monkeypatch.setattr(network, "walls_pairwise_disjoint",
                        lambda net: seen["disjoint"].append(net) or check(net))
    monkeypatch.setattr(network, "track_events",
                        lambda net: seen["events"].append(net) or events(net))
    monkeypatch.setattr(network, "branch_point_arms",
                        lambda net, b: seen["arms"].append(b) or arms(net, b))
    net, layout = build_network(p1p1.tms, p1p1.disk)
    cover = build_cover(p1p1.disk, layout, 2)
    ls = make_local_system(cover, [Fraction(3)])
    assert loop_identity_check(Factors(net, p1p1.tms, cover, ls))
    kaneyama_cocycle(net, p1p1.tms, cover, ls)
    network.track_path(net, 0, 2, ccw=False)
    assert validate_network(net, p1p1.tms, cover).ok
    chambers(net)
    assert seen == {"disjoint": [net], "events": [net], "arms": [0, 1]}
    with pytest.raises(AttributeError):
        net.walls = ()


def _end_claims(net, rng):
    """(kind, wall index, wall) triples: one wall's end or its claimed
    landing (edge, cone) changed."""
    poly, n = net.polytope, net.fan.n
    for _ in range(3):
        i = rng.randrange(len(net.walls))
        w = net.walls[i]
        e, cone = w.end_edge, w.end_cone
        other_cone = e if cone == (e - 1) % n else (e - 1) % n
        other_edge = rng.choice([k for k in range(n) if k != e])

        def claim(edge, end_cone, end=w.end):
            return Wall(w.id, w.polyline[:-1] + (end,), w.label,
                        w.start_branch, edge, end_cone)

        yield "wrong edge", i, claim(other_edge, cone)
        yield "wrong edge and cone", i, claim(other_edge, other_edge)
        yield "wrong cone", i, claim(e, other_cone)
        yield "edge out of range", i, claim(e + n, cone)
        yield "negative edge", i, claim(e - n, cone)
        a, b = poly.edge(e)
        yield "at a vertex", i, claim(e, cone, end=b)
        yield "at the start vertex", i, claim(e, cone, end=a)
        yield "at the barycenter", i, claim(e, cone, end=lerp(a, b,
                                                              Fraction(1, 2)))
        yield "other half", i, claim(e, cone, end=lerp(b, a,
                                                       Fraction(1, 5)))
        c, d = poly.edge(other_edge)
        yield "on another edge", i, claim(e, cone, end=lerp(c, d,
                                                            Fraction(1, 3)))
        yield "off the boundary", i, claim(
            e, cone, end=lerp(w.polyline[-2], w.end, Fraction(1, 2)))


READ_ON_CLAIM = {"wrong cone", "other half"}


@pytest.mark.parametrize("name", ["p2_n3", "p1p1_n4", "fan7_n7"])
def test_claimed_landings_match_reference(name, monkeypatch):
    # condition 6 reads each wall's end on its claimed edge and searches
    # the boundary only when that claim fails; its report must be the
    # search's, message for message, for every kind of wrong claim
    import random

    from support import count_calls, load
    from toricnets import network
    from toricnets.builder import build_network
    spec = load(name)
    net, layout = build_network(spec.tms, spec.disk)
    cover = build_cover(spec.disk, layout, 2)
    rng = random.Random(f"claims:{name}")
    kinds = set()
    for kind, i, wall in _end_claims(net, rng):
        walls = list(net.walls)
        walls[i] = wall
        bad = SpectralNetwork(walls, net.layout)
        with monkeypatch.context() as m:
            searches = count_calls(m, network, "half_edge_of_boundary_point")
            got = [(v.condition, v.message, v.witness)
                   for v in validate_network(bad, spec.tms, cover).violations]
        want = [(v.condition, v.message, v.witness) for v in
                reference_validate_network(bad, spec.tms, cover).violations]
        assert got == want, kind
        # one search, for the changed wall, unless its end lies inside a
        # half-edge of its claimed edge: then that half-edge is read
        assert len(searches) == (kind not in READ_ON_CLAIM), kind
        if any(c == "6" and f"wall {wall.id} endpoint" in msg
               for c, msg, _ in got):
            kinds.add(kind)
    # every wrong claim is reported
    assert kinds == {"wrong edge", "wrong edge and cone", "wrong cone",
                     "edge out of range", "negative edge", "at a vertex",
                     "at the start vertex", "at the barycenter",
                     "other half", "on another edge", "off the boundary"}
