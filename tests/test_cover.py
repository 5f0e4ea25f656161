from fractions import Fraction

import pytest

from support import (RefDisk, generator_loops, is_closed, lerp, on_grid,
                     parallel_transport, rational, rows_den)

from toricnets import nonabelian
from toricnets.builder import empty_network
from toricnets.cover import (BranchCutLayout, Crossing, Cut, GridPoints,
                             SurfacePath, betti_one, build_cover,
                             make_local_system, sheet_lift_map)
from toricnets.errors import (CutEndpointNotBarycenter, CutHitsRay,
                              InvalidPath, InvariantViolated, NoSharedLift,
                              NotTwoFold, OverlappingCuts, WrongCount,
                              ZeroHolonomy)
from toricnets.fans import SupportFunction, disk_model, dual_polytope, make_fan
from toricnets.laurent import TPoly
from toricnets.network import Soliton


def p1p1_disk():
    """The fan, the oracle's ``RefDisk`` and the package's disk model."""
    fan = make_fan([(1, 0), (0, 1), (-1, 0), (0, -1)])
    phi = SupportFunction(fan, [-1, -1, -1, -1])
    return fan, RefDisk(fan, phi), disk_model(fan, dual_polytope(fan, phi))


def straight_cut(ref, region, edge, depth=Fraction(1, 4)):
    """Cut hanging below the landing barycenter of its region, with the
    ``Fraction`` points of a ``RefDisk`` (``on_grid`` puts it on a
    layout's grid)."""
    poly = ref.polytope
    target = poly.edge_barycenter(edge)
    anchor = lerp(poly.vertex(region), target, Fraction(1, 2))
    b = lerp(anchor, ref.center, depth)
    return Cut((b, target), (0, 1), edge)


def test_single_branch_point_cover():
    fan, ref, disk = p1p1_disk()
    cut = straight_cut(ref, 0, 1)
    cover = build_cover(disk, on_grid(disk, (cut,)).layout, 2)
    assert len(cover.sheet_orbits) == 1
    assert betti_one(cover) == 0


def test_two_branch_points_cover():
    fan, ref, disk = p1p1_disk()
    c1 = straight_cut(ref, 0, 1)
    c2 = straight_cut(ref, 2, 3)
    cover = build_cover(disk, on_grid(disk, (c1, c2)).layout, 2)
    assert len(cover.sheet_orbits) == 1
    assert betti_one(cover) == 1


def test_three_branch_points_cover():
    fan, ref, disk = p1p1_disk()
    cuts = [straight_cut(ref, 0, 1), straight_cut(ref, 1, 2),
            straight_cut(ref, 2, 3)]
    cover = build_cover(disk, on_grid(disk, cuts).layout, 2)
    assert betti_one(cover) == 2


def test_no_branch_points_splits():
    fan, ref, disk = p1p1_disk()
    cover = build_cover(disk, BranchCutLayout(disk, (), disk.scale), 2)
    assert len(cover.sheet_orbits) == 2
    assert betti_one(cover) == 0


def test_cover_is_built_on_the_layouts_disk_model():
    # the layout owns its disk model, and its branch points are its cuts'
    # first points
    fan, ref, disk = p1p1_disk()
    cut = straight_cut(ref, 0, 1)
    layout = on_grid(disk, (cut,)).layout
    assert layout.branch_points == (layout.cuts[0].polyline[0],)
    assert rational(layout, layout.branch_points) == (cut.polyline[0],)
    assert build_cover(disk, layout, 2).cut_region == layout.cut_region == (0,)
    with pytest.raises(InvariantViolated):
        build_cover(p1p1_disk()[2], layout, 2)


@pytest.mark.parametrize("name, scale", [("p2_n3", 6), ("fan7_n7", 14)])
def test_a_scale_that_does_not_clear_the_disk_model_raises(name, scale):
    # the disk model's scale is the least common denominator of its
    # coordinates: the center's divide n, the barycenters' 2.  A layout on
    # a grid that is not a multiple of it is refused, not truncated
    from support import load
    disk = load(name).disk
    assert disk.scale == scale
    assert GridPoints(disk, 2 * scale).vertices == \
        tuple((x * 2 * scale, y * 2 * scale)
              for x, y in disk.polytope.vertices)
    for coarse in (1, scale // 2):
        with pytest.raises(InvariantViolated,
                           match=f"^scale {coarse} is not a multiple of "
                                 f"the disk model's scale {scale}$"):
            BranchCutLayout(disk, (), coarse).grid


def test_cut_must_end_at_barycenter():
    fan, ref, disk = p1p1_disk()
    target = lerp(*ref.polytope.edge(1), Fraction(1, 3))
    b = lerp(target, ref.center, Fraction(1, 4))
    cut = Cut((b, target), (0, 1), 1)
    with pytest.raises(CutEndpointNotBarycenter):
        build_cover(disk, on_grid(disk, (cut,)).layout, 2)


def test_cut_needs_two_points():
    # a document's cut needs two points (a SchemaError): a layout made in
    # code is checked again when its cover is built
    fan, ref, disk = p1p1_disk()
    barycenter = GridPoints(disk, disk.scale).spokes[1][-1]
    for polyline in ((), (barycenter,)):
        cut = Cut(polyline, (0, 1), 1)
        layout = BranchCutLayout(disk, (cut,), disk.scale)
        with pytest.raises(CutEndpointNotBarycenter):
            build_cover(disk, layout, 2)


def test_cut_may_not_cross_a_spoke():
    fan, ref, disk = p1p1_disk()
    # from inside region 2 straight to the barycenter of edge 1: crosses
    # the spoke of ray 2
    target = ref.polytope.edge_barycenter(1)
    b = lerp(ref.polytope.vertex(2), ref.center, Fraction(1, 4))
    cut = Cut((b, target), (0, 1), 1)
    with pytest.raises(CutHitsRay):
        build_cover(disk, on_grid(disk, (cut,)).layout, 2)


def test_cuts_may_not_share_a_barycenter():
    fan, ref, disk = p1p1_disk()
    c1 = straight_cut(ref, 0, 1)
    c2 = straight_cut(ref, 1, 1)
    # the two cuts touch at the barycenter, and that pair is named by
    # the barycenter they share
    with pytest.raises(OverlappingCuts,
                       match="two cuts land on the barycenter of edge 1"):
        build_cover(disk, on_grid(disk, (c1, c2)).layout, 2)


def two_cut_cover():
    fan, ref, disk = p1p1_disk()
    c1 = straight_cut(ref, 0, 1)
    c2 = straight_cut(ref, 2, 3)
    return build_cover(disk, on_grid(disk, (c1, c2)).layout, 2)


def test_transport_constant_path_is_one():
    cover = two_cut_cover()
    ls = make_local_system(cover, [Fraction(5)])
    path = SurfacePath(0, 0, [])
    assert parallel_transport(ls, path) == 1


def test_transport_reversal_inverts():
    cover = two_cut_cover()
    ls = make_local_system(cover, [Fraction(5)])
    path = SurfacePath(0, 0, [Crossing("cut", 0), Crossing("spoke", 1),
                              Crossing("spoke", 2), Crossing("cut", 1)])
    there = parallel_transport(ls, path)
    back = parallel_transport(ls, path, reverse=True)
    assert there == Fraction(1, 5)
    assert there * back == 1


def test_generator_loop_holonomy():
    cover = two_cut_cover()
    ls = make_local_system(cover, [Fraction(5)])
    loops = generator_loops(cover)
    assert len(loops) == 1
    assert is_closed(loops[0], cover)
    assert parallel_transport(ls, loops[0]) == 5


def test_symbolic_generator_loop_holonomy(fan7_built):
    # transport around generator loop k is the symbol t_{k+1} itself, as an
    # element of Q[t^±], not only after substituting numbers for the t's
    fan, ref, disk = p1p1_disk()
    cuts = [straight_cut(ref, 0, 1), straight_cut(ref, 1, 2),
            straight_cut(ref, 2, 3)]
    three_cut = build_cover(disk, on_grid(disk, cuts).layout, 2)
    for cover in (two_cut_cover(), three_cut, fan7_built[2]):
        t = TPoly.symbols(betti_one(cover))
        ls = make_local_system(cover, t)
        loops = generator_loops(cover)
        assert len(loops) == len(t) >= 1
        for k, loop in enumerate(loops):
            assert is_closed(loop, cover)
            hol = parallel_transport(ls, loop)
            assert isinstance(hol, TPoly) and hol == t[k]
            assert parallel_transport(ls, loop, reverse=True) * hol == 1


def test_make_local_system_errors():
    cover = two_cut_cover()
    with pytest.raises(WrongCount):
        make_local_system(cover, [])
    with pytest.raises(WrongCount):
        make_local_system(cover, [Fraction(1), Fraction(2)])
    with pytest.raises(ZeroHolonomy):
        make_local_system(cover, [0])


def test_no_gauge_outside_connected_two_fold_and_rank_one_covers():
    # the gauge covers one- and two-sheeted covers, and no other cover is
    # built: three sheets joined by the cuts (0, 1) and (1, 2) are refused
    # as not two-fold before any cover exists, and on two sheets the swap
    # (1, 2) names a sheet that is not there.  One sheet has no swap at all
    fan, ref, disk = p1p1_disk()
    cuts = [straight_cut(ref, 0, 1),
            straight_cut(ref, 2, 3)._replace(transposition=(1, 2))]
    layout = on_grid(disk, cuts).layout
    for r in (3, 4):
        with pytest.raises(NotTwoFold, match="one or two sheets"):
            build_cover(disk, layout, r)
        with pytest.raises(NotTwoFold, match="one or two sheets"):
            layout.cover(r)
    with pytest.raises(OverlappingCuts, match="not a valid swap"):
        build_cover(disk, layout, 2)
    with pytest.raises(OverlappingCuts, match="not a valid swap"):
        build_cover(disk, on_grid(disk, cuts[:1]).layout, 1)
    # both orders of the one valid swap are accepted
    flipped = [c._replace(transposition=(1, 0)) for c in cuts]
    assert len(build_cover(disk, on_grid(disk, flipped).layout, 2).cuts) == 2


def test_trivial_local_system_on_trivial_cover():
    fan, ref, disk = p1p1_disk()
    cover = build_cover(disk, BranchCutLayout(disk, (), disk.scale), 2)
    ls = make_local_system(cover, [])
    assert parallel_transport(ls, SurfacePath(1, 0, [])) == 1


def test_sheet_changes_only_at_cuts():
    cover = two_cut_cover()
    path = SurfacePath(0, 0, [Crossing("cut", 0)])
    assert path.states(cover)[-1] == (0, 1)
    with pytest.raises(InvalidPath):
        # cut 1 lives in region 2, not region 0
        SurfacePath(0, 0, [Crossing("cut", 1)]).states(cover)
    with pytest.raises(InvalidPath):
        # spoke 3 is not adjacent to region 0
        SurfacePath(0, 0, [Crossing("spoke", 3)]).states(cover)


def test_gauge_rescaling_preserves_loop_holonomy():
    # rescaling all weights at one node by lambda and its co-edges by
    # 1/lambda is realized by changing the unit cut weight; generator-loop
    # holonomies are unchanged because each loop crosses both cut sides
    cover = two_cut_cover()
    base = make_local_system(cover, [Fraction(7, 3)])
    from toricnets.cover import RankOneLocalSystem
    lam = Fraction(11)
    rescaled = RankOneLocalSystem(
        cover, [w * lam for w in base.cut_weights])
    for loop in generator_loops(cover):
        assert parallel_transport(base, loop) == \
            parallel_transport(rescaled, loop)


def soliton_sign(built, tms, turns, monkeypatch):
    """Entry (b, a) of the wall factor of wall 0 of a built network, under
    the trivial local system, when its soliton makes ``turns`` turns."""
    net, layout, cover = built
    w = net.walls[0]
    a, b = w.label
    monkeypatch.setattr(nonabelian, "enumerate_solitons", lambda net_, w_: [
        Soliton(w.id, a, b, w.start_branch, turns)])
    ls = make_local_system(cover, [1] * betti_one(cover))
    rows, _ = rows_den(nonabelian.wall_factor(
        w, nonabelian.Factors(net, tms, cover, ls)))
    return rows[b][a]


def test_winding_sign(p1p1, p1p1_built, monkeypatch):
    # the soliton's transport is signed by the parity (-1)^turns of its
    # turn count
    assert [soliton_sign(p1p1_built, p1p1.tms, turns, monkeypatch)
            for turns in (0, 1, 2, 3)] == [1, -1, 1, -1]


def test_winding_extra_full_turn_flips(p1p1, p1p1_built, monkeypatch):
    for turns in range(3):
        assert soliton_sign(p1p1_built, p1p1.tms, turns, monkeypatch) == \
            -soliton_sign(p1p1_built, p1p1.tms, turns + 1, monkeypatch)


def test_sheet_lift_map_closure_failure():
    # the P2 N=3 multi-section has monodromy, so a cover with no cuts
    # cannot match it
    from support import load
    spec = load("p2_n3")
    cover = build_cover(spec.disk,
                        BranchCutLayout(spec.disk, (), spec.disk.scale), 2)
    with pytest.raises(NoSharedLift):
        sheet_lift_map(spec.tms, cover)


def test_sheet_lift_map_needs_a_lift_per_sheet_over_cone_zero():
    from support import load
    from toricnets.multisection import TropicalMultiSection
    spec = load("p2_n3")
    dropped = spec.tms.lifts_of_cone(0)[0].id
    tms = TropicalMultiSection(
        spec.fan, 2, [c for c in spec.tms.lifted_cones if c.id != dropped],
        spec.tms.lifted_rays)
    cover = build_cover(spec.disk,
                        BranchCutLayout(spec.disk, (), spec.disk.scale), 2)
    with pytest.raises(NoSharedLift):
        sheet_lift_map(tms, cover)


def test_sheet_lift_map_needs_as_many_sheets_as_the_degree(p2):
    # the builder never pairs a multi-section with a cover of another
    # sheet count; handed one, the matching refuses it by name
    cover = empty_network(p2.disk)[1].cover(1)
    with pytest.raises(NoSharedLift,
                       match="cover has 1 sheets, multi-section degree 2"):
        sheet_lift_map(p2.tms, cover)
