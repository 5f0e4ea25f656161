import random
from fractions import Fraction

import pytest

from support import (boundary_restriction_equiv, chambers, count_calls,
                     generated_problems, near_identities,
                     reference_verify_bundle, with_matrices)

from toricnets.builder import build_network, empty_network
from toricnets.cover import (build_cover, make_local_system, sheet_lift_map,
                             Crossing, SurfacePath)
from toricnets.fans import ray_cone
from toricnets.laurent import (LaurentMatrix, LaurentPoly, mat_mul,
                               monomial_inverse, regular_on, is_invertible_on)
from toricnets.network import boundary_loop, branch_point_arms, track_path
from toricnets.nonabelian import (Factors, branch_point_loop, cut_factor,
                                  kaneyama_cocycle, loop_identity_check,
                                  path_ordered, semiflat_factor, verify_bundle,
                                  wall_factor)


def mono(c, e):
    return LaurentPoly.monomial(c, e)


def trivial_ls(cover):
    from toricnets.cover import RankOneLocalSystem
    return RankOneLocalSystem(cover, [Fraction(1)] * len(cover.cuts))


# -- semi-flat factors --------------------------------------------------------

def test_semiflat_rank_one_constant(r1):
    net, layout = empty_network(r1.disk)
    cover = build_cover(r1.disk, layout, 1)
    ls = make_local_system(cover, [])
    f = semiflat_factor(1, Factors(net, r1.tms, cover, ls))
    # slopes (0,0) -> (1,0) across ray 1
    assert f == LaurentMatrix([[mono(1, (1, 0))]])


def test_semiflat_p2_fixture_frozen(p2, p2_built):
    net, layout, cover = p2_built
    # frozen by direct substitution into the defining formula: the sheet
    # lift map sends (region, sheet) to c1,c4 | c2,c5 | c6,c3
    lift = sheet_lift_map(p2.tms, cover)
    assert [lift[(0, s)] for s in (0, 1)] == ["c1", "c4"]
    assert [lift[(1, s)] for s in (0, 1)] == ["c2", "c5"]
    assert [lift[(2, s)] for s in (0, 1)] == ["c6", "c3"]
    factors = Factors(net, p2.tms, cover, trivial_ls(cover))
    assert factors.lift == lift
    f0 = semiflat_factor(0, factors)
    assert f0 == LaurentMatrix([[mono(1, (0, -1)), 0], [0, mono(1, (0, 0))]])
    f1 = semiflat_factor(1, factors)
    assert f1 == LaurentMatrix([[mono(1, (0, 0)), 0], [0, mono(1, (1, 0))]])
    f2 = semiflat_factor(2, factors)
    assert f2 == LaurentMatrix([[mono(1, (0, 1)), 0], [0, mono(1, (-1, 0))]])


def test_semiflat_generalized_permutation(fan5, fan5_built):
    net, layout, cover = fan5_built
    factors = Factors(net, fan5.tms, cover, trivial_ls(cover))
    for i in range(fan5.fan.n):
        m = semiflat_factor(i, factors)
        for r in range(2):
            row_nonzero = sum(0 if m.entry(r, c).is_zero() else 1
                              for c in range(2))
            col_nonzero = sum(0 if m.entry(c, r).is_zero() else 1
                              for c in range(2))
            assert row_nonzero == 1 and col_nonzero == 1


def test_cut_composite_carries_holonomy(p1p1, p1p1_built):
    # the spoke factor itself is independent of the local system (weights
    # live on cuts); the semi-flat transition across a cut-carrying ray is
    # the composite cut * spoke, whose coefficients scale with t
    net, layout, cover = p1p1_built
    composites = {}
    for t in (1, 5):
        factors = Factors(net, p1p1.tms, cover,
                          make_local_system(cover, [Fraction(t)]))
        k = 1  # second cut, weight t
        edge = cover.cuts[k].edge
        spoke = semiflat_factor(edge, factors)
        cut = cut_factor(k, factors)
        composites[t] = mat_mul(spoke, cut)
    assert composites[1] != composites[5]
    # entries scale by t or 1/t
    ratios = set()
    for i in range(2):
        for j in range(2):
            p1_, p5 = composites[1].entry(i, j), composites[5].entry(i, j)
            if p1_.is_zero():
                assert p5.is_zero()
                continue
            c1, e1 = p1_.monomial_parts()
            c5, e5 = p5.monomial_parts()
            assert e1 == e5
            ratios.add(c5 / c1)
    assert ratios == {Fraction(5), Fraction(1, 5)}


# -- wall factors -------------------------------------------------------------

def test_wall_factor_empty_soliton_set_is_identity(p2, p2_built,
                                                   monkeypatch):
    from toricnets import nonabelian
    net, layout, cover = p2_built
    ls = trivial_ls(cover)
    w = net.walls[0]
    monkeypatch.setattr(nonabelian, "enumerate_solitons", lambda net_, w_: [])
    f = wall_factor(w, w.end_cone, Factors(net, p2.tms, cover, ls))
    assert f == LaurentMatrix.identity(2)


def test_wall_factor_single_soliton_slot(p2, p2_built):
    net, layout, cover = p2_built
    factors = Factors(net, p2.tms, cover, trivial_ls(cover))
    lift = factors.lift
    for w in net.walls:
        f = wall_factor(w, w.end_cone, factors)
        a, b = w.label
        off = f.entry(b, a)
        assert not off.is_zero()
        coeff, exp = off.monomial_parts()
        assert coeff in (Fraction(1), Fraction(-1))
        ma = p2.tms.slope(lift[(w.end_cone, a)])
        mb = p2.tms.slope(lift[(w.end_cone, b)])
        assert exp == (mb[0] - ma[0], mb[1] - ma[1])
        # unipotent: identity elsewhere
        assert f.entry(a, b).is_zero()
        assert f.entry(a, a) == LaurentPoly.one()
        assert f.entry(b, b) == LaurentPoly.one()
        # regular on the chart of its own ray
        assert regular_on(f, p2.fan, ray_cone(w.end_edge))


def test_wall_factor_scales_with_holonomy(p1p1, p1p1_built):
    net, layout, cover = p1p1_built
    walls_of_second = net.walls_of_branch(1)
    w = walls_of_second[0]
    entries = {}
    for t in (1, 3):
        ls = make_local_system(cover, [Fraction(t)])
        f = wall_factor(w, w.end_cone, Factors(net, p1p1.tms, cover, ls))
        a, b = w.label
        entries[t] = f.entry(b, a).monomial_parts()[0]
    assert entries[3] == entries[1] * 3 or entries[3] == entries[1] / 3


# -- branch-point consistency (I-1) ------------------------------------------

def assert_branch_point_identity(spec, net, layout, cover, ls):
    table = Factors(net, spec.tms, cover, ls)
    for b in range(len(layout.branch_points)):
        arms = branch_point_arms(net, b)
        region = cover.cut_region[b]
        factors = [wall_factor(w, region, table) for w in arms]
        # unipotent signs alternate +,-,+ in ccw order after the cut
        signs = []
        for w, f in zip(arms, factors):
            a, bb = w.label
            signs.append(1 if f.entry(bb, a).monomial_parts()[0] > 0 else -1)
        assert signs == [1, -1, 1]
        c = cut_factor(b, table)
        product = c
        for f in reversed(factors):
            product = mat_mul(product, f)
        # ... equals F(cut) F(w3) F(w2) F(w1): crossing order of the loop
        product = mat_mul(
            c, mat_mul(factors[2], mat_mul(factors[1], factors[0])))
        assert product == LaurentMatrix.identity(cover.r)
        # the cut factor is a signed monomial permutation on the swap
        lo, hi = cover.cuts[b].lo, cover.cuts[b].hi
        assert c.entry(lo, lo).is_zero() and c.entry(hi, hi).is_zero()
        for i, j in ((lo, hi), (hi, lo)):
            coeff, _ = c.entry(i, j).monomial_parts()
            assert coeff != 0


def test_branch_point_identity_trivial_system(p2, p2_built, fan5, fan5_built):
    for spec, (net, layout, cover) in [(p2, p2_built), (fan5, fan5_built)]:
        ls = trivial_ls(cover)
        assert_branch_point_identity(spec, net, layout, cover, ls)


def test_branch_point_identity_nontrivial_system(p1p1, p1p1_built):
    net, layout, cover = p1p1_built
    ls = make_local_system(cover, [Fraction(7, 2)])
    assert_branch_point_identity(p1p1, net, layout, cover, ls)


# -- path-ordered products ----------------------------------------------------

def test_path_ordered_empty_is_identity(p2, p2_built):
    net, layout, cover = p2_built
    ls = trivial_ls(cover)
    p = SurfacePath(0, 0, [])
    assert path_ordered(Factors(net, p2.tms, cover, ls), p) == \
        LaurentMatrix.identity(2)


def test_path_ordered_there_and_back(p2, p2_built):
    net, layout, cover = p2_built
    ls = trivial_ls(cover)
    p = SurfacePath(0, 0, [Crossing("spoke", 1, +1), Crossing("spoke", 1, -1)])
    assert path_ordered(Factors(net, p2.tms, cover, ls), p) == \
        LaurentMatrix.identity(2)


def test_boundary_loop_is_identity(p2, p2_built):
    net, layout, cover = p2_built
    factors = Factors(net, p2.tms, cover, trivial_ls(cover))
    for ccw in (True, False):
        loop = boundary_loop(net, 0, ccw=ccw)
        assert path_ordered(factors, loop) == \
            LaurentMatrix.identity(2)


def test_loop_identities_random_systems(p2, p2_built, p1p1, p1p1_built,
                                        fan5, fan5_built):
    import random
    rng = random.Random(99)
    for spec, (net, layout, cover) in [(p2, p2_built), (p1p1, p1p1_built),
                                       (fan5, fan5_built)]:
        from toricnets.cover import betti_one
        b1 = betti_one(cover)
        for _ in range(5):
            hol = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                   for _ in range(b1)]
            ls = make_local_system(cover, hol)
            assert loop_identity_check(Factors(net, spec.tms, cover, ls))


def test_flipped_sign_breaks_loop_identity(p2, p2_built, monkeypatch):
    from toricnets import nonabelian
    from toricnets.errors import InvariantViolated
    from toricnets.network import Soliton, enumerate_solitons
    net, layout, cover = p2_built
    ls = trivial_ls(cover)

    def flipped(net_, w):
        sols = enumerate_solitons(net_, w)
        if w.id == 0:
            sols = [Soliton(s.wall_id, s.source_sheet, s.target_sheet,
                            s.branch_point, s.cut_index, s.turns + 1)
                    for s in sols]
        return sols

    # the cut factors are built from the true signs; a cut factor built
    # from the flipped one fails its support check instead
    true_cuts = [cut_factor(k, Factors(net, p2.tms, cover, ls))
                 for k in range(len(cover.cuts))]
    monkeypatch.setattr(nonabelian, "enumerate_solitons", flipped)
    with monkeypatch.context() as m:
        m.setattr(nonabelian, "cut_factor", lambda k, _: true_cuts[k])
        assert not loop_identity_check(Factors(net, p2.tms, cover, ls))
    with pytest.raises(InvariantViolated):
        cut_factor(0, Factors(net, p2.tms, cover, ls))


def test_rank_one_no_walls_telescopes(r1):
    net, layout = empty_network(r1.disk)
    cover = build_cover(r1.disk, layout, 1)
    ls = make_local_system(cover, [])
    assert loop_identity_check(Factors(net, r1.tms, cover, ls))


# -- Kaneyama cocycles --------------------------------------------------------

def test_r1_line_bundle_cocycle(r1):
    net, layout = empty_network(r1.disk)
    cover = build_cover(r1.disk, layout, 1)
    ls = make_local_system(cover, [])
    coc = kaneyama_cocycle(net, r1.tms, cover, ls)
    slopes = {i: r1.tms.slope(f"s{i}") for i in range(3)}
    for i in range(3):
        for j in range(3):
            m1, m2 = slopes[i], slopes[j]
            assert coc.pair(i, j) == LaurentMatrix(
                [[mono(1, (m2[0] - m1[0], m2[1] - m1[1]))]])
    assert verify_bundle(coc, r1.tms).ok


def test_p2_cocycle_regular_and_invertible(p2, p2_built):
    net, layout, cover = p2_built
    ls = trivial_ls(cover)
    coc = kaneyama_cocycle(net, p2.tms, cover, ls)
    for i in range(3):
        g = coc.pair((i - 1) % 3, i)
        assert regular_on(g, p2.fan, ray_cone(i))
        assert is_invertible_on(g, p2.fan, ray_cone(i))
    rep = verify_bundle(coc, p2.tms)
    assert rep.ok


def test_cocycle_path_independence(p2, p2_built, p1p1, p1p1_built):
    # ccw and cw extraction paths are homotopic in the complement of the
    # branch neighborhoods; the matrices must agree exactly
    for spec, (net, layout, cover) in [(p2, p2_built), (p1p1, p1p1_built)]:
        from toricnets.cover import betti_one
        hol = [Fraction(2)] * betti_one(cover)
        ls = make_local_system(cover, hol)
        coc = kaneyama_cocycle(net, spec.tms, cover, ls)
        factors = Factors(net, spec.tms, cover, ls)
        n = spec.fan.n
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                cw = track_path(net, i, j, ccw=False)
                assert path_ordered(factors, cw) == coc.pair(i, j)
        # a third representative: ccw with an extra full boundary loop
        extra = SurfacePath(0, 0, boundary_loop(net, 0).crossings
                            + track_path(net, 0, 1).crossings)
        assert path_ordered(factors, extra) == coc.pair(0, 1)


def test_corrupted_cocycle_detected(p2, p2_built):
    net, layout, cover = p2_built
    ls = trivial_ls(cover)
    coc = kaneyama_cocycle(net, p2.tms, cover, ls)
    bad = dict(coc.matrices)
    g = bad[(0, 1)]
    # zero out one nonzero coefficient
    for i in range(2):
        for j in range(2):
            if not g.entry(i, j).is_zero():
                bad[(0, 1)] = g.with_entry(i, j, LaurentPoly.zero())
                break
        else:
            continue
        break
    corrupted = with_matrices(coc, bad)
    rep = verify_bundle(corrupted, p2.tms)
    assert not rep.ok
    assert any(v.condition in ("cocycle", "inverses") for v in rep.violations)
    # near-identity defects: G_(0,1) G_(1,0) = N, and G_(0,0) = N
    for near in near_identities(2):
        bad = dict(coc.matrices)
        bad[(0, 1)] = mat_mul(near, coc.pair(0, 1))
        bad[(0, 0)] = near
        rep = verify_bundle(with_matrices(coc, bad), p2.tms)
        found = {(v.condition, v.witness) for v in rep.violations}
        assert ("inverses", (0, 1)) in found
        assert ("identity", 0) in found
        assert ("inverses", (1, 2)) not in found


def _entry_edit(coc, rng):
    """Kind (a): an extra term in one entry of G_ij, i != j, so that
    G_ij G_ji = Id fails (G_ji is invertible)."""
    n, r = coc.tms.fan.n, coc.cover.r
    i, j = rng.sample(range(n), 2)
    row, col = rng.randrange(r), rng.randrange(r)
    g = coc.pair(i, j)
    term = mono(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 5)),
                (rng.randint(-2, 2), rng.randint(-2, 2)))
    bad = dict(coc.matrices)
    bad[(i, j)] = g.with_entry(row, col, g.entry(row, col) + term)
    return with_matrices(coc, bad)


def _gauge_edit(coc, rng, pair=None):
    """Kind (b): G_ij -> D G_ij and G_ji -> G_ji D^-1 for a constant
    diagonal D, non-scalar when r > 1, on ``pair`` or a random pair.
    Every inverse survives, and every triple through the pair {i, j}
    breaks."""
    n, r = coc.tms.fan.n, coc.cover.r
    i, j = pair or rng.sample(range(n), 2)
    ds = [Fraction(rng.randint(2, 9), rng.randint(1, 9)) for _ in range(r)]
    if r > 1:
        ds[1] = ds[0] + 1
    d = LaurentMatrix([[mono(ds[a], (0, 0)) if a == b else 0
                        for b in range(r)] for a in range(r)])
    d_inv = LaurentMatrix([[mono(1 / ds[a], (0, 0)) if a == b else 0
                            for b in range(r)] for a in range(r)])
    bad = dict(coc.matrices)
    bad[(i, j)] = mat_mul(d, coc.pair(i, j))
    bad[(j, i)] = mat_mul(coc.pair(j, i), d_inv)
    return with_matrices(coc, bad)


@pytest.fixture(scope="module")
def generated():
    """A generated problem with n = 12 rays."""
    ((n, _), spec), = generated_problems("verify", 3, 0)
    assert n == 12
    return spec


@pytest.fixture(scope="module")
def generated_built(generated):
    net, layout = build_network(generated.tms, generated.disk)
    return net, layout, build_cover(generated.disk, layout, 2)


@pytest.mark.parametrize("name", ["r1", "p2", "p1p1", "fan5", "fan7",
                                  "generated"])
def test_verify_bundle_matches_ordered_triple_reference(name, request):
    # the star triples when every pair passes, and cocycle_check on every
    # ordered triple otherwise, must report exactly what cocycle_check on
    # all n(n-1)(n-2) ordered triples reports, in order
    from toricnets.cover import betti_one
    spec = request.getfixturevalue(name)
    net, layout, cover = request.getfixturevalue(f"{name}_built")
    rng = random.Random(20251)
    hol = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
           for _ in range(betti_one(cover))]
    coc = kaneyama_cocycle(net, spec.tms, cover,
                           make_local_system(cover, hol))
    assert coc.lift == sheet_lift_map(spec.tms, cover)
    n = spec.fan.n
    kinds = {"clean": [coc], "entry": [], "gauge": [], "mixed": []}
    for _ in range(4):
        kinds["entry"].append(_entry_edit(coc, rng))
        kinds["gauge"].append(_gauge_edit(_gauge_edit(coc, rng), rng)
                              if rng.random() < 0.5 else _gauge_edit(coc, rng))
        kinds["mixed"].append(_entry_edit(_gauge_edit(coc, rng), rng))
    # star-breaking gauges: on a pair 0 < i < j, which breaks the star
    # triple (0, i, j), and on a pair through cone 0
    kinds["gauge"] += [
        _gauge_edit(coc, rng, sorted(rng.sample(range(1, n), 2))),
        _gauge_edit(coc, rng, (0, rng.randrange(1, n)))]
    for kind, cases in kinds.items():
        for case in cases:
            got = verify_bundle(case, spec.tms).violations
            assert got == reference_verify_bundle(case, spec.tms).violations
            conditions = {v.condition for v in got}
            if kind == "clean":
                assert not got
            elif kind == "gauge":
                assert conditions == {"cocycle"}
            else:
                assert "inverses" in conditions


def test_verify_bundle_decides_each_triple_with_one_product(fan7, fan7_built,
                                                          monkeypatch):
    # fan7_n7: n = 7, so C(7, 2) = 21 inverse products (one per unordered
    # pair; n(n-1) = 42 would check each pair twice) and, with every pair
    # and every star triple passing, C(6, 2) = 15 star-triple products;
    # one product per unordered triple would add 20 more, two per ordered
    # triple 420.  The loop check multiplies out the 5 branch-point loops
    # and the one boundary loop from cone 0, not one boundary loop per cone.
    # Every product starts from its first factor: each branch-point loop
    # takes 3 products and each of the 5 cut factors 2, and the boundary
    # loop is the 7 adjacent steps (27 crossings, 20 products) composed
    # with 6 more: 51.
    from toricnets import laurent, nonabelian
    net, layout, cover = fan7_built
    ls = make_local_system(cover, [Fraction(2)] * 4)
    coc = kaneyama_cocycle(net, fan7.tms, cover, ls)
    coc.matrices  # composed on first read, outside the count
    calls = []
    product = laurent.mat_mul

    def counting(a, b):
        calls.append((a, b))
        return product(a, b)

    monkeypatch.setattr(laurent, "mat_mul", counting)
    monkeypatch.setattr(nonabelian, "mat_mul", counting)
    assert verify_bundle(coc, fan7.tms).ok
    assert len(calls) == 36
    calls.clear()
    assert loop_identity_check(Factors(net, fan7.tms, cover, ls))
    assert len(calls) == 51


def test_kaneyama_cocycle_builds_each_factor_once(fan7, fan7_built,
                                                   monkeypatch):
    # fan7_n7: 15 walls, 5 cuts, 7 spokes, and one factor table.  The 5
    # cut factors build the 15 arm factors in their cuts' regions, where
    # the branch-point loops read them again; the boundary track adds the
    # 5 walls that land in region 0, away from their cuts: 20 wall
    # factors.  Products: the 51 of the loop check (pinned above), which
    # build the 7 adjacent steps the cocycle keeps, and the 35
    # compositions made on the first read of its matrices.
    from toricnets import laurent, nonabelian
    net, layout, cover = fan7_built
    ls = make_local_system(cover, [Fraction(2)] * 4)
    calls = {name: count_calls(monkeypatch, nonabelian, name)
             for name in ("wall_factor", "cut_factor", "semiflat_factor")}
    calls["mat_mul"] = count_calls(monkeypatch, laurent, "mat_mul")
    kaneyama_cocycle(net, fan7.tms, cover, ls).matrices
    assert {name: len(c) for name, c in calls.items()} == {
        "wall_factor": 20, "cut_factor": 5, "semiflat_factor": 7,
        "mat_mul": 86}
    assert sorted(region for w, region, _ in calls["wall_factor"]
                  if region != cover.cut_region[w.start_branch]) == [0] * 5


def test_tropicalization_round_trip(p2, p2_built, p1p1, p1p1_built,
                                    fan5, fan5_built):
    for spec, (net, layout, cover) in [(p2, p2_built), (p1p1, p1p1_built),
                                       (fan5, fan5_built)]:
        from toricnets.cover import betti_one
        hol = [Fraction(3)] * betti_one(cover)
        ls = make_local_system(cover, hol)
        coc = kaneyama_cocycle(net, spec.tms, cover, ls)
        rep = verify_bundle(coc, spec.tms)
        assert rep.ok, rep


# -- injectivity --------------------------------------------------------------

def test_injectivity_and_gauge(p1p1, p1p1_built):
    net, layout, cover = p1p1_built
    cocs = {}
    for t in (1, 2, 3, 5):
        ls = make_local_system(cover, [Fraction(t)])
        cocs[t] = kaneyama_cocycle(net, p1p1.tms, cover, ls)
    ts = [1, 2, 3, 5]
    for a in range(len(ts)):
        for b in range(a + 1, len(ts)):
            assert not boundary_restriction_equiv(cocs[ts[a]], cocs[ts[b]])
    assert boundary_restriction_equiv(cocs[2], cocs[2])
    # frame rescalings of the same system are equivalent
    scale = {i: [Fraction(7), Fraction(7)] for i in range(4)}
    rescaled = {}
    for (i, j), m in cocs[3].matrices.items():
        d_j = LaurentMatrix([[mono(scale[j][0], (0, 0)), 0],
                             [0, mono(scale[j][1], (0, 0))]])
        d_i_inv = LaurentMatrix([[mono(1 / scale[i][0], (0, 0)), 0],
                                 [0, mono(1 / scale[i][1], (0, 0))]])
        rescaled[(i, j)] = mat_mul(d_j, mat_mul(m, d_i_inv))
    assert boundary_restriction_equiv(
        cocs[3], with_matrices(cocs[3], rescaled))


def test_path_errors(p2, p2_built):
    from toricnets.errors import (NonTransverseCrossing, PathHitsJointRegion,
                                  SlopeTie)
    from toricnets.network import Wall
    net, layout, cover = p2_built
    ls = trivial_ls(cover)
    bad = SurfacePath(0, 0, [Crossing("spoke", 1, 0)])
    with pytest.raises(NonTransverseCrossing):
        path_ordered(Factors(net, p2.tms, cover, ls), bad)
    # a joint-fed wall may not be crossed by extraction paths
    w0 = net.walls[0]
    jointed = Wall(50, w0.polyline, w0.label, None, w0.end_edge, w0.end_cone)
    net2 = type(net)(list(net.walls) + [jointed], net.layout)
    p = SurfacePath(w0.end_cone, 0, [Crossing("wall", 50, +1)])
    with pytest.raises(PathHitsJointRegion):
        path_ordered(Factors(net2, p2.tms, cover, ls), p)


def test_slope_tie_guard(p2, p2_built):
    from types import SimpleNamespace

    from toricnets.builder import _label_from_slopes
    from toricnets.errors import SlopeTie
    net, layout, cover = p2_built
    # a corrupt lift table pairing a cone with itself forces a zero pairing
    corrupt = dict(sheet_lift_map(p2.tms, cover))
    corrupt[(0, 1)] = corrupt[(0, 0)]
    corrupt_cover = SimpleNamespace(lift_map=lambda tms: corrupt)
    with pytest.raises(SlopeTie):
        _label_from_slopes(p2.tms, corrupt_cover, 0, 0)


def test_deeply_nested_seven_crossings_pipeline():
    # 7-ray fan, N = 7: five nested Y-graphs, first Betti number 4
    from support import load
    from toricnets.cover import betti_one
    from toricnets.network import validate_network

    spec = load("fan7_n7")
    net, layout = build_network(spec.tms, spec.disk)
    cover = build_cover(spec.disk, layout, 2)
    assert len(layout.branch_points) == 5
    assert len(net.walls) == 15
    assert betti_one(cover) == 4
    assert len(chambers(net)) == 11
    assert validate_network(net, spec.tms, cover).ok
    ls = make_local_system(cover, [Fraction(2), Fraction(3), Fraction(5, 7),
                                   Fraction(1, 4)])
    assert loop_identity_check(Factors(net, spec.tms, cover, ls))
    coc = kaneyama_cocycle(net, spec.tms, cover, ls)
    assert verify_bundle(coc, spec.tms).ok


def test_cocycle_equals_direct_track_products(fan5, fan5_built):
    # G_ij is composed from the adjacent steps; the direct product along
    # the whole ccw track from i to j must agree exactly
    net, layout, cover = fan5_built
    ls = make_local_system(cover, [Fraction(2), Fraction(5, 3)])
    coc = kaneyama_cocycle(net, fan5.tms, cover, ls)
    factors = Factors(net, fan5.tms, cover, ls)
    n = fan5.fan.n
    assert sorted(coc.matrices) == [(i, j) for i in range(n) for j in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                direct = path_ordered(factors, track_path(net, i, j))
                assert coc.pair(i, j) == direct, (i, j)


def test_cut_factor_support_check_raises_typed_error(p2, p2_built,
                                                     monkeypatch):
    from toricnets import nonabelian
    from toricnets.errors import ToricNetsError
    net, layout, cover = p2_built

    def identity_factor(wall, region, factors):
        return LaurentMatrix.identity(factors.cover.r)

    monkeypatch.setattr(nonabelian, "wall_factor", identity_factor)
    with pytest.raises(ToricNetsError):
        cut_factor(0, Factors(net, p2.tms, cover, trivial_ls(cover)))
