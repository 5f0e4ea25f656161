import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from support import (GEN_TOOLKIT, REALIZABLE, LaurentMatrix, LaurentPoly,
                     boundary_restriction_equiv, chambers, count_calls,
                     fraction_rows, generated_problems, laurent_form, load,
                     matrices, near_identities, pair, parallel_transport,
                     perfbench_gen,
                     ray_cone, ref_identity, ref_is_invertible_on,
                     ref_product, ref_regular_on, ref_with_entry,
                     reference_verify_bundle, reference_wall_factor,
                     with_matrices)

from toricnets import schema
from toricnets.builder import build_network, empty_network
from toricnets.cover import (betti_one, build_cover, make_local_system,
                             sheet_lift_map, Crossing, SurfacePath)
from toricnets.errors import InvalidPath, InvariantViolated
from toricnets.laurent import TPoly, identity, inverse, is_identity, mat_mul
from toricnets.network import (boundary_loop, branch_point_arms,
                               enumerate_solitons, track_path)
from toricnets.nonabelian import (Factors, KaneyamaCocycle,
                                  cut_factor, kaneyama_cocycle,
                                  loop_identity_check, path_ordered,
                                  semiflat_factor, verify_bundle, wall_factor)
from toricnets.reporting import Violation


def mono(c, e):
    return LaurentPoly({e: c})


def trivial_ls(cover):
    from toricnets.cover import RankOneLocalSystem
    return RankOneLocalSystem(cover, [Fraction(1)] * len(cover.cuts))


def frame_exponent(coc, i, j, row, col):
    """m(lift(j, row)) - m(lift(i, col)): the exponent of entry (row, col)
    of G_ij on its frames."""
    a = coc.tms.slope(coc.lift[(j, row)])
    b = coc.tms.slope(coc.lift[(i, col)])
    return (a[0] - b[0], a[1] - b[1])


# -- semi-flat factors --------------------------------------------------------

def test_semiflat_rank_one_constant(r1):
    net, layout = empty_network(r1.disk)
    cover = build_cover(r1.disk, layout, 1)
    ls = make_local_system(cover, [])
    f = semiflat_factor(1, Factors(net, r1.tms, cover, ls))
    # the frame change from region 0 to region 1 around the identity
    assert f == identity(1)
    # slopes (0,0) -> (1,0) across ray 1
    assert laurent_form(f, 0, 1, r1.tms, cover) == \
        LaurentMatrix([[mono(1, (1, 0))]])


def test_semiflat_p2_fixture_frozen(p2, p2_built):
    net, layout, cover = p2_built
    # frozen by direct substitution into the defining formula: the sheet
    # lift map sends (region, sheet) to c1,c4 | c2,c5 | c6,c3
    lift = sheet_lift_map(p2.tms, cover)
    assert [lift[(0, s)] for s in (0, 1)] == ["c1", "c4"]
    assert [lift[(1, s)] for s in (0, 1)] == ["c2", "c5"]
    assert [lift[(2, s)] for s in (0, 1)] == ["c6", "c3"]
    assert cover.lift_map(p2.tms) == lift
    factors = Factors(net, p2.tms, cover, trivial_ls(cover))
    f0 = semiflat_factor(0, factors)
    assert f0 == identity(2)
    assert laurent_form(f0, 2, 0, p2.tms, cover) == \
        LaurentMatrix([[mono(1, (0, -1)), 0], [0, mono(1, (0, 0))]])
    f1 = semiflat_factor(1, factors)
    assert laurent_form(f1, 0, 1, p2.tms, cover) == \
        LaurentMatrix([[mono(1, (0, 0)), 0], [0, mono(1, (1, 0))]])
    f2 = semiflat_factor(2, factors)
    assert laurent_form(f2, 1, 2, p2.tms, cover) == \
        LaurentMatrix([[mono(1, (0, 1)), 0], [0, mono(1, (-1, 0))]])


def test_semiflat_generalized_permutation(fan5, fan5_built):
    net, layout, cover = fan5_built
    factors = Factors(net, fan5.tms, cover, trivial_ls(cover))
    n = fan5.fan.n
    for i in range(n):
        m = laurent_form(semiflat_factor(i, factors), (i - 1) % n, i,
                         fan5.tms, cover)
        for r in range(2):
            row_nonzero = sum(1 for c in range(2) if m.entry(r, c).terms)
            col_nonzero = sum(1 for c in range(2) if m.entry(c, r).terms)
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
        edge, region = cover.cuts[k].edge, cover.cut_region[k]
        spoke = semiflat_factor(edge, factors)
        cut = cut_factor(k, factors)
        composites[t] = ref_product(
            laurent_form(spoke, (edge - 1) % 4, edge, p1p1.tms, cover),
            laurent_form(cut, region, region, p1p1.tms, cover))
    assert composites[1] != composites[5]
    # entries scale by t or 1/t
    ratios = set()
    for i in range(2):
        for j in range(2):
            p1_ = composites[1].entry(i, j).terms
            p5 = composites[5].entry(i, j).terms
            if not p1_:
                assert not p5
                continue
            ((e1, c1),) = p1_.items()
            ((e5, c5),) = p5.items()
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
    f = wall_factor(w, Factors(net, p2.tms, cover, ls))
    assert f == identity(2)


def test_wall_factor_single_soliton_slot(p2, p2_built):
    net, layout, cover = p2_built
    factors = Factors(net, p2.tms, cover, trivial_ls(cover))
    lift = sheet_lift_map(p2.tms, cover)
    for w in net.walls:
        f = wall_factor(w, factors)
        a, b = w.label
        c = fraction_rows(f)
        assert c[b][a] in (Fraction(1), Fraction(-1))
        # unipotent: identity elsewhere
        assert c[a][b] == 0
        assert c[a][a] == c[b][b] == 1
        m = laurent_form(f, w.end_cone, w.end_cone, p2.tms, cover)
        ((exp, coeff),) = m.entry(b, a).terms.items()
        assert coeff == c[b][a]
        ma = p2.tms.slope(lift[(w.end_cone, a)])
        mb = p2.tms.slope(lift[(w.end_cone, b)])
        assert exp == (mb[0] - ma[0], mb[1] - ma[1])
        # regular on the chart of its own ray
        assert ref_regular_on(m, p2.fan, ray_cone(w.end_edge))


def test_wall_factor_scales_with_holonomy(p1p1, p1p1_built):
    net, layout, cover = p1p1_built
    w = next(w for w in net.walls if w.start_branch == 1)
    entries = {}
    for t in (1, 3):
        ls = make_local_system(cover, [Fraction(t)])
        f = wall_factor(w, Factors(net, p1p1.tms, cover, ls))
        a, b = w.label
        entries[t] = fraction_rows(f)[b][a]
    assert entries[3] == entries[1] * 3 or entries[3] == entries[1] / 3


def test_wall_factor_matches_reference_transport():
    # the wall factor reads its soliton's transport off the cut weight of
    # the soliton's source sheet; the reference walks the soliton's one
    # positive crossing of its branch point's cut on the cover.  Entry
    # (b, a) of every wall factor is that transport times (-1)^turns,
    # under the trivial, a rational and the symbolic local system
    checked = 0
    for name in REALIZABLE:
        spec = load(name)
        net, layout = build_network(spec.tms, spec.disk)
        cover = layout.cover(spec.tms.degree)
        b1 = betti_one(cover)
        for hol in ([Fraction(1)] * b1,
                    [Fraction(k + 2, 2 * k + 5) for k in range(b1)],
                    TPoly.symbols(b1)):
            ls = make_local_system(cover, hol)
            factors = Factors(net, spec.tms, cover, ls)
            for w in net.walls:
                (sol,) = enumerate_solitons(net, w)
                a, b = sol.source_sheet, sol.target_sheet
                path = SurfacePath(cover.cut_region[sol.cut_index], a,
                                   [Crossing("cut", sol.cut_index)])
                want = parallel_transport(ls, path)
                if sol.turns % 2:
                    want = -want
                assert fraction_rows(wall_factor(w, factors))[b][a] == \
                    want, (name, hol, w.id)
                checked += 1
    assert checked == 3 * (9 + 15 + 6 + 3)


def _wall_factor_instances():
    for name in REALIZABLE:
        yield name, load(name)
    gen = perfbench_gen()
    for shape in ((8, 8), (16, 4)):
        yield shape, schema.parse_problem(json.loads(gen.serialize(
            gen.generate(*shape, "wall factors", GEN_TOOLKIT))))


def test_wall_factors_match_the_generic_reference():
    # each wall factor is one closed-form constant (laurent.unipotent);
    # the reference accumulates the wall's solitons into identity rows and
    # makes the constant in one generic pass.  Every wall of every
    # realizable fixture and of generated (8, 8) and (16, 4), under a
    # seeded rational system with signs and the symbolic one
    seen = set()
    for name, spec in _wall_factor_instances():
        net, layout = build_network(spec.tms, spec.disk)
        cover = layout.cover(spec.tms.degree)
        b1 = betti_one(cover)
        rng = random.Random(f"wall factors:{name}")
        numeric = [rng.choice([-1, 1]) * Fraction(rng.randint(1, 9),
                                                  rng.randint(1, 9))
                   for _ in range(b1)]
        for hol in (numeric, TPoly.symbols(b1)):
            factors = Factors(net, spec.tms, cover,
                              make_local_system(cover, hol))
            for w in net.walls:
                got = wall_factor(w, factors)
                want = reference_wall_factor(w, factors)
                assert got == want, (name, w.id)
                assert [type(c) for r in got.rows for c in r] == \
                    [type(c) for r in want.rows for c in r]
                seen.add((hol is numeric, w.label, got.den > 1))
    assert seen >= {(True, (0, 1), True), (True, (1, 0), True),
                    (False, (0, 1), False), (False, (1, 0), False)}


# -- branch-point consistency (I-1) ------------------------------------------

def assert_branch_point_identity(spec, net, layout, cover, ls):
    table = Factors(net, spec.tms, cover, ls)
    for b in range(len(layout.branch_points)):
        arms = branch_point_arms(net, b)
        region = cover.cut_region[b]
        factors = [wall_factor(w, table) for w in arms]
        # unipotent signs alternate +,-,+ in ccw order after the cut
        signs = []
        for w, f in zip(arms, factors):
            a, bb = w.label
            signs.append(1 if fraction_rows(f)[bb][a] > 0 else -1)
        assert signs == [1, -1, 1]
        c = cut_factor(b, table)
        # F(cut) F(w3) F(w2) F(w1), the crossing order of the loop, is Id:
        # on the constants, and written out in Laurent arithmetic in the
        # region of the cut, where the loop crosses all four
        product = c
        for f in reversed(factors):
            product = mat_mul(product, f)
        assert product == identity(cover.r)
        assert ref_product(*(laurent_form(f, region, region, spec.tms, cover)
                             for f in [c] + factors[::-1])) == \
            ref_identity(cover.r)
        # the cut factor is a signed permutation on the swap of the two
        # sheets, which every cut's transposition names
        lo, hi = sorted(cover.cuts[b].transposition)
        assert (lo, hi) == (0, 1)
        rows = fraction_rows(c)
        assert rows[lo][lo] == 0 and rows[hi][hi] == 0
        for i, j in ((lo, hi), (hi, lo)):
            assert rows[i][j] != 0


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
    assert path_ordered(Factors(net, p2.tms, cover, ls), p) == identity(2)


def test_path_ordered_there_and_back(p2, p2_built):
    # the cw product back from cone 1 to cone 0 is the inverse of the ccw
    # product there: written out on their frames, there and back again is
    # the identity
    net, layout, cover = p2_built
    factors = Factors(net, p2.tms, cover, make_local_system(cover, []))
    there = path_ordered(factors, track_path(net, 0, 1))
    assert there != identity(2)
    back = inverse(there)
    assert mat_mul(back, there) == identity(2)
    assert ref_product(laurent_form(back, 1, 0, p2.tms, cover),
                       laurent_form(there, 0, 1, p2.tms, cover)) == \
        ref_identity(2)


def test_path_ordered_frames_must_telescope(p2, p2_built):
    # each crossing must start in the region where the one before it ends:
    # path_ordered checks that once, through SurfacePath.states, for a
    # spoke crossed from the wrong region and for a cut crossed outside
    # its own region
    net, layout, cover = p2_built
    factors = Factors(net, p2.tms, cover, trivial_ls(cover))
    outside = (cover.cut_region[0] + 1) % 3
    for path, message in [
            (SurfacePath(0, 0, [Crossing("spoke", 2)]),
             "spoke 2 crossed from region 0"),
            (SurfacePath(0, 0, [Crossing("spoke", 1), Crossing("spoke", 1)]),
             "spoke 1 crossed from region 1"),
            (SurfacePath(outside, 0, [Crossing("cut", 0)]),
             f"cut 0 lives in region {cover.cut_region[0]}, path is in "
             f"{outside}")]:
        with pytest.raises(InvalidPath, match=f"^{message}$"):
            path_ordered(factors, path)


def test_boundary_loop_is_identity(p2, p2_built):
    # the cw loop's product is the inverse of the ccw loop's
    net, layout, cover = p2_built
    factors = Factors(net, p2.tms, cover, trivial_ls(cover))
    ccw = path_ordered(factors, boundary_loop(net, 0))
    for product in (ccw, inverse(ccw)):
        assert product == identity(2)


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
    from toricnets.network import Soliton, enumerate_solitons
    net, layout, cover = p2_built
    ls = trivial_ls(cover)

    def flipped(net_, w):
        sols = enumerate_solitons(net_, w)
        if w.id == 0:
            sols = [Soliton(s.wall_id, s.source_sheet, s.target_sheet,
                            s.cut_index, s.turns + 1)
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
            assert coc.constants[(i, j)] == identity(1)
            assert fraction_rows(coc.constants[(i, j)]) == ((Fraction(1),),)
            assert pair(coc, i, j) == LaurentMatrix(
                [[mono(1, (m2[0] - m1[0], m2[1] - m1[1]))]])
    assert verify_bundle(coc, r1.tms).ok


def test_p2_cocycle_regular_and_invertible(p2, p2_built):
    net, layout, cover = p2_built
    ls = trivial_ls(cover)
    coc = kaneyama_cocycle(net, p2.tms, cover, ls)
    for i in range(3):
        g = pair(coc, (i - 1) % 3, i)
        assert ref_regular_on(g, p2.fan, ray_cone(i))
        assert ref_is_invertible_on(g, p2.fan, ray_cone(i))
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
                # the cw path from i to j is the ccw one from j, reversed:
                # its product is the inverse of that one's
                cw = inverse(path_ordered(factors, track_path(net, j, i)))
                assert laurent_form(cw, i, j, spec.tms, cover) == \
                    pair(coc, i, j)
        # a third representative: ccw with an extra full boundary loop
        extra = SurfacePath(0, 0, boundary_loop(net, 0).crossings
                            + track_path(net, 0, 1).crossings)
        assert laurent_form(path_ordered(factors, extra), 0, 1, spec.tms,
                            cover) == pair(coc, 0, 1)


def _conditions(rep):
    return {v.condition for v in rep.violations}


def _off_frame(rep):
    return {v.witness for v in rep.violations
            if v.condition == "tropicalization"}


def test_corrupted_cocycle_detected(p2, p2_built):
    net, layout, cover = p2_built
    ls = trivial_ls(cover)
    coc = kaneyama_cocycle(net, p2.tms, cover, ls)
    bad = dict(matrices(coc))
    g = bad[(0, 1)]
    # zero out one nonzero coefficient: still on the frame, and G_10 is
    # invertible, so the pair (0, 1) fails its inverses check
    row, col = next((i, j) for i in range(2) for j in range(2)
                    if g.entry(i, j).terms)
    bad[(0, 1)] = ref_with_entry(g, row, col, LaurentPoly({}))
    rep = verify_bundle(with_matrices(coc, bad), p2.tms)
    found = {(v.condition, v.witness) for v in rep.violations}
    assert "tropicalization" not in _conditions(rep)
    assert {("inverses", (0, 1)), ("inverses", (1, 0))} <= found
    # near-identity defects: G_(0,1) G_(1,0) = N, and G_(0,0) = N
    row1 = [c for c in range(2) if g.entry(1, c).terms]
    scaled, z_term, off_diagonal = near_identities(2)
    # a coefficient of 2 on the diagonal keeps every frame
    bad = dict(matrices(coc))
    bad[(0, 1)] = ref_product(scaled, pair(coc, 0, 1))
    bad[(0, 0)] = scaled
    rep = verify_bundle(with_matrices(coc, bad), p2.tms)
    found = {(v.condition, v.witness) for v in rep.violations}
    assert ("inverses", (0, 1)) in found
    assert ("identity", 0) in found
    assert ("inverses", (1, 2)) not in found
    assert "tropicalization" not in _conditions(rep)
    # an extra z-term on diagonal entry (1, 1) puts entry (1, 1) of G_00
    # and row 1 of G_01 off their frames; an off-diagonal constant puts
    # entry (0, 1) of G_00 and, through row 1 of G_01, row 0 of N G_01 off
    for near, row, witness in [(z_term, 1, (0, 0, 1, 1)),
                               (off_diagonal, 0, (0, 0, 0, 1))]:
        bad = dict(matrices(coc))
        bad[(0, 1)] = ref_product(near, pair(coc, 0, 1))
        bad[(0, 0)] = near
        rep = verify_bundle(with_matrices(coc, bad), p2.tms)
        assert _conditions(rep) == {"tropicalization"}
        assert _off_frame(rep) == {witness} | {(0, 1, row, c) for c in row1}


def _entry_edit(coc, rng, on_frame=False):
    """Kind (a): an extra term in one entry of G_ij, i != j, so that
    G_ij G_ji = Id fails (G_ji is invertible).  The term's exponent is
    random, or the entry's frame exponent when ``on_frame``.  Returns the
    edited cocycle and the edit (i, j, row, col, exponent)."""
    n, r = coc.tms.fan.n, coc.cover.r
    i, j = rng.sample(range(n), 2)
    row, col = rng.randrange(r), rng.randrange(r)
    g = pair(coc, i, j)
    c = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 5))
    e = (frame_exponent(coc, i, j, row, col) if on_frame else
         (rng.randint(-2, 2), rng.randint(-2, 2)))
    terms = dict(g.entry(row, col).terms)
    terms[e] = terms.get(e, 0) + c
    bad = dict(matrices(coc))
    bad[(i, j)] = ref_with_entry(g, row, col, LaurentPoly(terms))
    return with_matrices(coc, bad), (i, j, row, col, e)


def _gauge_edit(coc, rng, cones=None):
    """Kind (b): G_ij -> D G_ij and G_ji -> G_ji D^-1 for a constant
    diagonal D, non-scalar when r > 1, on the pair ``cones`` or a random
    pair.
    Every inverse survives, and every triple through the pair {i, j}
    breaks."""
    n, r = coc.tms.fan.n, coc.cover.r
    i, j = cones or rng.sample(range(n), 2)
    ds = [Fraction(rng.randint(2, 9), rng.randint(1, 9)) for _ in range(r)]
    if r > 1:
        ds[1] = ds[0] + 1
    d = LaurentMatrix([[ds[a] if a == b else 0 for b in range(r)]
                       for a in range(r)])
    d_inv = LaurentMatrix([[1 / ds[a] if a == b else 0 for b in range(r)]
                           for a in range(r)])
    bad = dict(matrices(coc))
    bad[(i, j)] = ref_product(d, pair(coc, i, j))
    bad[(j, i)] = ref_product(pair(coc, j, i), d_inv)
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


def _seeded_cocycle(name, request):
    """(spec, cover, cocycle, rng) of a fixture's mutation sweep: the
    cocycle of holonomies drawn from rng 20251, which then draws the
    mutations."""
    from toricnets.cover import betti_one
    spec = request.getfixturevalue(name)
    net, layout, cover = request.getfixturevalue(f"{name}_built")
    rng = random.Random(20251)
    hol = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
           for _ in range(betti_one(cover))]
    coc = kaneyama_cocycle(net, spec.tms, cover,
                           make_local_system(cover, hol))
    return spec, cover, coc, rng


@pytest.mark.parametrize("name", ["r1", "p2", "p1p1", "fan5", "fan7",
                                  "generated"])
def test_verify_bundle_matches_ordered_triple_reference(name, request):
    # the star triples when every pair passes, and every ordered triple
    # otherwise, must report exactly what the Laurent reference reports
    # from all n(n-1)(n-2) ordered triples, in order; an entry off its
    # frame must report exactly what the reference's round trip reports
    spec, cover, coc, rng = _seeded_cocycle(name, request)
    assert coc.lift == sheet_lift_map(spec.tms, cover)
    n = spec.fan.n
    kinds = {"clean": [(coc, None)], "entry": [], "gauge": [], "mixed": []}
    for _ in range(4):
        kinds["entry"].append(_entry_edit(coc, rng))
        kinds["gauge"].append((_gauge_edit(_gauge_edit(coc, rng), rng)
                               if rng.random() < 0.5
                               else _gauge_edit(coc, rng), None))
        kinds["mixed"].append(_entry_edit(_gauge_edit(coc, rng), rng))
    # star-breaking gauges: on a pair 0 < i < j, which breaks the star
    # triple (0, i, j), and on a pair through cone 0
    kinds["gauge"] += [
        (_gauge_edit(coc, rng, sorted(rng.sample(range(1, n), 2))), None),
        (_gauge_edit(coc, rng, (0, rng.randrange(1, n))), None)]
    # identity transition matrices: every G_ij with i != j has an entry
    # off its frame (the slopes of two cones differ)
    kinds["identity"] = [(with_matrices(
        coc, {k: ref_identity(cover.r) for k in matrices(coc)}), None)]
    # an extra term at the frame exponent of its entry
    kinds["entry"].append(_entry_edit(coc, rng, on_frame=True))
    for kind, cases in kinds.items():
        for case, edit in cases:
            rep = verify_bundle(case, spec.tms)
            assert rep.violations == \
                reference_verify_bundle(case, spec.tms).violations
            conditions = _conditions(rep)
            if kind == "clean":
                assert not rep.violations
            elif kind == "gauge":
                assert conditions == {"cocycle"}
            elif kind == "identity":
                assert conditions == {"tropicalization"}
            elif edit[4] == frame_exponent(coc, *edit[:4]):
                # the edited entry stays on its frame
                assert "inverses" in conditions
                assert "tropicalization" not in conditions
            else:
                assert conditions == {"tropicalization"}
                assert _off_frame(rep) == {edit[:4]}


def test_verify_bundle_ignores_the_order_of_the_matrices(fan7, fan7_built,
                                                        request):
    # the first entry mutation of the fan7 sweep above, where the round
    # trip once depended on the order in which the entries were read, the
    # clean cocycle and a gauge edit: the report of each is the same for
    # the matrices in their order, reversed and shuffled
    spec, cover, coc, rng = _seeded_cocycle("fan7", request)
    first, edit = _entry_edit(coc, rng)
    shuffle = random.Random(7)
    for case in (first, coc, _gauge_edit(coc, rng)):
        want = verify_bundle(case, spec.tms).violations
        orders = [list(matrices(case).items())]
        orders.append(orders[0][::-1])
        orders.append(shuffle.sample(orders[0], len(orders[0])))
        for items in orders:
            reordered = with_matrices(case, dict(items))
            assert verify_bundle(reordered, spec.tms).violations == want
            assert reference_verify_bundle(reordered,
                                           spec.tms).violations == want
    rep = verify_bundle(first, spec.tms)
    assert _conditions(rep) == {"tropicalization"}
    assert _off_frame(rep) == {edit[:4]}


def test_off_frame_entry_names_its_witness(p2, p2_built):
    # one extra term, off the frame, in a nonzero entry of G_01
    net, layout, cover = p2_built
    coc = kaneyama_cocycle(net, p2.tms, cover, trivial_ls(cover))
    g = pair(coc, 0, 1)
    row, col = next((i, j) for i in range(2) for j in range(2)
                    if g.entry(i, j).terms)
    frame = frame_exponent(coc, 0, 1, row, col)
    off = (frame[0] + 1, frame[1])
    c, = g.entry(row, col).terms.values()
    bad = dict(matrices(coc))
    bad[(0, 1)] = ref_with_entry(g, row, col, LaurentPoly({frame: c, off: 1}))
    found = sorted([frame, off])
    assert verify_bundle(with_matrices(coc, bad), p2.tms).violations == [
        Violation("tropicalization",
                  f"G_(0,1) entry ({row},{col}) has exponents {found}, not "
                  f"the frame exponent {frame}", (0, 1, row, col))]


def test_unjoined_sheets_are_reported_per_cone(p2, p2_built):
    # diagonal constants on their frames: every entry is on its frame, but
    # no entry joins sheet 1 to the anchor (0, 0) of the connected cover
    net, layout, cover = p2_built
    coc = kaneyama_cocycle(net, p2.tms, cover, trivial_ls(cover))
    frames = [[p2.tms.slope(coc.lift[(i, s)]) for s in range(2)]
              for i in range(3)]
    diagonal = {(i, j): LaurentMatrix.framed(identity(2), frames[i],
                                             frames[j])
                for i in range(3) for j in range(3)}
    assert len(cover.sheet_orbits) == 1
    assert verify_bundle(with_matrices(coc, diagonal), p2.tms).violations == [
        Violation("tropicalization",
                  f"no chain of nonzero entries joins sheets [1] over cone "
                  f"{i} to their anchor over cone 0", i) for i in range(3)]


def test_verify_bundle_decides_each_triple_with_one_product(fan7, fan7_built,
                                                          monkeypatch):
    # fan7_n7: n = 7, so C(7, 2) = 21 inverse checks (one per unordered
    # pair; n(n-1) = 42 would check each pair twice) and, with every pair
    # and every star triple passing, C(6, 2) = 15 star-triple checks; one
    # product per unordered triple would add 20 more, two per ordered
    # triple 420.  The 36 checks read one product table, and 3 of the
    # inverse pairs multiply the same two constants as an earlier pair:
    # 33 products.  The loop check multiplies out the 5 branch-point loops
    # and the one boundary loop from cone 0, not one boundary loop per cone.
    # Every product of constants starts from its first factor, a spoke
    # crossing (the identity constant) changes only the frame, and all the
    # products of the check read the one product table of its factor
    # table.  Each cut factor multiplies its 3 arm constants (2 products)
    # and its loop reads those 2 from the table and takes 1 more; with
    # every holonomy 2, branch points 2, 3 and 4 carry the arm constants of
    # an earlier one, so their cuts and loops take none: 6.  The boundary
    # loop is the 7 adjacent steps (27 crossings, of them 7 spokes: 13
    # products, 5 of them in the table already) composed with 6 more: 20.
    from toricnets import laurent, nonabelian
    net, layout, cover = fan7_built
    ls = make_local_system(cover, [Fraction(2)] * 4)
    coc = kaneyama_cocycle(net, fan7.tms, cover, ls)
    coc.written  # composed and written on first read, outside the count
    calls = []
    product = laurent.mat_mul

    def counting(a, b):
        calls.append((a, b))
        return product(a, b)

    monkeypatch.setattr(laurent, "mat_mul", counting)
    monkeypatch.setattr(nonabelian, "mat_mul", counting)
    assert verify_bundle(coc, fan7.tms).ok
    assert len(calls) == 33
    calls.clear()
    assert loop_identity_check(Factors(net, fan7.tms, cover, ls))
    assert len(calls) == 20


def test_kaneyama_cocycle_builds_each_factor_once(fan7, fan7_built,
                                                   monkeypatch):
    # fan7_n7: 15 walls, 5 cuts, 7 spokes, and one factor table.  Each
    # wall's constant is built once, at its first crossing: the
    # branch-point loops cross the 15 arms in their cuts' regions first,
    # and the boundary track, crossing 5 of them in region 0, away from
    # their cuts, reads the same constants there: 15 wall factors.
    # Products of constants: the 20 of the loop check (pinned above),
    # which build the 7 adjacent steps the cocycle keeps, and the
    # compositions made on the first read of its matrices: 35, of which 2
    # multiply the same two constants as an earlier one and read them
    # from the composition's product table, so 33.
    from toricnets import laurent, nonabelian
    net, layout, cover = fan7_built
    ls = make_local_system(cover, [Fraction(2)] * 4)
    calls = {name: count_calls(monkeypatch, nonabelian, name)
             for name in ("wall_factor", "cut_factor", "semiflat_factor")}
    calls["mat_mul"] = count_calls(monkeypatch, laurent, "mat_mul")
    kaneyama_cocycle(net, fan7.tms, cover, ls).written
    assert {name: len(c) for name, c in calls.items()} == {
        "wall_factor": 15, "cut_factor": 5, "semiflat_factor": 7,
        "mat_mul": 53}
    assert sorted(w.id for w, _ in calls["wall_factor"]) == list(range(15))
    assert len({id(table) for _, table in calls["wall_factor"]}) == 1


def _generated_cocycle(n, big_n, key, rng):
    """(spec, cocycle) of the benchmark's generated (n, N) problem, with
    holonomies drawn from ``rng``."""
    gen = perfbench_gen()
    spec = schema.parse_problem(json.loads(gen.serialize(
        gen.generate(n, big_n, key, GEN_TOOLKIT))))
    net, layout = build_network(spec.tms, spec.disk)
    cover = build_cover(spec.disk, layout, spec.tms.degree)
    hol = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
           for _ in range(betti_one(cover))]
    return spec, kaneyama_cocycle(net, spec.tms, cover,
                                  make_local_system(cover, hol))


def test_cocycle_products_do_not_grow_with_the_rays(monkeypatch):
    # the generated (n, 3) fans differ only in how many bare spokes (the
    # identity step) separate their few walls, so their constants P_ij
    # take the same few values at every n: composing and verifying them
    # multiplies each distinct pair of constants once, and the count of
    # products stays put while the n^2 pairs grow
    from toricnets import laurent
    counts = []
    for n in (12, 16, 20):
        spec, coc = _generated_cocycle(n, 3, f"products:{n}",
                                       random.Random(n))
        calls = count_calls(monkeypatch, laurent, "mat_mul")
        coc.written
        assert verify_bundle(coc, spec.tms).ok
        counts.append(len(calls))
        monkeypatch.undo()
    assert counts[0] < 12 * 11 // 2
    assert counts == [counts[0]] * 3


def test_product_table_masks_no_edit_of_a_shared_constant():
    # n20_N3: the 400 constants P_ij take a handful of values, each shared
    # by many pairs.  One written coefficient of a pair holding the
    # identity, and of one holding the most shared other constant, moves
    # on its frame: the edited constant is a new key of the product table,
    # and the report must be exactly the Laurent reference's over all
    # 6840 ordered triples
    rng = random.Random(20263)
    spec, coc = _generated_cocycle(20, 3, "shared", rng)
    shared = Counter(coc.constants.values()).most_common()
    assert shared[0][1] > 100 and shared[1][1] > 50
    ident = next(c for c, _ in shared if is_identity(c))
    other = next(c for c, _ in shared if not is_identity(c))
    for const in (ident, other):
        i, j = rng.choice([(i, j) for (i, j), c in coc.constants.items()
                           if c == const and i != j])
        terms = list(coc.written[(i, j)])
        k = rng.randrange(len(terms))
        row, col, num, den, ex, ey = terms[k]
        c = Fraction(num, den) + rng.choice([-2, -1, 1, 2])
        c = c or Fraction(3)
        terms[k] = (row, col, c.numerator, c.denominator, ex, ey)
        bad = KaneyamaCocycle(coc.tms, coc.cover, coc.steps, coc.lift)
        bad.written = {**coc.written, (i, j): tuple(terms)}
        rep = verify_bundle(bad, spec.tms)
        assert rep.violations == \
            reference_verify_bundle(bad, spec.tms).violations
        assert ("inverses", (i, j)) in {(v.condition, v.witness)
                                       for v in rep.violations}
        assert "cocycle" in _conditions(rep)


class _SplitSheets:
    """A cover read as if each of its sheets were a component of its own:
    two anchors, (0, 0) and (0, 1)."""

    sheet_orbits = ((0,), (1,))

    def __init__(self, cover):
        self._cover = cover

    def __getattr__(self, name):
        return getattr(self._cover, name)


@pytest.mark.parametrize("name", ["p1p1_n4", "fan5_n5"])
def test_the_join_holds_links_until_a_label_reaches_them(name):
    # every G_0j (j != 0) becomes the diagonal constant on its frames, so
    # row 0 joins no two sheets: its links (0, 1)-(j, 1) wait until a
    # later row labels sheet 1, and the join records links until every
    # (cone, sheet) is joined, however many it took
    spec = load(name)
    net, layout = build_network(spec.tms, spec.disk)
    cover = build_cover(spec.disk, layout, spec.tms.degree)
    coc = kaneyama_cocycle(net, spec.tms, cover, make_local_system(
        cover, [Fraction(2, 3)] * betti_one(cover)))
    frames, n = coc.frames, spec.fan.n
    diagonal = KaneyamaCocycle(coc.tms, cover, coc.steps, coc.lift)
    diagonal.written = {**coc.written, **{
        (0, j): tuple((s, s, 1, 1, frames[j][s][0] - frames[0][s][0],
                       frames[j][s][1] - frames[0][s][1]) for s in range(2))
        for j in range(1, n)}}
    report = verify_bundle(diagonal, spec.tms)
    assert report.violations == \
        reference_verify_bundle(diagonal, spec.tms).violations
    assert "inverses" in _conditions(report)
    assert "tropicalization" not in _conditions(report)
    # with two anchors, the entries that join the sheets join their two
    # components, and every (cone, sheet) is joined to its own anchor
    split = KaneyamaCocycle(coc.tms, _SplitSheets(cover), coc.steps,
                            coc.lift)
    split.written = coc.written
    assert verify_bundle(split, spec.tms).ok
    assert reference_verify_bundle(split, spec.tms).ok
    # row 0 alone leaves sheet 1 of every cone unjoined
    alone = KaneyamaCocycle(coc.tms, cover, coc.steps, coc.lift)
    alone.written = {key: terms if key[0] == 0 else ()
                     for key, terms in diagonal.written.items()}
    assert verify_bundle(alone, spec.tms).violations == [
        Violation("tropicalization", f"no chain of nonzero entries joins "
                  f"sheets [1] over cone {i} to their anchor over cone 0", i)
        for i in range(n)]


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
    for (i, j), m in matrices(cocs[3]).items():
        d_j = LaurentMatrix([[scale[j][0], 0], [0, scale[j][1]]])
        d_i_inv = LaurentMatrix([[1 / scale[i][0], 0], [0, 1 / scale[i][1]]])
        rescaled[(i, j)] = ref_product(d_j, m, d_i_inv)
    assert boundary_restriction_equiv(
        cocs[3], with_matrices(cocs[3], rescaled))


def test_path_errors(p2, p2_built):
    # a crossing of a cut that is not there, or of no known kind of curve,
    # is no path: path_ordered builds no factor for it
    net, layout, cover = p2_built
    factors = Factors(net, p2.tms, cover, trivial_ls(cover))
    region = cover.cut_region[0]
    for crossing, message in [(Crossing("cut", 1), "unknown cut 1"),
                              (Crossing("ray", 1), "unknown crossing kind "
                                                   "'ray'")]:
        with pytest.raises(InvalidPath, match=f"^{message}$"):
            path_ordered(factors, SurfacePath(region, 0, [crossing]))
    assert factors._built == {}
    # a wall the network does not hold is no path either, even after a
    # wall it does hold
    with pytest.raises(InvalidPath, match="^unknown wall 99$"):
        path_ordered(factors, SurfacePath(region, 0, [Crossing("wall", 0),
                                                      Crossing("wall", 99)]))


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
    # the whole ccw track from i to j must agree exactly, as a framed
    # constant and written out
    net, layout, cover = fan5_built
    ls = make_local_system(cover, [Fraction(2), Fraction(5, 3)])
    coc = kaneyama_cocycle(net, fan5.tms, cover, ls)
    factors = Factors(net, fan5.tms, cover, ls)
    n = fan5.fan.n
    assert sorted(coc.written) == [(i, j) for i in range(n) for j in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                direct = path_ordered(factors, track_path(net, i, j))
                assert direct == coc.constants[(i, j)], (i, j)
                # the one monomial of each written entry has the entry of
                # the constant over its denominator as its coefficient
                assert fraction_rows(coc.constants[(i, j)]) == tuple(
                    tuple(sum(p.terms.values(), Fraction(0)) for p in row)
                    for row in pair(coc, i, j).rows), (i, j)
                assert laurent_form(direct, i, j, fan5.tms, cover) == \
                    pair(coc, i, j), (i, j)


def test_cut_factor_support_check_raises_typed_error(p2, p2_built,
                                                     monkeypatch):
    from toricnets import nonabelian
    from toricnets.errors import ToricNetsError
    net, layout, cover = p2_built

    def identity_factor(wall, factors):
        return identity(factors.cover.r)

    monkeypatch.setattr(nonabelian, "wall_factor", identity_factor)
    with pytest.raises(ToricNetsError):
        cut_factor(0, Factors(net, p2.tms, cover, trivial_ls(cover)))


def test_a_branch_point_without_a_y_graph_has_no_cut_factor(p2, p2_built):
    # p2_n3's network with wall 2 dropped: branch point 0 keeps two arms,
    # and its cut factor is refused by name, not built from two factors
    from toricnets.errors import NotSupported
    from toricnets.network import SpectralNetwork
    net, layout, cover = p2_built
    two_arms = SpectralNetwork([w for w in net.walls if w.id != 2], layout)
    assert len(two_arms.arms[0]) == 2
    with pytest.raises(NotSupported, match=r"^branch point 0 does not carry "
                       "a Y-graph$"):
        cut_factor(0, Factors(two_arms, p2.tms, cover, trivial_ls(cover)))
