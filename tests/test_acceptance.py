"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is zero-tolerance (exact rational equality); each test prints
its own pass line so a full run reads as a checklist.
"""
import json
import random
from fractions import Fraction

from support import (FIXTURES, LaurentMatrix, LaurentPoly,
                     boundary_restriction_equiv, laurent_form, load, matrices,
                     pair, random_two_fold, ray_cone, ref_identity,
                     ref_is_invertible_on, ref_product, ref_regular_on,
                     with_matrices)

from toricnets.builder import build_network, empty_network
from toricnets.cli import main
from toricnets.cover import betti_one, make_local_system
from toricnets.fans import make_fan
from toricnets.laurent import inverse
from toricnets.multisection import classify_two_fold, n_genericity
from toricnets.network import branch_point_arms, track_path, validate_network
from toricnets.nonabelian import (Factors, cut_factor, kaneyama_cocycle,
                                  loop_identity_check, path_ordered,
                                  verify_bundle, wall_factor)

FANS = {
    "P2": make_fan([(1, 0), (0, 1), (-1, -1)]),
    "P1xP1": make_fan([(1, 0), (0, 1), (-1, 0), (0, -1)]),
    "5-ray": make_fan([(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)]),
}

REALIZABLE = ["p2_n3", "p1p1_n4", "fan5_n5"]


def _built(name):
    spec = load(name)
    net, layout = build_network(spec.tms, spec.disk)
    return spec, net, layout, layout.cover(spec.tms.degree)


def test_acceptance_1_parity_theorem():
    rng = random.Random(20260809)
    checked = 0
    per_fan = {"P2": 67, "P1xP1": 67, "5-ray": 66}
    for label, fan in FANS.items():
        for _ in range(per_fan[label]):
            tms = random_two_fold(fan, rng)
            tag = classify_two_fold(tms).tag
            n_value = n_genericity(tms)
            assert n_value % 2 == (1 if tag == "O" else 0), \
                f"parity failure on {label}: case {tag}, N={n_value}"
            checked += 1
    assert checked == 200
    print(f"\nACCEPTANCE 1 parity theorem: {checked} random covers, "
          "0 failures: PASS")


def test_acceptance_2_builder_validity():
    for name in REALIZABLE:
        spec, net, layout, cover = _built(name)
        n_value = n_genericity(spec.tms)
        assert n_value >= 3
        report = validate_network(net, spec.tms, cover)
        assert report.ok, f"{name}: {report}"
        assert len(layout.branch_points) == n_value - 2
        assert len(net.walls) == 3 * (n_value - 2)
    print("ACCEPTANCE 2 builder validity: all fixtures validator-clean "
          "with N-2 branch points: PASS")


def test_acceptance_3_branch_point_consistency():
    total = 0
    for name in REALIZABLE:
        spec, net, layout, cover = _built(name)
        b1 = betti_one(cover)
        factors = Factors(net, spec.tms, cover,
                          make_local_system(cover, [Fraction(5, 3)] * b1))
        for b in range(len(layout.branch_points)):
            region = cover.cut_region[b]
            arms = branch_point_arms(net, b)
            fs = [wall_factor(w, factors) for w in arms]
            c = cut_factor(b, factors)
            product = ref_product(*(laurent_form(f, region, region, spec.tms,
                                                 cover)
                                    for f in (c, fs[2], fs[1], fs[0])))
            assert product == ref_identity(cover.r)
            total += 1
    print(f"ACCEPTANCE 3 branch-point consistency: {total} branch points, "
          "all products exactly Id: PASS")


def test_acceptance_4_loop_identities_25_systems():
    rng = random.Random(4)
    for name in REALIZABLE:
        spec, net, layout, cover = _built(name)
        b1 = betti_one(cover)
        for _ in range(25):
            hol = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                   for _ in range(b1)]
            ls = make_local_system(cover, hol)
            assert loop_identity_check(Factors(net, spec.tms, cover, ls)), \
                f"{name}: loop identity failed for {hol}"
    print("ACCEPTANCE 4 consistency theorem: 25 seeded systems per fixture, "
          "every generator loop exactly Id: PASS")


def test_acceptance_5_kaneyama_verification():
    for name in REALIZABLE:
        spec, net, layout, cover = _built(name)
        b1 = betti_one(cover)
        ls = make_local_system(cover, [Fraction(2)] * b1)
        coc = kaneyama_cocycle(net, spec.tms, cover, ls)
        fan = spec.fan
        for i in range(fan.n):
            g = pair(coc, (i - 1) % fan.n, i)
            assert ref_regular_on(g, fan, ray_cone(i))
            assert ref_is_invertible_on(g, fan, ray_cone(i))
        rep = verify_bundle(coc, spec.tms)
        assert rep.ok, f"{name}: {rep}"
    # rank-1 degenerate input: pure line-bundle monomial cocycle
    r1 = load("line_bundle_r1")
    net, layout = empty_network(r1.disk)
    cover = layout.cover(1)
    ls = make_local_system(cover, [])
    coc = kaneyama_cocycle(net, r1.tms, cover, ls)
    for i in range(3):
        for j in range(3):
            mi = r1.tms.slope(f"s{i}")
            mj = r1.tms.slope(f"s{j}")
            want = LaurentMatrix([[LaurentPoly(
                {(mj[0] - mi[0], mj[1] - mi[1]): 1})]])
            assert pair(coc, i, j) == want
    assert verify_bundle(coc, r1.tms).ok
    print("ACCEPTANCE 5 Kaneyama verification: regularity, invertibility, "
          "all triples; r=1 reproduces line bundles: PASS")


def test_acceptance_6_well_definedness():
    for name in REALIZABLE:
        spec, net, layout, cover = _built(name)
        b1 = betti_one(cover)
        ls = make_local_system(cover, [Fraction(3, 2)] * b1)
        coc = kaneyama_cocycle(net, spec.tms, cover, ls)
        factors = Factors(net, spec.tms, cover, ls)
        n = spec.fan.n
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                # the cw path from i to j is the ccw one from j, reversed:
                # its product is the inverse of that one's
                alt = inverse(path_ordered(factors, track_path(net, j, i)))
                assert laurent_form(alt, i, j, spec.tms, cover) == \
                    pair(coc, i, j), f"{name}: path dependence at ({i},{j})"
    print("ACCEPTANCE 6 well-definedness: homotopic extraction paths give "
          "identical matrices: PASS")


def test_acceptance_7_tropicalization_round_trip():
    for name in REALIZABLE + ["line_bundle_r1"]:
        spec = load(name)
        if spec.tms.degree == 1:
            net, layout = empty_network(spec.disk)
        else:
            net, layout = build_network(spec.tms, spec.disk)
        cover = layout.cover(spec.tms.degree)
        b1 = betti_one(cover)
        ls = make_local_system(cover, [Fraction(7, 4)] * b1)
        coc = kaneyama_cocycle(net, spec.tms, cover, ls)
        rep = verify_bundle(coc, spec.tms)
        trop = [v for v in rep.violations if v.condition == "tropicalization"]
        assert rep.ok and not trop, f"{name}: {rep}"
    print("ACCEPTANCE 7 tropicalization round-trip: recovered exponent "
          "multisets equal input slopes: PASS")


def test_acceptance_8_injectivity():
    spec, net, layout, cover = _built("p1p1_n4")
    assert betti_one(cover) == 1
    assert classify_two_fold(spec.tms).tag == "E"
    assert n_genericity(spec.tms) == 4
    cocs = {}
    for t in (1, 2, 3, 5):
        ls = make_local_system(cover, [Fraction(t)])
        cocs[t] = kaneyama_cocycle(net, spec.tms, cover, ls)
    ts = [1, 2, 3, 5]
    pairs = 0
    for a in range(len(ts)):
        for b in range(a + 1, len(ts)):
            assert not boundary_restriction_equiv(cocs[ts[a]], cocs[ts[b]])
            pairs += 1
    assert pairs == 6
    # gauge-rescaled copy of one system is equivalent to itself
    d = LaurentMatrix([[Fraction(11), 0], [0, Fraction(11)]])
    d_inv = LaurentMatrix([[Fraction(1, 11), 0], [0, Fraction(1, 11)]])
    rescaled = {k: ref_product(d, m, d_inv)
                for k, m in matrices(cocs[5]).items()}
    assert boundary_restriction_equiv(
        cocs[5], with_matrices(cocs[5], rescaled))
    print("ACCEPTANCE 8 injectivity: 6/6 holonomy pairs distinguished, "
          "gauge copies identified: PASS")


def test_acceptance_9_determinism(tmp_path):
    for name in REALIZABLE:
        outs = []
        for run in (1, 2):
            d = tmp_path / f"{name}-{run}"
            code = main(["nonabelianize", "--input",
                         str(FIXTURES / f"{name}.json"), "--out", str(d),
                         "--holonomy", ",".join(["2"] * _b1(name))])
            assert code == 0
            code = main(["render", "--input", str(FIXTURES / f"{name}.json"),
                         "--out", str(d / "figure.svg")])
            assert code == 0
            outs.append({
                "coc": (d / "cocycle.json").read_bytes(),
                "svg": (d / "figure.svg").read_bytes(),
            })
        assert outs[0] == outs[1], f"{name}: outputs differ between runs"
    print("ACCEPTANCE 9 determinism: byte-identical JSON and SVG across "
          "runs: PASS")


def _b1(name):
    return {"p2_n3": 0, "p1p1_n4": 1, "fan5_n5": 2}[name]
