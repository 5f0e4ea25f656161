import json
import random

import pytest

from support import FIXTURES, circle_sampling_n, count_calls, random_two_fold

from toricnets import multisection, schema
from toricnets.builder import build_network
from toricnets.cli import main
from toricnets.errors import NotRealizable, NotTwoFold
from toricnets.fans import make_fan
from toricnets.multisection import (LiftedCone, LiftedRay,
                                    TropicalMultiSection, classify_two_fold,
                                    intersection_cones, n_genericity,
                                    parity_and_realizability, validate)

P2 = make_fan([(1, 0), (0, 1), (-1, -1)])
P1P1 = make_fan([(1, 0), (0, 1), (-1, 0), (0, -1)])
FAN5 = make_fan([(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)])


def section(fan, slopes):
    cones = [LiftedCone(f"s{i}", i, slopes[i]) for i in range(fan.n)]
    rays = [LiftedRay(i, f"s{(i - 1) % fan.n}", f"s{i}") for i in range(fan.n)]
    return TropicalMultiSection(fan, 1, cones, rays)


def test_constant_section_valid():
    tms = section(P2, [(0, 0)] * 3)
    assert validate(tms).ok


def test_equal_slopes_double_cover_not_separated():
    cones = [LiftedCone(f"a{i}", i, (0, 0)) for i in range(3)] + \
            [LiftedCone(f"b{i}", i, (0, 0)) for i in range(3)]
    rays = []
    for i in range(3):
        rays.append(LiftedRay(i, f"a{(i - 1) % 3}", f"a{i}"))
        rays.append(LiftedRay(i, f"b{(i - 1) % 3}", f"b{i}"))
    tms = TropicalMultiSection(P2, 2, cones, rays)
    rep = validate(tms)
    assert not rep.ok
    assert any(v.condition == "separatedness" for v in rep.violations)


def test_p2_quoted_slopes_are_valid_and_give_n1(p2_n1):
    # slopes (0,0),(1,0),(-1,2),(-1,1),(-1,1),(0,0) on the 6-cycle: the six
    # continuity pairings and three separatedness inequalities all hold,
    # and the antipodal value differences flip sign twice, so N = 1
    tms = p2_n1.tms
    assert validate(tms).ok
    assert classify_two_fold(tms).tag == "O"
    assert n_genericity(tms) == 1
    res = parity_and_realizability(tms, 1)
    assert res.parity_ok and not res.realizable and res.betti_one is None


def test_p2_n3_fixture(p2):
    tms = p2.tms
    assert validate(tms).ok
    assert classify_two_fold(tms).tag == "O"
    assert n_genericity(tms) == 3
    assert intersection_cones(tms) == [0, 1, 2]
    res = parity_and_realizability(tms, 3)
    assert res.parity_ok and res.realizable and res.betti_one == 0


def test_split_cover_classifies_e(split_e):
    tms = split_e.tms
    assert validate(tms).ok
    assert classify_two_fold(tms).tag == "E"
    assert n_genericity(tms) == 0
    res = parity_and_realizability(tms, 0)
    assert res.parity_ok and not res.realizable


def test_e_type_n4_fixture(p1p1):
    tms = p1p1.tms
    assert classify_two_fold(tms).tag == "E"
    assert n_genericity(tms) == 4
    res = parity_and_realizability(tms, 4)
    assert res.parity_ok and res.realizable and res.betti_one == 1


def test_o_type_n5_fixture(fan5):
    tms = fan5.tms
    assert classify_two_fold(tms).tag == "O"
    assert n_genericity(tms) == 5
    res = parity_and_realizability(tms, 5)
    assert res.parity_ok and res.realizable and res.betti_one == 2


def test_not_two_fold(r1):
    with pytest.raises(NotTwoFold):
        classify_two_fold(r1.tms)
    with pytest.raises(NotTwoFold):
        n_genericity(r1.tms)


def test_n_genericity_matches_circle_sampling_on_fixtures(p2, p1p1, fan5, p2_n1,
                                                          split_e):
    for spec in (p2, p1p1, fan5, p2_n1, split_e):
        assert n_genericity(spec.tms) == circle_sampling_n(spec.tms)


def test_parity_theorem_randomized():
    rng = random.Random(20240817)
    for fan in (P2, P1P1, FAN5):
        for _ in range(30):
            tms = random_two_fold(fan, rng)
            tag = classify_two_fold(tms).tag
            n_value = n_genericity(tms)
            if tag == "O":
                assert n_value % 2 == 1
            else:
                assert n_value % 2 == 0


def test_random_sections_match_sampling_oracle():
    rng = random.Random(7)
    for fan in (P2, P1P1):
        for _ in range(10):
            tms = random_two_fold(fan, rng)
            assert n_genericity(tms) == circle_sampling_n(tms)


def test_invalid_multisection_is_reported_from_one_validation(
        tmp_path, monkeypatch, capsys):
    # p2_n3 with one continuity break: every consumer reads the stored
    # report, so the typed errors and the CLI report name the same
    # violation, and the multi-section is validated once
    data = json.loads((FIXTURES / "p2_n3.json").read_text())
    data["multisection"]["lifted_cones"][2]["slope"] = [-1, 2]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    spec = schema.parse_problem(data)
    reports = count_calls(monkeypatch, multisection, "validate")
    detail = ("invalid multi-section: ValidationReport(continuity: slopes "
              "across lifted ray c2->c3 pair to -1 with ray 2)")
    for run, error in [(lambda: classify_two_fold(spec.tms), NotTwoFold),
                       (lambda: n_genericity(spec.tms), NotTwoFold),
                       (lambda: build_network(spec.tms, spec.disk),
                        NotRealizable)]:
        with pytest.raises(error) as caught:
            run()
        assert str(caught.value) == detail
    assert len(reports) == 1
    assert not spec.tms.report.ok

    assert main(["build", "--input", str(path), "--report", "json"]) == 1
    stages = json.loads(capsys.readouterr().out)["stages"]
    assert stages == [{"name": "validate", "status": "fail",
                       "detail": detail}]
    assert main(["validate", "--input", str(path), "--report", "json"]) == 1
    stages = json.loads(capsys.readouterr().out)["stages"]
    assert [s["name"] for s in stages] == ["fan", "multisection"]
    assert stages[-1]["detail"]["violations"] == [
        {"condition": "continuity",
         "message": "slopes across lifted ray c2->c3 pair to -1 with ray 2",
         "witness": "LiftedRay(ray=2, src='c2', dst='c3')"}]


@pytest.mark.parametrize("index", [3, -1])
def test_out_of_range_indices_join_no_group(index):
    # the lifts over each cone and the lifted rays over each ray are
    # grouped once, in input order; a cone or ray index outside 0..n-1
    # joins no group, as when each call filtered the lists, and
    # validation reports such a cone or ray
    good = section(P2, [(0, 0)] * 3)
    assert good.lifts_of_cone(4) == good.lifts_of_cone(1) == \
        (good.lifted_cones[1],)
    assert good.rays_over(-1) == (good.lifted_rays[2],)
    cones = list(good.lifted_cones) + [LiftedCone("x", index, (0, 0))]
    tms = TropicalMultiSection(P2, 1, cones, good.lifted_rays)
    assert [c.id for i in range(3) for c in tms.lifts_of_cone(i)] == \
        ["s0", "s1", "s2"]
    assert [v.condition for v in validate(tms).violations] == ["structure"]
    rays = list(good.lifted_rays) + [LiftedRay(index, "s2", "s0")]
    tms = TropicalMultiSection(P2, 1, good.lifted_cones, rays)
    assert [r for i in range(3) for r in tms.rays_over(i)] == \
        list(good.lifted_rays)
    # such a lifted ray is reported, naming the ray, not silently dropped
    assert [(v.condition, v.message, v.witness)
            for v in validate(tms).violations] == [
        ("structure", f"lifted ray s2->s0 over unknown ray {index}",
         rays[-1])]


def test_realizability_is_decided_once_per_multisection(
        p2, p1p1, fan5, p2_n1, split_e, r1, monkeypatch):
    # the parity / N >= 3 / b1 decision at N = len(crossing_cones) is
    # stored on the multi-section, and the builder's gate reads it
    specs = (p2, p1p1, fan5, p2_n1, split_e)
    wants = [parity_and_realizability(spec.tms, n_genericity(spec.tms))
             for spec in specs]
    decided = count_calls(monkeypatch, multisection,
                          "parity_and_realizability")
    for spec, want in zip(specs, wants):
        tms = TropicalMultiSection(spec.fan, spec.tms.degree,
                                   spec.tms.lifted_cones,
                                   spec.tms.lifted_rays)
        assert tms.realizability == want
        assert tms.realizability is tms.realizability
        try:
            build_network(tms, spec.disk)
        except NotRealizable:
            assert not want.realizable
    assert len(decided) == len(specs)
    with pytest.raises(NotTwoFold):
        r1.tms.realizability
