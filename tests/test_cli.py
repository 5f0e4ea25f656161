import json
import random
import re
from fractions import Fraction

import pytest

from support import (FIXTURES, REALIZABLE, count_calls, emit_matrix, pair,
                     parse_matrix, rational)

from toricnets import cover, fans, multisection, nonabelian, schema
from toricnets.builder import build_network
from toricnets.cli import main
from toricnets.errors import NotStrictlyConvex, ParseError, SchemaError
from toricnets.render import render_svg
from toricnets.reporting import ValidationReport


def fx(name):
    return str(FIXTURES / f"{name}.json")


def test_validate_fixture_passes(capsys):
    assert main(["validate", "--input", fx("p2_n3")]) == 0
    out = capsys.readouterr().out
    assert "[pass]" in out


def test_validate_rejects_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", "--input", str(bad)]) == 1
    assert "fail" in capsys.readouterr().out


def test_parse_error_is_raised_for_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        schema.load_problem(bad)


def test_schema_error_for_wrong_version(tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"schema": "nope"}))
    with pytest.raises(SchemaError):
        schema.load_problem(doc)


def test_non_separated_input_fails_with_witness(tmp_path, capsys):
    data = json.loads((FIXTURES / "p2_n3.json").read_text())
    for c in data["multisection"]["lifted_cones"]:
        c["slope"] = [0, 0]
    p = tmp_path / "bad_tms.json"
    p.write_text(json.dumps(data))
    code = main(["validate", "--input", str(p)])
    out = capsys.readouterr().out
    assert code == 1
    assert "separatedness" in out


def test_build_writes_network_and_svg(tmp_path, capsys):
    code = main(["build", "--input", fx("p2_n3"), "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "network.json").exists()
    svg = (tmp_path / "network.svg").read_text()
    assert svg.startswith("<svg") and svg.count("polyline") >= 7


def test_build_not_realizable(tmp_path, capsys):
    code = main(["build", "--input", fx("p2_n1"), "--out", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "fail" in out


def test_nonabelianize_writes_cocycle(tmp_path):
    code = main(["nonabelianize", "--input", fx("p1p1_n4"),
                 "--out", str(tmp_path), "--holonomy", "2"])
    assert code == 0
    doc = json.loads((tmp_path / "cocycle.json").read_text())
    assert doc["schema"] == schema.COCYCLE_SCHEMA
    assert doc["size"] == 2
    assert "0,1" in doc["pairs"]


def test_nonabelianize_zero_holonomy(tmp_path, capsys):
    code = main(["nonabelianize", "--input", fx("p1p1_n4"),
                 "--out", str(tmp_path), "--holonomy", "0"])
    assert code == 1


def test_verify_command(tmp_path):
    assert main(["verify", "--input", fx("p2_n3"), "--seed", "3"]) == 0


def test_render_deterministic(tmp_path):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    assert main(["render", "--input", fx("fan5_n5"), "--out", str(a)]) == 0
    assert main(["render", "--input", fx("fan5_n5"), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_build_outputs_byte_identical(tmp_path):
    d1 = tmp_path / "run1"
    d2 = tmp_path / "run2"
    for d in (d1, d2):
        assert main(["build", "--input", fx("fan5_n5"), "--out", str(d)]) == 0
    assert (d1 / "network.json").read_bytes() == \
        (d2 / "network.json").read_bytes()
    assert (d1 / "network.svg").read_bytes() == (d2 / "network.svg").read_bytes()


def test_json_report_mode(capsys):
    code = main(["validate", "--input", fx("p2_n3"), "--report", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == schema.REPORT_SCHEMA
    assert all(s["status"] == "pass" for s in doc["stages"])


def test_network_round_trip(p2, p2_built, tmp_path):
    # the network and its layout are parsed onto the least grid of their
    # points, which may be coarser than the builder's: the rational points
    # are the same
    net, layout, cover = p2_built
    doc = schema.emit_network(net)
    spec = schema.load_problem(fx("p2_n3"))
    net2 = schema.parse_network(spec.disk, doc)
    assert [rational(net2.layout, w.polyline) for w in net2.walls] == \
        [rational(layout, w.polyline) for w in net.walls]
    assert [w.label for w in net2.walls] == [w.label for w in net.walls]
    assert schema.emit_network(net2) == doc


def test_matrix_round_trip(p2, p2_built):
    from toricnets.cover import make_local_system
    from toricnets.nonabelian import kaneyama_cocycle
    net, layout, cover = p2_built
    ls = make_local_system(cover, [])
    coc = kaneyama_cocycle(net, p2.tms, cover, ls)
    m = pair(coc, 0, 1)
    assert parse_matrix(emit_matrix(m), 2) == m
    assert emit_matrix(m) == coc.written[(0, 1)]


def _json_stages(capsys):
    return json.loads(capsys.readouterr().out)["stages"]


def _write_edited(tmp_path, edit):
    data = json.loads((FIXTURES / "p2_n3.json").read_text())
    edit(data)
    p = tmp_path / "edited.json"
    p.write_text(json.dumps(data))
    return str(p)


def _with_network(edit):
    """An edit that adds the built network, as ``build`` writes it, then
    ``edit``s."""
    def apply(data):
        spec = schema.parse_problem(data)
        data["network"] = schema.emit_network(
            build_network(spec.tms, spec.disk)[0])
        edit(data)
    return apply


def _slope(value):
    return lambda d: d["multisection"]["lifted_cones"][0].update(slope=value)


def _cut(**fields):
    return _with_network(
        lambda d: d["network"]["layout"]["cuts"][0].update(fields))


def _move_branch_point_and_walls(data):
    # branch point 0 and its walls' first points move by 1/1000; the cut
    # still starts at the old point
    def moved(p):
        return [str(Fraction(p[0]) + Fraction(1, 1000)), p[1]]

    points = data["network"]["layout"]["branch_points"]
    for w in data["network"]["walls"]:
        if w["branch"] == 0:
            w["polyline"][0] = moved(w["polyline"][0])
    points[0] = moved(points[0])


_moved_branch_point = _with_network(_move_branch_point_and_walls)
_empty_wall_polyline = _with_network(
    lambda d: d["network"]["walls"][0].update(polyline=[]))
_one_point_wall = _with_network(
    lambda d: d["network"]["walls"][0].update(
        polyline=d["network"]["walls"][0]["polyline"][:1]))
_short_wall_label = _with_network(
    lambda d: d["network"]["walls"][0].update(label=[0]))


def _doubled_first_point(polyline):
    polyline.insert(0, polyline[0])


_doubled_wall_point = _with_network(
    lambda d: _doubled_first_point(d["network"]["walls"][0]["polyline"]))
_doubled_cut_point = _with_network(
    lambda d: _doubled_first_point(
        d["network"]["layout"]["cuts"][0]["polyline"]))


@pytest.mark.parametrize("edit, argv", [
    (lambda d: d["multisection"]["lifted_cones"][0].pop("slope"),
     ["validate"]),
    (lambda d: d["multisection"]["lifted_rays"][0].update(ray="one"),
     ["validate"]),
    (_with_network(lambda d: d["network"].update(
        layout={"branch_points": []})), ["validate"]),
    (lambda d: None, ["nonabelianize", "--holonomy", "abc"]),
    (lambda d: None, ["nonabelianize", "--holonomy", "1/0"]),
    (lambda d: d.update(holonomies=""), ["nonabelianize"]),
    (_empty_wall_polyline, ["validate"]),
    (_empty_wall_polyline, ["render"]),
    (_slope([0]), ["validate"]),
    (_slope([0]), ["build"]),
    (_slope([0, 0, 0]), ["validate"]),
    (_slope(["0", "0"]), ["validate"]),
    (_slope([0.5, 0]), ["validate"]),
    (_short_wall_label, ["validate"]),
    (_cut(transposition=[0]), ["validate"]),
    (_cut(transposition=[0, 1, 1]), ["render"]),
    (_cut(polyline=[]), ["validate"]),
    (_cut(polyline=[]), ["verify"]),
    (_cut(polyline=[["0", "0"]]), ["render"]),
    (lambda d: d["multisection"].update(degree=2.9), ["verify"]),
    (lambda d: d["multisection"]["lifted_cones"][0].update(cone="0"),
     ["validate"]),
    (lambda d: d["fan"].update(rays=[[1.3, 0], [0, 1], [-1, -1]]),
     ["validate"]),
    (lambda d: d.update(support=[0.5, 0, -1]), ["validate"]),
    (_with_network(lambda d: d["network"]["walls"][0].update(branch=False)),
     ["validate"]),
    (_moved_branch_point, ["validate"]),
    (_doubled_wall_point, ["validate"]),
    (_doubled_cut_point, ["validate"]),
], ids=["cone-without-slope", "non-integer-ray", "layout-without-cuts",
        "holonomy-not-rational", "holonomy-zero-denominator",
        "holonomies-not-a-list",
        "empty-wall-polyline-validate", "empty-wall-polyline-render",
        "one-integer-slope-validate", "one-integer-slope-build",
        "three-integer-slope", "string-slope", "fractional-slope",
        "one-integer-wall-label",
        "one-integer-transposition", "three-integer-transposition",
        "empty-cut-polyline-validate", "empty-cut-polyline-verify",
        "one-point-cut-polyline", "fractional-degree", "string-cone",
        "fractional-fan-ray", "fractional-support", "bool-wall-branch",
        "moved-branch-point", "doubled-wall-point", "doubled-cut-point"])
def test_malformed_input_is_reported_not_raised(tmp_path, capsys, edit, argv):
    code = main([argv[0], "--input", _write_edited(tmp_path, edit),
                 "--out", str(tmp_path / "out"), "--report", "json"]
                + argv[1:])
    stages = _json_stages(capsys)
    assert code == 1
    assert stages[-1]["status"] == "fail"


@pytest.mark.parametrize("value", ["12", "", {"1": 2}],
                         ids=["string", "empty-string", "object"])
def test_holonomies_must_be_a_list(value):
    # fan5_n5 takes two holonomies: read character by character, "12"
    # would pass as [1, 2]
    data = json.loads((FIXTURES / "fan5_n5.json").read_text())
    data["holonomies"] = value
    with pytest.raises(SchemaError, match="holonomies must be a list"):
        schema.parse_problem(data)


@pytest.mark.parametrize("name, holonomies, detail", [
    ("p2_n3", ["1", "2", "3", "4"], "need 0 holonomies, got 4"),
    ("p1p1_n4", ["2", "3"], "need 1 holonomies, got 2"),
    ("p1p1_n4", ["0"], "holonomies must be nonzero"),
    ("line_bundle_r1", ["2"], "need 0 holonomies, got 1")])
def test_validate_checks_the_document_holonomies(name, holonomies, detail,
                                                 tmp_path, capsys):
    # validate rejects the holonomies nonabelianize rejects, with its
    # message, in a last failed stage; b1 is read from the multi-section
    data = json.loads((FIXTURES / f"{name}.json").read_text())
    data["holonomies"] = holonomies
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(data))
    for command, last in (("validate", "holonomies"),
                          ("nonabelianize", "holonomies")):
        code = main([command, "--input", str(path), "--out", str(tmp_path),
                     "--report", "json"])
        assert code == 1
        assert _json_stages(capsys)[-1] == \
            {"name": last, "status": "fail", "detail": detail}


def test_validate_adds_no_stage_for_good_holonomies(tmp_path, capsys):
    # p1p1_n4 gives its one holonomy: the report is that of the document
    # without holonomies
    data = json.loads((FIXTURES / "p1p1_n4.json").read_text())
    path = tmp_path / "doc.json"
    reports = []
    for holonomies in (["2"], []):
        path.write_text(json.dumps(dict(data, holonomies=holonomies)))
        assert main(["validate", "--input", str(path), "--report", "json"]) \
            == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("name, holonomy, detail", [
    ("p1p1_n4", "2,3", "need 1 holonomies, got 2"),
    ("p2_n3", "3/2,2,5/7,4", "need 0 holonomies, got 4"),
    ("fan5_n5", "1,0", "holonomies must be nonzero")])
def test_nonabelianize_fails_the_holonomies_stage_on_bad_holonomies(
        name, holonomy, detail, tmp_path, capsys):
    # --holonomy is checked as a document's holonomies are, in a last
    # failed stage, and no cocycle is written
    code = main(["nonabelianize", "--input", fx(name), "--out",
                 str(tmp_path), "--holonomy", holonomy, "--report", "json"])
    assert code == 1
    assert _json_stages(capsys)[-1] == \
        {"name": "holonomies", "status": "fail", "detail": detail}
    assert not (tmp_path / "cocycle.json").exists()


CHECKS = ["validate", "classify", "n_genericity", "parity"]


@pytest.mark.parametrize("name, holonomy, stages, detail", [
    ("p1p1_n4", "3/2,2,5/7,4", CHECKS + ["holonomies"],
     "need 1 holonomies, got 4"),
    ("p1p1_n4", "0", CHECKS + ["holonomies"], "holonomies must be nonzero"),
    ("p1p1_n4", "3/2,x", CHECKS + ["error"],
     "--holonomy '3/2,x' is not a list of rationals"),
    ("fan5_n5", "2", CHECKS + ["holonomies"], "need 2 holonomies, got 1"),
    ("line_bundle_r1", "2", ["validate", "holonomies"],
     "need 0 holonomies, got 1"),
    ("p2_n1", "3/2,x", CHECKS + ["build"], "N = 1 < 3 admits no embedded")],
    ids=["wrong-count", "zero", "unparsed", "too-few", "degree-1",
         "not-realizable"])
def test_nonabelianize_decides_its_holonomies_before_the_build(
        name, holonomy, stages, detail, tmp_path, capsys, monkeypatch):
    # b1 is read from the multi-section once the parity stage passes (0 in
    # degree 1), so a bad --holonomy fails with no build stage before it
    # and no network built; a multi-section with no realizable network
    # still fails its build first
    from toricnets import builder
    builds = count_calls(monkeypatch, builder, "build_network")
    code = main(["nonabelianize", "--input", fx(name), "--out",
                 str(tmp_path), "--holonomy", holonomy, "--report", "json"])
    got = _json_stages(capsys)
    assert code == 1
    assert [s["name"] for s in got] == stages
    assert [s["status"] for s in got] == ["pass"] * (len(stages) - 1) + \
        ["fail"]
    assert got[-1]["detail"].startswith(detail)
    assert len(builds) == (stages[-1] == "build")
    assert not (tmp_path / "cocycle.json").exists()


@pytest.mark.parametrize("holonomy", ["1,,2", "1,2,"])
def test_empty_holonomy_entry_is_a_parse_error(holonomy, tmp_path, capsys):
    # fan5_n5 takes two holonomies, so dropping the empty entry would pass
    code = main(["nonabelianize", "--input", fx("fan5_n5"),
                 "--out", str(tmp_path), "--holonomy", holonomy,
                 "--report", "json"])
    stage = _json_stages(capsys)[-1]
    assert code == 1
    assert (stage["name"], stage["status"]) == ("error", "fail")
    assert stage["detail"].startswith(
        f"--holonomy {holonomy!r} is not a list of rationals")
    assert not (tmp_path / "cocycle.json").exists()


@pytest.mark.parametrize("edit, name", [(_doubled_wall_point, "wall 0"),
                                         (_doubled_cut_point, "cut 0")])
def test_repeated_polyline_point_is_a_schema_error(edit, name):
    # a repeated point leaves a wall's or cut's image unchanged but makes a
    # zero-length segment: p1p1_n4 with wall 0's first point doubled
    # validated with three false violations, and with cut 0's first point
    # doubled gave branch point 0 a zero cut direction
    data = json.loads((FIXTURES / "p1p1_n4.json").read_text())
    edit(data)
    with pytest.raises(SchemaError,
                       match=f"^{name} has two equal consecutive points$"):
        schema.parse_problem(data)


def test_moved_branch_point_is_a_schema_error():
    # the layout stores each branch point once, as its cut's first point;
    # a document whose branch point is not there is rejected on parsing
    data = json.loads((FIXTURES / "p2_n3.json").read_text())
    _moved_branch_point(data)
    with pytest.raises(SchemaError, match="one cut per branch point"):
        schema.parse_problem(data)


@pytest.mark.parametrize("ray", [3, -1])
@pytest.mark.parametrize("command", ["validate", "build"])
def test_lifted_ray_out_of_range_fails_with_a_report(command, ray, tmp_path,
                                                     capsys):
    # p2_n3 with an extra lifted ray over ray 3 or -1: it joins no ray's
    # matching, and validated clean with the ray dropped; it is a
    # structure violation naming the ray
    path = _write_edited(tmp_path, lambda d: d["multisection"][
        "lifted_rays"].append({"ray": ray, "from": "c6", "to": "c1"}))
    code = main([command, "--input", path, "--out", str(tmp_path / "out"),
                 "--report", "json"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in out + err
    stages = json.loads(out)["stages"]
    message = f"lifted ray c6->c1 over unknown ray {ray}"
    assert message in json.dumps(stages[-1]["detail"])
    assert not (tmp_path / "out" / "network.json").exists()


@pytest.mark.parametrize("edit, path, key", [
    (lambda d: d.update(holonomy=["2"]), "the problem document", "holonomy"),
    (lambda d: d["fan"].update(ray=[]), "fan", "ray"),
    (lambda d: d["multisection"].update(lifted_cone=[]), "multisection",
     "lifted_cone"),
    (lambda d: d["multisection"]["lifted_cones"][2].update(slopes=[0, 0]),
     "multisection.lifted_cones[2]", "slopes"),
    (lambda d: d["multisection"]["lifted_rays"][0].update(rays=0),
     "multisection.lifted_rays[0]", "rays"),
    (_with_network(lambda d: d["network"]["layout"].update(cut=[])),
     "network.layout", "cut"),
    (_with_network(lambda d: d["network"]["layout"]["cuts"][0].update(
        edges=0)), "network.layout.cuts[0]", "edges"),
    (_with_network(lambda d: d["network"].update(wall=[])), "network",
     "wall"),
    (_with_network(lambda d: d["network"]["walls"][2].update(branch_point=0)),
     "network.walls[2]", "branch_point"),
], ids=["top-level", "fan", "multisection", "lifted-cone", "lifted-ray",
        "layout", "cut", "network", "wall"])
def test_unknown_key_is_a_schema_error(edit, path, key, tmp_path, capsys):
    # p1p1_n4 takes one holonomy: a misspelt top-level "holonomy" ran with
    # the all-one system, and an unknown key at any of these levels was
    # ignored; each is a schema error naming its path, so every command
    # ends in exit 1 on a failed last stage.  The network levels hold
    # p1p1_n4's built network, as ``emit_network`` writes it
    data = json.loads((FIXTURES / "p1p1_n4.json").read_text())
    edit(data)
    message = f"unknown key {key!r} in {path}; expected one of "
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}"):
        schema.parse_problem(data)
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(data))
    for command in ("validate", "nonabelianize"):
        code = main([command, "--input", str(doc), "--out", str(tmp_path),
                     "--report", "json"])
        stage = _json_stages(capsys)[-1]
        assert code == 1
        assert stage["status"] == "fail"
        assert stage["detail"].startswith(message)
    assert not (tmp_path / "cocycle.json").exists()


@pytest.mark.parametrize("name", ["p2_n3", "p1p1_n4", "fan5_n5", "fan7_n7"])
def test_built_network_embeds_as_written(name, tmp_path, capsys):
    # the network.json build writes, spliced byte for byte into the
    # document as its network, validates clean and draws as build drew it
    built = tmp_path / "built"
    assert main(["build", "--input", fx(name), "--out", str(built)]) == 0
    problem = (FIXTURES / f"{name}.json").read_text().lstrip()
    path = tmp_path / "doc.json"
    path.write_text('{"network": ' + (built / "network.json").read_text()
                    + ", " + problem[1:])
    capsys.readouterr()
    assert main(["validate", "--input", str(path), "--report", "json"]) == 0
    assert {"name": "network", "status": "pass",
            "detail": {"ok": True, "violations": []}} in _json_stages(capsys)
    figure = tmp_path / "figure.svg"
    assert main(["render", "--input", str(path), "--out", str(figure)]) == 0
    assert figure.read_bytes() == (built / "network.svg").read_bytes()


def _layout_given_twice(data):
    # the layout copied to the top level; the network's own moves branch
    # point 0, swaps (0, 0) at cut 0 and names another schema
    data["layout"] = json.loads(json.dumps(data["network"]["layout"]))
    _move_branch_point_and_walls(data)
    data["network"]["layout"]["cuts"][0]["transposition"] = [0, 0]
    data["network"]["schema"] = "not/a.schema"


def _layout_without_network(data):
    data["layout"] = data.pop("network")["layout"]
    data["layout"]["cuts"][0]["transposition"] = [0, 0]


_TOP_LEVEL_LAYOUT = ("unknown key 'layout' in the problem document; "
                     "expected one of fan, holonomies, multisection, network, "
                     "schema, support")


@pytest.mark.parametrize("edit, message", [
    (_with_network(_layout_given_twice), _TOP_LEVEL_LAYOUT),
    (_with_network(_layout_without_network), _TOP_LEVEL_LAYOUT),
    (_with_network(lambda d: d["network"].pop("layout")),
     "missing required field 'layout'"),
    (_with_network(lambda d: d["network"].update(schema="not/a.schema")),
     "unknown network schema 'not/a.schema'; expected "
     "toricnets/network.v1"),
    (_with_network(lambda d: d["network"].pop("schema")),
     "missing required field 'schema'"),
    (_one_point_wall, "wall 0 needs two points, got 1"),
    (_cut(polyline=[["0", "0"]]), "cut 0 needs two points, got 1"),
], ids=["layout-given-twice", "layout-only",
        "network-without-layout", "other-network-schema",
        "network-without-schema", "one-point-wall", "one-point-cut"])
@pytest.mark.parametrize("command", ["validate", "render"])
def test_embedded_network_is_read_whole(command, edit, message, tmp_path,
                                        capsys):
    # p2_n3 with its built network: a document embeds the network as
    # build writes it and nothing else.  A layout at the top level was the
    # one read, with or without a network, while the network's own layout
    # and schema went unread: a broken one validated clean and was drawn.
    # A one-point wall parsed, and was drawn
    path = _write_edited(tmp_path, edit)
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        schema.load_problem(path)
    code = main([command, "--input", path, "--out",
                 str(tmp_path / "out.svg"), "--report", "json"])
    assert code == 1
    assert _json_stages(capsys)[-1] == \
        {"name": "error", "status": "fail", "detail": message}
    assert not (tmp_path / "out.svg").exists()


def test_embedded_layout_is_the_one_validated(tmp_path, capsys):
    # p2_n3's built network with cut 0 swapping (0, 0): the network's own
    # layout is the one validate builds the cover on, so the swap fails,
    # and it fails the network stage, where the cover is built
    path = _write_edited(tmp_path, _cut(transposition=[0, 0]))
    assert main(["validate", "--input", path, "--report", "json"]) == 1
    assert _json_stages(capsys)[-1] == {
        "name": "network", "status": "fail",
        "detail": "cut transposition (0, 0) is not a valid swap"}


def test_render_fails_on_a_layout_the_cover_rejects(tmp_path, capsys):
    # the same network: render builds the cover of the embedded layout in
    # its stage, so the swap fails render with exit 1 and no figure
    path = _write_edited(tmp_path, _cut(transposition=[0, 0]))
    figure = tmp_path / "figure.svg"
    assert main(["render", "--input", path, "--out", str(figure),
                 "--report", "json"]) == 1
    assert _json_stages(capsys) == [
        {"name": "render", "status": "fail",
         "detail": "cut transposition (0, 0) is not a valid swap"}]
    assert not figure.exists()


@pytest.mark.parametrize("name, message", [
    ("p2_n1", "N = 1 < 3 admits no embedded realization"),
    ("p2_split_n0", "N = 0 < 3 admits no embedded realization")])
def test_render_fails_on_a_multisection_the_builder_rejects(
        name, message, tmp_path, capsys):
    # with a multi-section and no embedded network, render draws the
    # network the builder builds: a multi-section the builder cannot
    # realize fails render with the builder's error, exit 1 and no
    # figure, as it fails build
    figure = tmp_path / "figure.svg"
    assert main(["render", "--input", fx(name), "--out", str(figure),
                 "--report", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["stages"] == [
        {"name": "render", "status": "fail", "detail": message}]
    assert report["artifacts"] == [] and not figure.exists()
    assert main(["build", "--input", fx(name), "--out",
                 str(tmp_path / "build"), "--report", "json"]) == 1
    assert _json_stages(capsys)[-1] == {
        "name": "build", "status": "fail", "detail": message}


def _degree_three(data):
    # p2_split_n0 with a third global sheet of slope (3, 3): a valid
    # degree-3 split multi-section, with p2_n3's built network embedded
    split = json.loads((FIXTURES / "p2_split_n0.json").read_text())
    ms = split["multisection"]
    ms["degree"] = 3
    ms["lifted_cones"] += [{"id": f"v{i}", "cone": i, "slope": [3, 3]}
                           for i in range(3)]
    ms["lifted_rays"] += [{"ray": i, "from": f"v{(i - 1) % 3}",
                           "to": f"v{i}"} for i in range(3)]
    data["multisection"] = ms


@pytest.mark.parametrize("command, stage", [("validate", "network"),
                                            ("render", "render")])
def test_a_network_of_degree_three_is_not_two_fold(command, stage, tmp_path,
                                                   capsys):
    # no cover of three sheets is built: the stage that would build it
    # fails with NotTwoFold first
    path = _write_edited(tmp_path, _with_network(_degree_three))
    figure = tmp_path / "figure.svg"
    assert main([command, "--input", path, "--out", str(figure),
                 "--report", "json"]) == 1
    stages = _json_stages(capsys)
    assert [s["status"] for s in stages] == ["pass"] * (len(stages) - 1) + [
        "fail"]
    assert stages[-1] == {"name": stage, "status": "fail",
                          "detail": "a cover has one or two sheets, not 3"}
    assert not figure.exists()


def _without_multisection(data):
    del data["multisection"]
    data["network"]["walls"][0]["label"] = [0, 5]


def test_a_network_without_a_multisection_fails_its_stage(tmp_path, capsys):
    # p2_n3 with no multisection and its built network embedded, wall 0
    # labelled (0, 5): the network has nothing to be validated against.
    # It passed validate with only a fan stage; render still draws it
    path = _write_edited(tmp_path, _with_network(_without_multisection))
    assert main(["validate", "--input", path, "--report", "json"]) == 1
    assert _json_stages(capsys) == [
        {"name": "fan", "status": "pass",
         "detail": {"ok": True, "violations": []}},
        {"name": "network", "status": "fail",
         "detail": "an embedded network needs a multisection to be "
                   "validated against"}]
    figure = tmp_path / "figure.svg"
    assert main(["render", "--input", path, "--out", str(figure)]) == 0
    spec = schema.load_problem(path)
    assert figure.read_text() == render_svg(spec.disk, spec.network,
                                            spec.network.layout)


def test_a_support_that_is_not_strictly_convex_fails_the_fan_stage(
        tmp_path, capsys):
    # p2_n3 with support value 2 at ray 2 and no network: the polygon is
    # built in the fan stage, which fails; it was a generic error stage
    def edit(data):
        data["support"][2] = 2
    path = _write_edited(tmp_path, edit)
    assert main(["validate", "--input", path, "--report", "json"]) == 1
    assert _json_stages(capsys) == [
        {"name": "fan", "status": "fail",
         "detail": "support function is not strictly convex across ray 2"}]


def test_a_support_that_is_not_strictly_convex_fails_the_render_stage(
        tmp_path, capsys):
    # the same support at render: the polygon, the network and the figure
    # are built in the render stage, which fails and writes no figure; it
    # was a generic error stage
    def edit(data):
        data["support"][2] = 2
    path = _write_edited(tmp_path, edit)
    figure = tmp_path / "figure.svg"
    assert main(["render", "--input", path, "--out", str(figure),
                 "--report", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["stages"] == [
        {"name": "render", "status": "fail",
         "detail": "support function is not strictly convex across ray 2"}]
    assert report["artifacts"] == [] and not figure.exists()


_CORNER_CHORD = {"id": 7, "label": [0, 1], "end_edge": 1, "end_cone": 0,
                 "polyline": [["0", "1/8"], ["1/8", "0"]]}


@pytest.mark.parametrize("wall, message", [
    (dict(_CORNER_CHORD, branch=None),
     "the branch of wall 7 must be an integer, got None"),
    (_CORNER_CHORD, "missing required field 'branch'"),
], ids=["null-branch", "missing-branch"])
@pytest.mark.parametrize("command", ["validate", "render"])
def test_wall_without_a_branch_point_is_a_schema_error(command, wall, message,
                                                       tmp_path, capsys):
    # p2_n3's built network plus a chord across the corner at vertex
    # (0, 0) naming no branch point: it validated clean and was drawn as
    # a wall.  Every wall is an arm of its declared branch point
    path = _write_edited(tmp_path, _with_network(
        lambda d: d["network"]["walls"].append(dict(wall))))
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        schema.load_problem(path)
    code = main([command, "--input", path, "--out",
                 str(tmp_path / "out.svg"), "--report", "json"])
    stage = _json_stages(capsys)[-1]
    assert code == 1
    assert stage == {"name": "error", "status": "fail", "detail": message}
    assert not (tmp_path / "out.svg").exists()


@pytest.mark.parametrize("edge", [3, -1])
def test_cut_edge_out_of_range_is_a_schema_error(edge):
    # p2_n3 has edges 0..2 and its cut lands on edge 2.  Read mod 3, edge
    # -1 is that edge, and the cut failed validation as meeting the spoke
    # of ray 2 where it lands on its barycenter exactly
    data = json.loads((FIXTURES / "p2_n3.json").read_text())
    _cut(edge=edge)(data)
    with pytest.raises(SchemaError,
                       match=f"^cut 0 lands on edge {edge}, not one of the "
                             r"3 edges 0\.\.2$"):
        schema.parse_problem(data)


def test_validate_reports_out_of_range_wall_label(p2_built, tmp_path, capsys):
    # a sheet label or a branch-point index outside the network is a
    # violation of its condition, with the wall as witness
    net, _, _ = p2_built
    for key, value, condition in [("label", [0, 5], "2"), ("branch", 7, "5"),
                                  ("branch", -1, "5")]:
        def edited(data):
            data["network"] = schema.emit_network(net)
            data["network"]["walls"][0][key] = value

        code = main(["validate", "--input", _write_edited(tmp_path, edited),
                     "--report", "json"])
        stage = _json_stages(capsys)[-1]
        assert code == 1
        assert (stage["name"], stage["status"]) == ("network", "fail")
        violations = stage["detail"]["violations"]
        if key == "label":
            assert [v["condition"] for v in violations] == [condition]
        else:
            assert (condition, "0") in [(v["condition"], v["witness"])
                                        for v in violations]


@pytest.mark.parametrize("name, branch, violations", [
    ("p2_n3", 5, [("5", "wall 0 names an unknown branch point 5", "0"),
                  ("3", "branch point 0 has 2 walls, not 3", "0")]),
    ("p2_n3", -1, [("5", "wall 0 names an unknown branch point -1", "0"),
                   ("3", "branch point 0 has 2 walls, not 3", "0")]),
    ("fan5_n5", 1, [("5", "wall 0 does not start at its branch point", None),
                    ("3", "branch point 0 has 2 walls, not 3", "0"),
                    ("3", "branch point 1 has 4 walls, not 3", "1")])])
def test_wrong_branch_name_reports_only_the_name(name, branch, violations,
                                                 tmp_path, capsys):
    # wall 0 still starts at branch point 0 and meets the other walls only
    # there: naming another branch point, or an unknown one, breaks
    # conditions 5 and 3 by the name alone, and neither a wall passing
    # through a branch point nor walls intersecting away from one is
    # reported
    data = json.loads((FIXTURES / f"{name}.json").read_text())
    spec = schema.parse_problem(data)
    data["network"] = schema.emit_network(
        build_network(spec.tms, spec.disk)[0])
    data["network"]["walls"][0]["branch"] = branch
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--input", str(path), "--report", "json"]) == 1
    stage = _json_stages(capsys)[-1]
    assert (stage["name"], stage["status"]) == ("network", "fail")
    assert [(v["condition"], v["message"], v["witness"])
            for v in stage["detail"]["violations"]] == violations


@pytest.mark.parametrize("command", ["nonabelianize", "verify"])
def test_cli_run_builds_the_polygon_and_validates_once(command, tmp_path,
                                                       monkeypatch, capsys):
    # the problem spec keeps its polygon and disk model, the multi-section
    # its report, class and crossing cones: each is produced once per run
    spec = schema.load_problem(fx("fan5_n5"))
    assert spec.disk is spec.disk
    assert spec.disk.polytope is spec.polytope is spec.polytope
    polygons = count_calls(monkeypatch, fans, "dual_polytope")
    disks = count_calls(monkeypatch, fans, "disk_model")
    reports = count_calls(monkeypatch, multisection, "validate")
    classes = count_calls(monkeypatch, multisection, "classify_two_fold")
    assert main([command, "--input", fx("fan5_n5"),
                 "--out", str(tmp_path)]) == 0
    assert [len(polygons), len(disks), len(reports), len(classes)] == \
        [1, 1, 1, 1]


@pytest.mark.parametrize("command", ["nonabelianize", "verify"])
@pytest.mark.parametrize("name, branch_points", [("fan5_n5", 3),
                                                 ("fan7_n7", 5)])
def test_cli_run_locates_each_branch_point_once(command, name, branch_points,
                                                tmp_path, monkeypatch):
    # the layout stores the region of every cut, located on its grid; the
    # covers, the validator, the track events and the cut factors read it
    # from there
    locate = cover.GridPoints.region
    calls = []
    monkeypatch.setattr(cover.GridPoints, "region",
                        lambda grid, p: calls.append(p) or locate(grid, p))
    assert main([command, "--input", fx(name), "--out", str(tmp_path)]) == 0
    assert len(calls) == branch_points


@pytest.mark.parametrize("command", ["nonabelianize", "verify"])
@pytest.mark.parametrize("name", ["fan5_n5", "fan7_n7"])
def test_cli_run_builds_one_cover_and_one_lift_map(command, name, tmp_path,
                                                   monkeypatch):
    # the layout keeps the cover the builder validated, and the cover its
    # sheet/lift map: the run's later stages read both from there
    covers = count_calls(monkeypatch, cover, "build_cover")
    lifts = count_calls(monkeypatch, cover, "sheet_lift_map")
    assert main([command, "--input", fx(name), "--out", str(tmp_path)]) == 0
    assert (len(covers), len(lifts)) == (1, 1)


def test_verify_builds_each_wall_factor_once_per_system(tmp_path,
                                                         monkeypatch):
    # fan5_n5: 9 walls, all of them arms of its 3 cuts.  verify builds one
    # factor table, the symbolic one of the loop proof, whose steps the
    # seeded cocycle evaluates.  It builds each wall's constant once, where
    # the branch-point loop crosses it first; the boundary track reads the
    # same constant where it crosses the wall elsewhere: 9.
    walls = count_calls(monkeypatch, nonabelian, "wall_factor")
    assert main(["verify", "--input", fx("fan5_n5"),
                 "--out", str(tmp_path)]) == 0
    assert len(walls) == 9
    assert len({wall.id for wall, _ in walls}) == 9
    assert len({id(factors) for _, factors in walls}) == 1


# -- seeded fuzz of fixture documents through every command --------------------

FUZZ_VALUES = {"wrong type": ["wrong", "1/0", {}, 0.5, True], "zero": [0],
               "negative": [-1], "huge": [10 ** 12], "null": [None],
               "empty list": [[]]}


def _json_paths(node, prefix=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


def _mutated(doc, rng):
    """A copy of ``doc`` with one seeded edit: a key deleted, or a value
    replaced by one of the wrong type, zero, negative, huge, null or an
    empty list."""
    doc = json.loads(json.dumps(doc))
    *head, last = rng.choice(list(_json_paths(doc)))
    parent = doc
    for key in head:
        parent = parent[key]
    kind = rng.choice(["delete"] + sorted(FUZZ_VALUES))
    if kind == "delete":
        del parent[last]
    else:
        parent[last] = rng.choice(FUZZ_VALUES[kind])
    return doc


def _fuzz_documents():
    """Every fixture document, and each realizable one with its built
    network, as ``build`` writes it."""
    for path in sorted(FIXTURES.glob("*.json")):
        doc = json.loads(path.read_text())
        yield path.stem, doc
        if path.stem in REALIZABLE:
            spec = schema.parse_problem(doc)
            net, _ = build_network(spec.tms, spec.disk)
            yield f"{path.stem}+network", dict(
                doc, network=schema.emit_network(net))


def test_fuzzed_fixtures_end_in_a_report(tmp_path, capsys):
    # any document ends in exit 0 or 1 with a report whose stages say why;
    # an exception other than a typed ToricNetsError fails the test
    rng = random.Random(20261018)
    path = tmp_path / "fuzzed.json"
    codes = set()
    for name, doc in _fuzz_documents():
        for _ in range(12):
            path.write_text(json.dumps(_mutated(doc, rng)))
            for command in ("validate", "build", "nonabelianize", "verify",
                            "render"):
                code = main([command, "--input", str(path), "--out",
                             str(tmp_path / "out"), "--report", "json"])
                stages = _json_stages(capsys)
                assert stages, (name, command)
                passed = all(s["status"] == "pass" for s in stages)
                assert code == (0 if passed else 1), (name, command)
                codes.add(code)
    assert codes == {0, 1}


# -- input checks, each pinned to its stage and message --------------------

def _run(tmp_path, capsys, command, doc):
    """Exit code, report stages and standard error of ``command`` on the
    JSON document ``doc``."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main([command, "--input", str(path), "--out",
                 str(tmp_path / "out"), "--report", "json"])
    captured = capsys.readouterr()
    return code, json.loads(captured.out)["stages"], captured.err


def _p2_n3(**fields):
    return dict(json.loads((FIXTURES / "p2_n3.json").read_text()), **fields)


def _failed(stage, detail):
    return {"name": stage, "status": "fail", "detail": detail}


@pytest.mark.parametrize("doc", [[], "x", 1, None],
                         ids=["list", "string", "number", "null"])
def test_a_document_that_is_not_an_object_fails(doc, tmp_path, capsys):
    assert _run(tmp_path, capsys, "validate", doc) == (
        1, [_failed("error", "problem document must be an object")], "")


@pytest.mark.parametrize("edit, shown", [
    (lambda d: d.pop("schema"), "None"),
    (lambda d: d.update(schema="toricnets/problem.v0"),
     "'toricnets/problem.v0'")], ids=["missing", "wrong"])
def test_a_document_needs_the_problem_schema(edit, shown, tmp_path, capsys):
    doc = _p2_n3()
    edit(doc)
    assert _run(tmp_path, capsys, "validate", doc) == (1, [_failed(
        "error", f"unknown schema {shown}; expected toricnets/problem.v1")],
        "")


@pytest.mark.parametrize("rays, support, message", [
    ([], [], "empty ray list"),
    ([[1, 0], [0, 1], [-1, -1], [1, 0]], [0, 0, -1, 0],
     "duplicate ray directions"),
    ([[1, 0], [0, 1]], [0, 0],
     "a complete fan in the plane needs at least 3 rays"),
    ([[1, 0], [-1, -1], [0, 1]], [0, -1, 0],
     "rays (1, 0) -> (-1, -1) do not bound a convex cone in ccw order"),
    ([[1, 0], [0, 1], [-1, -1]], [0, 0],
     "one value per ray required"),
], ids=["empty", "duplicate", "two-rays", "not-ccw-convex",
        "support-count"])
def test_a_bad_fan_or_support_fails_with_its_message(rays, support, message,
                                                     tmp_path, capsys):
    # the duplicate and the two-ray fan also fail the ccw-convexity check
    # further on, with another message: each is refused by its own check
    doc = _p2_n3(fan={"rays": rays}, support=support)
    del doc["multisection"]
    assert _run(tmp_path, capsys, "validate", doc) == (
        1, [_failed("error", message)], "")


@pytest.mark.parametrize("command", ["build", "nonabelianize", "verify"])
def test_a_pipeline_command_needs_a_multisection(command, tmp_path, capsys):
    doc = _p2_n3()
    del doc["multisection"]
    assert _run(tmp_path, capsys, command, doc) == (
        1, [_failed("error", "this command needs a multisection")], "")


def _global_degree_three():
    """p2_n3's fan with three global sheets of slopes (0, 0), (1, 2) and
    (2, 4), each lifted ray joining a sheet's lifts over adjacent cones:
    continuous and separated (the sheets pair to 0 < 1 < 2, 0 < 2 < 4 and
    0 > -3 > -6 with the rays), so a valid multi-section of degree 3."""
    slopes = [[0, 0], [1, 2], [2, 4]]
    return _p2_n3(multisection={
        "degree": 3,
        "lifted_cones": [{"id": f"s{k}c{i}", "cone": i, "slope": m}
                         for k, m in enumerate(slopes) for i in range(3)],
        "lifted_rays": [{"ray": i, "from": f"s{k}c{(i - 1) % 3}",
                         "to": f"s{k}c{i}"}
                        for k in range(3) for i in range(3)]})


def test_a_valid_multisection_of_degree_three_is_not_two_fold(tmp_path,
                                                              capsys):
    # validate accepts it; the pipeline refuses it at classify, by name
    doc = _global_degree_three()
    code, stages, err = _run(tmp_path, capsys, "validate", doc)
    assert (code, err) == (0, "")
    assert [s["name"] for s in stages] == ["fan", "multisection"]
    for command in ("build", "nonabelianize", "verify"):
        assert _run(tmp_path, capsys, command, doc) == (
            1, [{"name": "validate", "status": "pass", "detail": "ok"},
                _failed("classify", "degree is 3")], "")


def test_a_support_function_of_another_fan_is_refused():
    fan = fans.make_fan([(1, 0), (0, 1), (-1, -1)])
    other = fans.make_fan([(1, 0), (0, 1), (-1, 0), (0, -1)])
    with pytest.raises(NotStrictlyConvex,
                       match="support function belongs to another fan"):
        fans.dual_polytope(fan, fans.SupportFunction(other, [0, 0, -1, -1]))


def test_verify_fails_kaneyama_when_the_bundle_check_fails(monkeypatch,
                                                           capsys):
    failing = ValidationReport()
    failing.add("cocycle", "G_01 G_12 != G_02", (0, 1, 2))
    monkeypatch.setattr(nonabelian, "verify_bundle",
                        lambda coc, tms: failing)
    assert main(["verify", "--input", fx("p2_n3"), "--report", "json"]) == 1
    captured = capsys.readouterr()
    stages = json.loads(captured.out)["stages"]
    assert [s["status"] for s in stages[:-1]] == ["pass"] * (len(stages) - 1)
    assert stages[-1] == _failed(
        "kaneyama", "bundle verification failed: "
        "ValidationReport(cocycle: G_01 G_12 != G_02)")
    assert captured.err == ""
