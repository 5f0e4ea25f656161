import json
import random
from fractions import Fraction

import pytest

from support import FIXTURES, REALIZABLE, count_calls, parse_matrix

from toricnets import (cover, fans, multisection, network, nonabelian,
                       schema)
from toricnets.builder import build_network
from toricnets.cli import main
from toricnets.errors import ParseError, SchemaError


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
    net, layout, cover = p2_built
    doc = schema.emit_network(net)
    spec = schema.load_problem(fx("p2_n3"))
    spec.layout = schema.parse_layout(doc["layout"], spec.disk)
    net2 = schema.parse_network(doc, spec)
    assert [w.polyline for w in net2.walls] == [w.polyline for w in net.walls]
    assert [w.label for w in net2.walls] == [w.label for w in net.walls]
    assert schema.emit_network(net2) == doc


def test_matrix_round_trip(p2, p2_built):
    from toricnets.cover import make_local_system
    from toricnets.nonabelian import kaneyama_cocycle
    net, layout, cover = p2_built
    ls = make_local_system(cover, [])
    coc = kaneyama_cocycle(net, p2.tms, cover, ls)
    m = coc.pair(0, 1)
    assert parse_matrix(schema.emit_matrix(m), 2) == m


def _json_stages(capsys):
    return json.loads(capsys.readouterr().out)["stages"]


def _write_edited(tmp_path, edit):
    data = json.loads((FIXTURES / "p2_n3.json").read_text())
    edit(data)
    p = tmp_path / "edited.json"
    p.write_text(json.dumps(data))
    return str(p)


def _with_network(edit):
    """An edit that adds p2_n3's built network and layout, then ``edit``s."""
    def apply(data):
        spec = schema.parse_problem(data)
        net, layout = build_network(spec.tms, spec.disk)
        data["layout"] = schema.emit_layout(layout)
        data["network"] = schema.emit_network(net)
        edit(data)
    return apply


def _slope(value):
    return lambda d: d["multisection"]["lifted_cones"][0].update(slope=value)


def _cut(**fields):
    return _with_network(lambda d: d["layout"]["cuts"][0].update(fields))


def _move_branch_point_and_walls(data):
    # branch point 0 and its walls' first points move by 1/1000; the cut
    # still starts at the old point
    def moved(p):
        return [str(Fraction(p[0]) + Fraction(1, 1000)), p[1]]

    points = data["layout"]["branch_points"]
    for w in data["network"]["walls"]:
        if w["branch"] == 0:
            w["polyline"][0] = moved(w["polyline"][0])
    points[0] = moved(points[0])


_moved_branch_point = _with_network(_move_branch_point_and_walls)
_empty_wall_polyline = _with_network(
    lambda d: d["network"]["walls"][0].update(polyline=[]))
_short_wall_label = _with_network(
    lambda d: d["network"]["walls"][0].update(label=[0]))


def _doubled_first_point(polyline):
    polyline.insert(0, polyline[0])


_doubled_wall_point = _with_network(
    lambda d: _doubled_first_point(d["network"]["walls"][0]["polyline"]))
_doubled_cut_point = _with_network(
    lambda d: _doubled_first_point(d["layout"]["cuts"][0]["polyline"]))


@pytest.mark.parametrize("edit, argv", [
    (lambda d: d["multisection"]["lifted_cones"][0].pop("slope"),
     ["validate"]),
    (lambda d: d["multisection"]["lifted_rays"][0].update(ray="one"),
     ["validate"]),
    (lambda d: d.update(layout={"branch_points": []}), ["validate"]),
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


def test_validate_reports_out_of_range_wall_label(p2_built, tmp_path, capsys):
    # a sheet label or a branch-point index outside the network is a
    # violation of its condition, with the wall as witness
    net, layout, _ = p2_built
    for key, value, condition in [("label", [0, 5], "2"), ("branch", 7, "5"),
                                  ("branch", -1, "5")]:
        def edited(data):
            data["layout"] = schema.emit_layout(layout)
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


def test_cli_run_finds_each_wall_landing_once(tmp_path, monkeypatch):
    # fan7_n7: 15 walls.  The builder reads each wall's half-edge from the
    # edge parameter it chose, and the track reads the parameter on the
    # wall's stored edge; condition 6 of the validator reads it there too,
    # and searches the boundary only for a wall whose claimed edge does
    # not carry its end inside a half-edge: none of a built network's
    # walls
    half_edges = count_calls(monkeypatch, network,
                             "half_edge_of_boundary_point")
    positions = count_calls(monkeypatch, network, "boundary_position")
    assert main(["nonabelianize", "--input", fx("fan7_n7"),
                 "--out", str(tmp_path)]) == 0
    assert (len(half_edges), len(positions)) == (0, 0)


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
    # seeded cocycle evaluates.  It builds the 9 arm factors in their
    # cuts' regions, where the branch-point loops read them again, and the
    # 3 factors of the walls the boundary track crosses elsewhere: 12.
    walls = count_calls(monkeypatch, nonabelian, "wall_factor")
    assert main(["verify", "--input", fx("fan5_n5"),
                 "--out", str(tmp_path)]) == 0
    assert len(walls) == 12
    keys = [(wall.id, region, factors) for wall, region, factors in walls]
    assert len(set(keys)) == 12
    assert len({id(factors) for _, _, factors in walls}) == 1


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
    layout and network."""
    for path in sorted(FIXTURES.glob("*.json")):
        doc = json.loads(path.read_text())
        yield path.stem, doc
        if path.stem in REALIZABLE:
            spec = schema.parse_problem(doc)
            net, layout = build_network(spec.tms, spec.disk)
            yield f"{path.stem}+network", dict(
                doc, layout=schema.emit_layout(layout),
                network=schema.emit_network(net))


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
