"""Versioned JSON schema for problems, networks, cocycles, and reports.

One self-describing document format (``toricnets/problem.v1``) carries the
fan, the support function, the multi-section, optional holonomies, and an
optional explicit network+layout.  All rationals are strings accepted by
``Fraction`` ("p/q" or "p"), so round-trips are exact.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .cover import BranchCutLayout, Cut
from .errors import ParseError, SchemaError
from .fans import Fan, SupportFunction, dual_polytope, disk_model, make_fan
from .laurent import LaurentMatrix
from .multisection import LiftedCone, LiftedRay, TropicalMultiSection
from .network import SpectralNetwork, Wall

PROBLEM_SCHEMA = "toricnets/problem.v1"
NETWORK_SCHEMA = "toricnets/network.v1"
COCYCLE_SCHEMA = "toricnets/cocycle.v1"
REPORT_SCHEMA = "toricnets/report.v1"


def _frac(x):
    try:
        return Fraction(str(x))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {x!r}: {exc}")


def _frac_str(x):
    return str(Fraction(x))


def _point(obj):
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise SchemaError(f"bad point {obj!r}")
    return (_frac(obj[0]), _frac(obj[1]))


def _int(obj, what):
    """A JSON integer (not a bool, float or string); ``what`` names it."""
    if type(obj) is not int:
        raise SchemaError(f"{what} must be an integer, got {obj!r}")
    return obj


def _int_pair(obj, what):
    """Exactly two JSON integers, as a tuple; ``what`` names the field."""
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2
            and all(type(x) is int for x in obj)):
        raise SchemaError(f"{what} must be two integers, got {obj!r}")
    return tuple(obj)


def _point_out(p):
    return [_frac_str(p[0]), _frac_str(p[1])]


@dataclass
class ProblemSpec:
    fan: Fan
    phi: SupportFunction
    tms: TropicalMultiSection | None = None
    holonomies: list = field(default_factory=list)
    network: SpectralNetwork | None = None
    layout: BranchCutLayout | None = None
    raw: dict = field(default_factory=dict)

    # the fan and the support function are fixed once parsed, so the
    # polygon and the disk model are built once, on first use
    @cached_property
    def polytope(self):
        return dual_polytope(self.fan, self.phi)

    @cached_property
    def disk(self):
        return disk_model(self.fan, self.polytope)


def load_problem(path) -> ProblemSpec:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read problem file {path}: {exc}")
    return parse_problem(data)


def parse_problem(data) -> ProblemSpec:
    if not isinstance(data, dict):
        raise SchemaError("problem document must be an object")
    if data.get("schema") != PROBLEM_SCHEMA:
        raise SchemaError(
            f"unknown schema {data.get('schema')!r}; expected {PROBLEM_SCHEMA}")
    try:
        return _parse_sections(data)
    except KeyError as exc:
        raise SchemaError(f"missing required field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed problem document: {exc}") from exc


def _parse_sections(data) -> ProblemSpec:
    fan = make_fan([_int_pair(v, "a fan ray") for v in data["fan"]["rays"]])
    phi = SupportFunction(fan, [_int(v, "a support value")
                                for v in data["support"]])
    tms = None
    if "multisection" in data:
        ms = data["multisection"]
        cones = [LiftedCone(str(c["id"]), _int(c["cone"], "a lifted cone"),
                            _int_pair(c["slope"], "a lifted-cone slope"))
                 for c in ms["lifted_cones"]]
        ids = {c.id for c in cones}
        rays = []
        for r in ms["lifted_rays"]:
            src, dst = str(r["from"]), str(r["to"])
            if src not in ids or dst not in ids:
                raise SchemaError(f"lifted ray references unknown cone "
                                  f"{src!r} or {dst!r}")
            rays.append(LiftedRay(_int(r["ray"], "a lifted ray"), src, dst))
        tms = TropicalMultiSection(fan, _int(ms["degree"], "the degree"),
                                   cones, rays)
    holonomies = data.get("holonomies", [])
    if not isinstance(holonomies, list):
        raise SchemaError(f"holonomies must be a list, got {holonomies!r}")
    spec = ProblemSpec(fan, phi, tms, [_frac(h) for h in holonomies], raw=data)
    if "layout" in data:
        spec.layout = parse_layout(data["layout"], spec.disk)
    if "network" in data:
        if spec.layout is None:
            raise SchemaError("an explicit network requires a layout")
        spec.network = parse_network(data["network"], spec)
    return spec


def parse_layout(data, disk) -> BranchCutLayout:
    points = [_point(p) for p in data["branch_points"]]
    cuts = []
    for c in data["cuts"]:
        poly = tuple(_point(p) for p in c["polyline"])
        if len(poly) < 2:
            raise SchemaError(f"a cut polyline needs two points, got {len(poly)}")
        cuts.append(Cut(poly,
                        _int_pair(c["transposition"], "a cut transposition"),
                        _int(c["edge"], "a cut edge")))
    if points != [c.branch_point for c in cuts]:
        raise SchemaError("the layout needs one cut per branch point, "
                          "starting at it")
    return BranchCutLayout(disk, tuple(cuts))


def emit_layout(layout: BranchCutLayout) -> dict:
    return {
        "branch_points": [_point_out(p) for p in layout.branch_points],
        "cuts": [
            {"polyline": [_point_out(p) for p in c.polyline],
             "transposition": list(c.transposition),
             "edge": c.edge}
            for c in layout.cuts],
    }


def parse_network(data, spec: ProblemSpec) -> SpectralNetwork:
    walls = []
    for w in data["walls"]:
        wid = _int(w["id"], "a wall id")
        poly = tuple(_point(p) for p in w["polyline"])
        if not poly:
            raise SchemaError(f"wall {wid} has an empty polyline")
        branch = w.get("branch")
        walls.append(Wall(
            wid, poly, _int_pair(w["label"], f"the label of wall {wid}"),
            None if branch is None else _int(branch, f"the branch of wall {wid}"),
            _int(w["end_edge"], f"the end edge of wall {wid}"),
            _int(w["end_cone"], f"the end cone of wall {wid}")))
    return SpectralNetwork(walls, spec.layout)


def emit_network(net: SpectralNetwork) -> dict:
    return {
        "schema": NETWORK_SCHEMA,
        "walls": [
            {"id": w.id,
             "label": list(w.label),
             "branch": w.start_branch,
             "end_edge": w.end_edge,
             "end_cone": w.end_cone,
             "polyline": [_point_out(p) for p in w.polyline]}
            for w in net.walls],
        "layout": emit_layout(net.layout),
    }


def emit_matrix(m: LaurentMatrix) -> list:
    """Flat term list [row, col, num, den, ex, ey], sorted."""
    terms = []
    for i in range(m.size):
        for j in range(m.size):
            for e, c in m.entry(i, j).terms.items():
                terms.append([i, j, c.numerator, c.denominator, e[0], e[1]])
    terms.sort()
    return terms


def emit_cocycle(coc) -> dict:
    pairs = {}
    n = coc.tms.fan.n
    for i in range(n):
        for j in range(n):
            pairs[f"{i},{j}"] = emit_matrix(coc.pair(i, j))
    return {"schema": COCYCLE_SCHEMA, "size": coc.cover.r, "pairs": pairs}


def dump_json(data, path):
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return text
