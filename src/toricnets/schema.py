"""Versioned JSON schema for problems, networks, cocycles, and reports.

One self-describing document format (``toricnets/problem.v1``) carries the
fan, the support function, the multi-section, optional holonomies, and an
optional ``network``: the ``toricnets/network.v1`` object ``build`` writes
(``emit_network``), its walls and its own ``layout``, exactly as written.
All rationals are strings accepted by ``Fraction`` ("p/q" or "p"), so
round-trips are exact.  An unknown key at any level (the document,
``fan``, ``multisection``, a lifted cone or ray, ``network``, its
``layout``, a cut or a wall) is a ``SchemaError`` naming its path, so a
misspelt field is never silently ignored.  Every wall names its branch
point, an integer: a wall is an arm of the Y-graph there.  Every cut and
wall polyline has at least two points.

A network is schema-checked at parse, on the fan (``parse_network``),
and its layout and walls are placed on first read (``place_network``)
onto one integer grid: the least one holding the disk model, which needs
a strictly convex support, and every cut and wall point.  It may be
coarser than the builder's (every predicate and drawn coordinate is
scale-invariant).  Cuts and walls are int tuples there, as the
builder's are; emitting writes each grid coordinate c as the rational
c / scale, reduced by one gcd, with no Fraction made.
"""
from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .cover import BranchCutLayout, Cut
from .errors import ParseError, SchemaError
from .fans import Fan, SupportFunction, dual_polytope, disk_model, make_fan
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


def _point(obj):
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise SchemaError(f"bad point {obj!r}")
    return (_frac(obj[0]), _frac(obj[1]))


def _polyline(obj, what):
    """A polyline of at least two points, no two equal consecutive ones;
    ``what`` names it."""
    poly = tuple(_point(p) for p in obj)
    if len(poly) < 2:
        raise SchemaError(f"{what} needs two points, got {len(poly)}")
    if any(p == q for p, q in zip(poly, poly[1:])):
        raise SchemaError(f"{what} has two equal consecutive points")
    return poly


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


def _known(obj, keys, path):
    """SchemaError if ``obj`` is an object with a key not in ``keys``;
    ``path`` names it.  Anything other than an object is left to the
    reader of its fields."""
    if isinstance(obj, dict) and not obj.keys() <= keys:
        unknown = min(obj.keys() - keys)
        raise SchemaError(f"unknown key {unknown!r} in {path}; expected "
                          f"one of {', '.join(sorted(keys))}")


def _on_grid(poly, scale):
    """The int polyline ``scale`` times ``poly``; the scale clears it."""
    return tuple((x.numerator * (scale // x.denominator),
                  y.numerator * (scale // y.denominator)) for x, y in poly)


def _points_out(points, grid):
    """Each grid point's coordinates as the strings of its rational point
    (``GridPoints.rational``): c/scale reduced by one gcd, "num/den", or
    "num" over 1."""
    scale = grid.scale
    out = []
    for p in points:
        row = []
        for c in p:
            g = gcd(c, scale)
            row.append(str(c // g) if g == scale else f"{c // g}/{scale // g}")
        out.append(row)
    return out


class ProblemSpec:
    """A parsed problem document (``parse_problem``)."""

    def __init__(self, fan: Fan, phi: SupportFunction,
                 tms: TropicalMultiSection | None = None, holonomies=None,
                 network=None):
        self.fan, self.phi, self.tms = fan, phi, tms
        self.holonomies = [] if holonomies is None else holonomies
        self._network = network     # (cuts, walls) of parse_network, or None

    # the fan and the support function are fixed once parsed, so the
    # polygon, the disk model and the placed network are built once, on
    # first use: a support that is not strictly convex fails the stage
    # that first reads one of them
    @cached_property
    def polytope(self):
        return dual_polytope(self.fan, self.phi)

    @cached_property
    def disk(self):
        return disk_model(self.fan, self.polytope)

    @cached_property
    def network(self) -> SpectralNetwork | None:
        """The embedded network on the grid of the disk model, or None."""
        return self._network and place_network(self.disk, *self._network)


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
    _known(data, {"schema", "fan", "support", "multisection", "holonomies",
                  "network"}, "the problem document")
    _known(data["fan"], {"rays"}, "fan")
    fan = make_fan([_int_pair(v, "a fan ray") for v in data["fan"]["rays"]])
    phi = SupportFunction(fan, [_int(v, "a support value")
                                for v in data["support"]])
    tms = None
    if "multisection" in data:
        ms = data["multisection"]
        _known(ms, {"degree", "lifted_cones", "lifted_rays"}, "multisection")
        for section, keys in (("lifted_cones", {"id", "cone", "slope"}),
                             ("lifted_rays", {"ray", "from", "to"})):
            for k, item in enumerate(ms[section]):
                _known(item, keys, f"multisection.{section}[{k}]")
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
    return ProblemSpec(fan, phi, tms, [_frac(h) for h in holonomies],
                       parse_network(fan, data["network"])
                       if "network" in data else None)


def parse_network(fan, network):
    """The cuts and walls of the network ``emit_network`` writes, with
    rational polylines, as ``(cuts, walls)`` for ``place_network``: every
    schema check of the network, which needs only the fan."""
    if network["schema"] != NETWORK_SCHEMA:
        raise SchemaError(f"unknown network schema {network['schema']!r}; "
                          f"expected {NETWORK_SCHEMA}")
    _known(network, {"schema", "walls", "layout"}, "network")
    layout = network["layout"]
    _known(layout, {"branch_points", "cuts"}, "network.layout")
    points = [_point(p) for p in layout["branch_points"]]
    cuts = []
    for k, c in enumerate(layout["cuts"]):
        _known(c, {"polyline", "transposition", "edge"},
               f"network.layout.cuts[{k}]")
        poly = _polyline(c["polyline"], f"cut {k}")
        edge = _int(c["edge"], "a cut edge")
        if not 0 <= edge < fan.n:
            raise SchemaError(f"cut {k} lands on edge {edge}, not one of "
                              f"the {fan.n} edges 0..{fan.n - 1}")
        cuts.append((poly,
                     _int_pair(c["transposition"], "a cut transposition"),
                     edge))
    if points != [poly[0] for poly, _, _ in cuts]:
        raise SchemaError("the layout needs one cut per branch point, "
                          "starting at it")
    walls = []
    for k, w in enumerate(network["walls"]):
        _known(w, {"id", "label", "branch", "end_edge", "end_cone",
                   "polyline"}, f"network.walls[{k}]")
        wid = _int(w["id"], "a wall id")
        poly = _polyline(w["polyline"], f"wall {wid}")
        walls.append((
            wid, poly, _int_pair(w["label"], f"the label of wall {wid}"),
            _int(w["branch"], f"the branch of wall {wid}"),
            _int(w["end_edge"], f"the end edge of wall {wid}"),
            _int(w["end_cone"], f"the end cone of wall {wid}")))
    return cuts, walls


def place_network(disk, cuts, walls) -> SpectralNetwork:
    """The network of ``parse_network``'s cuts and walls on the scale
    lcm(``disk.scale``, every coordinate's denominator): the one place
    where a rational point becomes a grid point (``_on_grid``), as the
    disk model is integral on its own scale (``GridPoints``)."""
    polys = [c[0] for c in cuts] + [w[1] for w in walls]
    scale = lcm(disk.scale, *(c.denominator for poly in polys
                              for p in poly for c in p))
    grid_layout = BranchCutLayout(
        disk, tuple(Cut(_on_grid(poly, scale), transposition, edge)
                    for poly, transposition, edge in cuts), scale)
    walls = [Wall(wid, _on_grid(poly, scale), *rest)
             for wid, poly, *rest in walls]
    return SpectralNetwork(walls, grid_layout)


def emit_layout(layout: BranchCutLayout) -> dict:
    return {
        "branch_points": _points_out(layout.branch_points, layout.grid),
        "cuts": [
            {"polyline": _points_out(c.polyline, layout.grid),
             "transposition": list(c.transposition),
             "edge": c.edge}
            for c in layout.cuts],
    }


def emit_network(net: SpectralNetwork) -> dict:
    return {
        "schema": NETWORK_SCHEMA,
        "walls": [
            {"id": w.id,
             "label": list(w.label),
             "branch": w.start_branch,
             "end_edge": w.end_edge,
             "end_cone": w.end_cone,
             "polyline": _points_out(w.polyline, net.layout.grid)}
            for w in net.walls],
        "layout": emit_layout(net.layout),
    }


def emit_cocycle(coc) -> dict:
    """The cocycle document: the written term lists of every G_ij
    (``KaneyamaCocycle.written``), keyed "i,j"."""
    pairs = {f"{i},{j}": terms for (i, j), terms in coc.written.items()}
    return {"schema": COCYCLE_SCHEMA, "size": coc.cover.r, "pairs": pairs}


def dump_json(data, path):
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return text
