"""Shared test helpers: fixture loading, oracles, random multi-sections."""
from __future__ import annotations

import importlib.util
import json
import random
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

from toricnets import errors, fans, multisection, schema
from toricnets.cover import (Crossing, SheetedSurface, SurfacePath,
                             betti_one, build_cover, make_local_system,
                             sheet_lift_map)
from toricnets.errors import InvalidPath, NotSupported, UnknownCone
from toricnets.geom import cross, dot, point_in_convex_polygon, sub
from toricnets.laurent import LaurentMatrix, LaurentPoly, evaluate
from toricnets.multisection import (LiftedCone, LiftedRay,
                                    TropicalMultiSection, classify_two_fold,
                                    validate)
from toricnets.network import boundary_position
from toricnets.nonabelian import Factors, loop_identity_check

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GEN = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
REALIZABLE = ("fan5_n5", "fan7_n7", "line_bundle_r1", "p1p1_n4", "p2_n3")


def load(name):
    return schema.load_problem(FIXTURES / f"{name}.json")


def count_calls(monkeypatch, module, name):
    """Calls of ``module.name`` from anywhere in the package, as a list.

    Every ``toricnets`` module attribute bound to the function is
    replaced, so calls through a by-name import are counted too.
    """
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key == "toricnets" or key.startswith("toricnets."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def perfbench_gen():
    """The benchmark's problem generator, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def generated_problems(label, seed, count):
    """Seeded generated problems: ((n, N), spec) for (12, 12), then for
    ``count`` random smaller shapes."""
    gen = perfbench_gen()
    tk = SimpleNamespace(errors=errors, fans=fans, multisection=multisection,
                         schema=schema)
    rng = random.Random(seed)
    shapes = [(12, 12)] + [(n, rng.randint(3, n))
                           for n in rng.sample(range(4, 12), count)]
    for n, big_n in shapes:
        doc = gen.generate(n, big_n, f"{label}:{rng.randrange(10 ** 6)}", tk)
        yield (n, big_n), schema.parse_problem(json.loads(gen.serialize(doc)))


def solve_2x2(a, b, target):
    """Integer (x, y) with x*a + y*b == target for unimodular a, b."""
    det = cross(a, b)
    assert det in (1, -1)
    x = Fraction(cross(target, b), det)
    y = Fraction(cross(a, target), det)
    assert x.denominator == 1 and y.denominator == 1
    return int(x), int(y)


def rot90(v):
    """Counterclockwise quarter turn; maps ray generator to its perp."""
    return (-v[1], v[0])


def random_two_fold(fan, rng, force_class=None, max_tries=200):
    """Random valid (continuous, separated) 2-fold multi-section.

    Matchings across each ray are coin flips (their parity decides case O
    versus E); slopes are random integer steps along each lifted circle
    with the last two steps solved exactly for closure.  Separatedness is
    enforced by rejection.
    """
    n = fan.n
    for _ in range(max_tries):
        swaps = [rng.random() < 0.5 for _ in range(n)]
        if force_class == "O" and sum(swaps) % 2 == 0:
            swaps[rng.randrange(n)] ^= True
        if force_class == "E" and sum(swaps) % 2 == 1:
            swaps[rng.randrange(n)] ^= True
        tms = _assemble(fan, swaps, rng)
        if tms is None:
            continue
        if validate(tms).ok:
            if force_class is not None and \
                    classify_two_fold(tms).tag != force_class:
                continue
            return tms
    raise AssertionError("could not sample a valid multi-section")


def _assemble(fan, swaps, rng):
    n = fan.n
    # lifted cones: two per base cone
    cones = {}
    for i in range(n):
        for s in (0, 1):
            cones[(i, s)] = LiftedCone(f"x{i}_{s}", i, (0, 0))
    # matching across ray i links sheet tracks
    succ = {}
    for i in range(n):
        prev = (i - 1) % n
        for s in (0, 1):
            t = 1 - s if swaps[i] else s
            succ[(prev, s, i)] = t
    # walk the cycles and assign slopes with exact closure
    rays = []
    slopes = {}
    visited = set()
    for start_sheet in (0, 1):
        if (0, start_sheet) in visited:
            continue
        cycle = [(0, start_sheet)]
        visited.add((0, start_sheet))
        cur = (0, start_sheet)
        while True:
            i = (cur[0] + 1) % n
            nxt = (i, succ[(cur[0], cur[1], i)])
            if nxt == cycle[0]:
                break
            cycle.append(nxt)
            visited.add(nxt)
            cur = nxt
        steps = len(cycle)
        m = (rng.randint(-3, 3), rng.randint(-3, 3))
        slopes[cycle[0]] = m
        moves = []
        for k in range(steps):
            a = cycle[k]
            b = cycle[(k + 1) % steps]
            ray = b[0] % n
            moves.append((a, b, ray))
        acc = (0, 0)
        for k, (a, b, ray) in enumerate(moves[:-2]):
            w = rot90(fan.ray(ray))
            coef = rng.randint(-3, 3)
            nm = (slopes[a][0] + coef * w[0], slopes[a][1] + coef * w[1])
            slopes[b] = nm
        # close with the final two moves
        (a1, b1, r1), (a2, b2, r2) = moves[-2], moves[-1]
        w1, w2 = rot90(fan.ray(r1)), rot90(fan.ray(r2))
        target = sub(slopes[cycle[0]], slopes[a1])
        try:
            k1, k2 = solve_2x2(w1, w2, target)
        except AssertionError:
            return None
        slopes[b1] = (slopes[a1][0] + k1 * w1[0], slopes[a1][1] + k1 * w1[1])
        back = (slopes[b1][0] + k2 * w2[0], slopes[b1][1] + k2 * w2[1])
        assert back == tuple(slopes[cycle[0]])
    lifted_cones = [LiftedCone(f"x{i}_{s}", i, slopes[(i, s)])
                    for i in range(n) for s in (0, 1)]
    lifted_rays = []
    for i in range(n):
        prev = (i - 1) % n
        for s in (0, 1):
            t = succ[(prev, s, i)]
            lifted_rays.append(LiftedRay(i, f"x{prev}_{s}", f"x{i}_{t}"))
    return TropicalMultiSection(fan, 2, lifted_cones, lifted_rays)


def circle_sampling_n(tms, samples_per_cone=9):
    """Brute-force transverse-crossing count of the two sheet graphs.

    Walks the circle of directions through sample points strictly inside
    every cone, tracking which lift is which sheet through the matchings,
    and counts sign changes of the sheet-value difference.  Independent of
    the ray-difference computation in ``n_genericity``.
    """
    fan = tms.fan
    n = fan.n
    cls = classify_two_fold(tms)
    laps = 2 if cls.tag == "O" else 1
    # current sheet assignment: pair of lifted-cone ids over the cone
    current = [c.id for c in tms.lifts_of_cone(0)]
    values = []
    for lap in range(laps):
        for i in range(n):
            if lap > 0 or i > 0:
                match = tms.matching(i)
                current = [match[c] for c in current]
            v1, v2 = fan.ray(i), fan.ray((i + 1) % n)
            for k in range(1, samples_per_cone + 1):
                t = Fraction(k, samples_per_cone + 1)
                p = ((1 - t) * v1[0] + t * v2[0], (1 - t) * v1[1] + t * v2[1])
                d = dot(sub(tms.slope(current[0]), tms.slope(current[1])), p)
                values.append(d)
    signs = [v > 0 for v in values if v != 0]
    flips = sum(1 for a, b in zip(signs, signs[1:] + signs[:1]) if a != b)
    return flips // laps


def brute_force_polytope_vertices(fan, phi):
    """Vertex enumeration by pairwise linear systems plus feasibility."""
    n = fan.n
    pts = set()
    for i in range(n):
        for j in range(i + 1, n):
            vi, vj = fan.ray(i), fan.ray(j)
            det = cross(vi, vj)
            if det == 0:
                continue
            x = Fraction(phi[i] * vj[1] - phi[j] * vi[1], det)
            y = Fraction(phi[j] * vi[0] - phi[i] * vj[0], det)
            if all(x * fan.ray(k)[0] + y * fan.ray(k)[1] >= phi[k]
                   for k in range(n)):
                pts.add((x, y))
    return pts


def parse_matrix(terms, size):
    """Inverse of ``schema.emit_matrix``: a flat term list back to a matrix."""
    rows = [[dict() for _ in range(size)] for _ in range(size)]
    for row, col, num, den, ex, ey in terms:
        rows[row][col][(ex, ey)] = Fraction(num, den)
    return LaurentMatrix([[LaurentPoly(cell) for cell in r] for r in rows])


def near_identities(n):
    """Matrices that differ from Id_n in one entry: a diagonal coefficient
    of 2, an extra z^(1,0) term on the diagonal, a nonzero off-diagonal."""
    ident = LaurentMatrix.identity(n)
    return [
        ident.with_entry(0, 0, LaurentPoly.monomial(2, (0, 0))),
        ident.with_entry(1, 1, LaurentPoly({(0, 0): 1, (1, 0): 1})),
        ident.with_entry(0, 1, LaurentPoly.monomial(Fraction(1, 3), (0, 0))),
    ]


# -- reference Laurent arithmetic ---------------------------------------------
# The constructor-based kernel that ``laurent`` replaced: polynomials are
# plain term dicts {(ex, ey): coefficient}, and every partial sum and
# product goes through the cleaning constructor ``ref_clean`` again.  It
# shares no code with ``toricnets.laurent``.

def ref_clean(terms):
    clean = {}
    for e, c in terms.items():
        if c != 0:
            e = (int(e[0]), int(e[1]))
            clean[e] = clean.get(e, Fraction(0)) + c
            if clean[e] == 0:
                del clean[e]
    return {e: clean[e] for e in sorted(clean)}


def ref_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, Fraction(0)) + c
    return ref_clean(out)


def ref_neg(p):
    return ref_clean({e: -c for e, c in p.items()})


def ref_mul(p, q):
    """Product of two term dicts, or of a term dict and a scalar."""
    if isinstance(q, dict):
        out = {}
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                e = (e1[0] + e2[0], e1[1] + e2[1])
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return ref_clean(out)
    return ref_clean({e: c * q for e, c in p.items()})


def ref_mat_mul(a, b):
    """Product of two square matrices given as lists of rows of term dicts."""
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            s = {}
            for k in range(n):
                if not a[i][k] or not b[k][j]:
                    continue
                s = ref_add(s, ref_mul(a[i][k], b[k][j]))
            row.append(s)
        out.append(row)
    return out


# -- reference bundle verification --------------------------------------------
# The sweep ``nonabelian.verify_bundle`` replaced: the lift map recomputed
# from the cover, and ``cocycle_check`` (two products) on every ordered
# triple of distinct cones instead of one product per unordered triple.

def reference_verify_bundle(coc, tms):
    from toricnets.cover import sheet_lift_map
    from toricnets.errors import NoSharedLift
    from toricnets.fans import ray_cone
    from toricnets.laurent import (cocycle_check, is_invertible_on, mat_mul,
                                   regular_on)
    from toricnets.nonabelian import _recovered_slopes
    from toricnets.reporting import ValidationReport

    report = ValidationReport()
    fan = tms.fan
    n = fan.n
    r = coc.cover.r
    for i in range(n):
        if not coc.pair(i, i).is_identity():
            report.add("identity", f"G_({i},{i}) is not the identity", i)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if not mat_mul(coc.pair(i, j), coc.pair(j, i)).is_identity():
                report.add("inverses", f"G_({i},{j}) G_({j},{i}) != Id", (i, j))
    for i in range(n):
        g = coc.pair((i - 1) % n, i)
        cone = ray_cone(i)
        if not regular_on(g, fan, cone):
            report.add("regularity",
                       f"G over the ray-{i} overlap has negative exponents", i)
            continue
        if not is_invertible_on(g, fan, cone):
            report.add("invertibility",
                       f"G over the ray-{i} overlap is not a unit there", i)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) != 3:
                    continue
                if not cocycle_check(coc.pair(k, i), coc.pair(j, k),
                                     coc.pair(i, j)):
                    report.add("cocycle",
                               f"triple ({i},{j},{k}) fails the cocycle "
                               "condition", (i, j, k))
    try:
        lift = sheet_lift_map(tms, coc.cover)
        rec = _recovered_slopes(coc)
        for i in range(n):
            got = sorted(rec.get((i, s)) for s in range(r))
            want = sorted(tms.slope(lift[(i, s)]) for s in range(r))
            if got != want:
                report.add("tropicalization",
                           f"recovered slopes {got} != input {want} "
                           f"over cone {i}", i)
    except NoSharedLift as exc:
        report.add("tropicalization", str(exc))
    return report


# -- reference point location -----------------------------------------------
# The ``Fraction`` point locator the package used before it located points
# on the integer grid (``cover.GridPoints``); the grid locator must agree
# with it.


def contains(poly, p):
    """1 interior, 0 boundary, -1 outside."""
    return point_in_convex_polygon(p, poly.vertices)


def _direction_in_sector(a, b, d):
    """Is direction d in the closed ccw sector from a to b?

    Handles sectors wider than pi (reflex at the center): those are the
    complements of the open opposite sector.
    """
    o = cross(a, b)
    if o > 0:
        return cross(a, d) >= 0 and cross(d, b) >= 0
    if o < 0:
        return not (cross(b, d) > 0 and cross(d, a) > 0)
    # a and b opposite: the sector is the closed half-plane ccw of a
    return cross(a, d) >= 0


def locate(disk, point):
    """Region membership of a point of the polygon.

    Returns (regions, on_polytope_boundary): the list of region indices
    whose closed region contains the point (two or more exactly when the
    point sits on a spoke or at the center), plus a boundary flag.
    """
    where = contains(disk.polytope, point)
    if where < 0:
        return [], False
    on_boundary = where == 0
    c = disk.center
    if point == c:
        return list(range(disk.fan.n)), on_boundary
    n = disk.fan.n
    d = sub(point, c)
    dirs = [sub(disk.ray_segments[i][1], c) for i in range(n)]
    regions = [i for i in range(n)
               if _direction_in_sector(dirs[i], dirs[(i + 1) % n], d)]
    return regions, on_boundary


def region_of_interior_point(disk, point):
    """The unique region containing an interior, off-spoke point."""
    regions, on_boundary = locate(disk, point)
    if len(regions) != 1:
        raise UnknownCone(
            f"point {point} is not interior to a unique region")
    return regions[0]


# -- reference contact geometry ----------------------------------------------
# The all-pairs ``Fraction`` predicates that the grid-point contact tests
# replaced, and the network and cover validators built on them: every
# segment pair is tested, with no bounding-box reject and no grid.

def ref_orient(a, b, c):
    s = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (s > 0) - (s < 0)


def ref_on_segment(p, a, b):
    if ref_orient(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def ref_segments_cross(p1, p2, q1, q2):
    d1 = ref_orient(q1, q2, p1)
    d2 = ref_orient(q1, q2, p2)
    d3 = ref_orient(p1, p2, q1)
    d4 = ref_orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0) and d1 != 0 and d2 != 0
            and (d3 > 0) != (d4 > 0) and d3 != 0 and d4 != 0):
        return True
    if d1 == 0 and ref_on_segment(p1, q1, q2):
        return True
    if d2 == 0 and ref_on_segment(p2, q1, q2):
        return True
    if d3 == 0 and ref_on_segment(q1, p1, p2):
        return True
    if d4 == 0 and ref_on_segment(q2, p1, p2):
        return True
    return False


def ref_polyline_pairwise_disjoint(poly_a, poly_b, skip_shared_endpoints=True):
    shared = set()
    if skip_shared_endpoints:
        shared = {poly_a[0], poly_a[-1]} & {poly_b[0], poly_b[-1]}
    for i in range(len(poly_a) - 1):
        for j in range(len(poly_b) - 1):
            a1, a2 = poly_a[i], poly_a[i + 1]
            b1, b2 = poly_b[j], poly_b[j + 1]
            if not ref_segments_cross(a1, a2, b1, b2):
                continue
            contact_ok = False
            for s in shared:
                if (s in (a1, a2)) and (s in (b1, b2)):
                    others = [p for p in (a1, a2) if p != s] + \
                             [p for p in (b1, b2) if p != s]
                    if all(not ref_on_segment(o, b1, b2) or o == s
                           for o in others[:1]) \
                       and all(not ref_on_segment(o, a1, a2) or o == s
                               for o in others[1:]):
                        contact_ok = True
            if not contact_ok:
                return False
    return True


def ref_walls_pairwise_disjoint(net):
    for i, a in enumerate(net.walls):
        for b in net.walls[i + 1:]:
            shared = a.start_branch is not None and \
                a.start_branch == b.start_branch
            if not ref_polyline_pairwise_disjoint(
                    list(a.polyline), list(b.polyline),
                    skip_shared_endpoints=shared):
                return False
    return True


def _ref_proper_crossing(a1, a2, b1, b2):
    d1 = ref_orient(b1, b2, a1)
    d2 = ref_orient(b1, b2, a2)
    d3 = ref_orient(a1, a2, b1)
    d4 = ref_orient(a1, a2, b2)
    return d1 * d2 < 0 and d3 * d4 < 0


def reference_validate_network(net, tms, cover):
    from toricnets.cover import sheet_lift_map
    from toricnets.errors import NoSharedLift
    from toricnets.network import half_edge_of_boundary_point
    from toricnets.reporting import ValidationReport

    report = ValidationReport()
    poly = net.polytope
    fan = net.fan
    n = fan.n
    bad_labels = set()

    for w in net.walls:
        for p in w.polyline[1:-1]:
            if contains(poly, p) != 1:
                report.add("1", f"wall {w.id} has a non-interior vertex", p)
        if contains(poly, w.start) != 1 and w.start_branch is not None:
            report.add("1", f"wall {w.id} starts outside the open polygon",
                       w.start)
        for cut in net.cuts:
            if not ref_polyline_pairwise_disjoint(
                    list(w.polyline), list(cut.polyline),
                    skip_shared_endpoints=(w.start_branch is not None)):
                report.add("1", f"wall {w.id} meets a branch cut", w.id)
        for si in range(n):
            s1, s2 = net.disk.spoke(si)
            for j in range(len(w.polyline) - 1):
                a, b = w.polyline[j], w.polyline[j + 1]
                if ref_segments_cross(a, b, s1, s2) and \
                        not _ref_proper_crossing(a, b, s1, s2):
                    report.add("1",
                               f"wall {w.id} meets the spoke of ray {si} "
                               "non-transversely", si)
        a, b = w.label
        if a == b or not (0 <= a < cover.r and 0 <= b < cover.r):
            report.add("2", f"wall {w.id} carries a bad label {w.label}")
            bad_labels.add(w.id)
        interior_hits = 0
        for bi, bp in enumerate(net.branch_points):
            for j in range(len(w.polyline) - 1):
                if ref_on_segment(bp, w.polyline[j], w.polyline[j + 1]):
                    if not (j == 0 and w.start_branch == bi
                            and bp == w.start):
                        interior_hits += 1
        if interior_hits:
            report.add("5", f"wall {w.id} passes through a branch point")
        if w.start_branch is not None:
            if not 0 <= w.start_branch < len(net.branch_points):
                report.add("5", f"wall {w.id} names an unknown branch point "
                                f"{w.start_branch}", w.id)
            elif w.start != tuple(net.branch_points[w.start_branch]):
                report.add("5",
                           f"wall {w.id} does not start at its branch point")

    for w in net.walls:
        if w.start_branch is None and contains(poly, w.start) == 1:
            report.add("3", f"wall {w.id} starts at an undeclared joint",
                       w.start)
    for b in range(len(net.branch_points)):
        arms = net.walls_of_branch(b)
        if len(arms) != 3:
            report.add("3", f"branch point {b} has {len(arms)} walls, not 3",
                       b)
    if not ref_walls_pairwise_disjoint(net):
        report.add("3", "walls intersect away from branch points "
                        "(joint local models not realized here)")

    ids = [w.id for w in net.walls]
    if len(set(ids)) != len(ids):
        report.add("4", "duplicate wall ids")

    try:
        lift = sheet_lift_map(tms, cover)
    except NoSharedLift as exc:
        report.add("6", f"sheet/lift matching failed: {exc}")
        lift = None
    for w in net.walls:
        he = half_edge_of_boundary_point(poly, w.end)
        if he is None:
            report.add("6",
                       f"wall {w.id} endpoint is not in the relative interior "
                       "of a boundary half-edge", w.end)
            continue
        e, cone = he
        if (e, cone) != (w.end_edge, w.end_cone):
            report.add("6",
                       f"wall {w.id} endpoint data disagrees with geometry",
                       (e, cone))
            continue
        if lift is not None and w.id not in bad_labels:
            a, b = w.label
            ma = tms.slope(lift[(cone, a)])
            mb = tms.slope(lift[(cone, b)])
            v = fan.ray(e)
            pairing = dot(sub(mb, ma), v)
            if pairing < 0:
                report.add("6",
                           f"wall {w.id} label {w.label} violates the slope "
                           f"condition on ray {e} (pairing {pairing})", w.id)
            elif pairing == 0:
                report.add("6",
                           f"wall {w.id} label pairs to zero on ray {e} "
                           "(separatedness should forbid this)", w.id)
    return report


def _ref_validate_cut_geometry(disk, cut):
    from toricnets.errors import CutEndpointNotBarycenter, CutHitsRay

    poly = disk.polytope
    pts = list(cut.polyline)
    if len(pts) < 2:
        raise CutEndpointNotBarycenter("cut polyline needs two points")
    end = pts[-1]
    target = poly.edge_barycenter(cut.edge)
    if end != target:
        raise CutEndpointNotBarycenter(
            f"cut ends at {end}, not at barycenter {target} "
            f"of edge {cut.edge}")
    for p in pts[:-1]:
        if contains(poly, p) != 1:
            raise CutHitsRay(f"cut vertex {p} is not interior to the polygon")
    for si in range(disk.fan.n):
        s1, s2 = disk.spoke(si)
        for j in range(len(pts) - 1):
            a, b = pts[j], pts[j + 1]
            if not ref_segments_cross(a, b, s1, s2):
                continue
            last = j == len(pts) - 2
            if last and si == cut.edge and ref_orient(s1, s2, a) != 0:
                continue
            raise CutHitsRay(
                f"cut segment {a}-{b} meets the spoke of ray {si}")


def reference_build_cover(disk, layout, r):
    from toricnets.errors import InvariantViolated, OverlappingCuts

    if layout.disk is not disk:
        raise InvariantViolated("the layout is drawn on another disk model")
    for c in layout.cuts:
        if not (0 <= c.transposition[0] < r and 0 <= c.transposition[1] < r
                and c.transposition[0] != c.transposition[1]):
            raise OverlappingCuts(
                f"cut transposition {c.transposition} is not a valid swap")
        _ref_validate_cut_geometry(disk, c)
    for i, a in enumerate(layout.cuts):
        for b in layout.cuts[i + 1:]:
            if a.edge == b.edge:
                raise OverlappingCuts(
                    f"two cuts land on the barycenter of edge {a.edge}")
            if not ref_polyline_pairwise_disjoint(
                    list(a.polyline), list(b.polyline),
                    skip_shared_endpoints=False):
                raise OverlappingCuts("cut polylines intersect")
    return SheetedSurface(layout, r)


# -- reference loop-identity check ------------------------------------------
# The check ``nonabelian.loop_identity_check`` replaced: after the
# branch-point loops it multiplies out the boundary loop from every cone,
# not only the one from cone 0, and stops at the first loop that fails.

def reference_loop_identity_check(factors):
    from toricnets.network import boundary_loop
    from toricnets.nonabelian import branch_point_loop, path_ordered
    from toricnets.reporting import ValidationReport

    net, cover = factors.net, factors.cover
    report = ValidationReport()
    loops = chain(((f"loop around branch point {b}", ("branch", b),
                    branch_point_loop(net, cover, b))
                   for b in range(len(cover.cuts))),
                  ((f"boundary loop from cone {base}", ("boundary", base),
                    boundary_loop(net, base, ccw=True))
                   for base in range(factors.tms.fan.n)))
    for name, witness, loop in loops:
        if not path_ordered(factors, loop).is_identity():
            report.add("loop", f"{name} is not the identity", witness)
            break
    return report


# -- generator loops and the sampled loop-identity sweep ----------------------
# ``generator_loops`` names the loops whose holonomies ``make_local_system``
# prescribes; no pipeline stage walks them.  ``reference_sweep`` is the
# check ``toricnets verify`` made before it proved the loop identities once
# with symbolic holonomies: ``count`` seeded rational local systems, drawn
# as the CLI draws them, each checked on its own.

def _spoke_run(cover, start_region, end_region):
    """Ccw spoke crossings leading from one region to another."""
    n = cover.disk.fan.n
    crossings = []
    region = start_region % n
    while region != end_region % n:
        nxt = (region + 1) % n
        crossings.append(Crossing("spoke", nxt, +1))
        region = nxt
    return crossings


def generator_loops(cover: SheetedSurface):
    """Loops whose holonomies coordinatize the local-system moduli.

    Loop k encircles branch points k+1 and 0: it crosses cut k+1
    positively from the lower sheet, walks ccw back to cut 0's region,
    crosses cut 0 positively, and returns.  Requires a connected 2-fold
    cover (the only case with more than one cut in this package).
    """
    loops = []
    if not cover.cuts:
        return loops
    for k in range(1, len(cover.cuts)):
        cut = cover.cuts[k]
        r_k = cover.cut_region[k]
        r_0 = cover.cut_region[0]
        crossings = [Crossing("cut", k, +1)]
        crossings += _spoke_run(cover, r_k, r_0)
        crossings.append(Crossing("cut", 0, +1))
        crossings += _spoke_run(cover, r_0, r_k)
        loops.append(SurfacePath(r_k, cut.lo, crossings, turns=0))
    return loops


def reference_sweep(net, tms, cover, seed, count=25):
    """True iff every sampled local system passes every loop identity."""
    rng = random.Random(seed)
    b1 = betti_one(cover)
    for _ in range(count):
        hol = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
               for _ in range(b1)]
        ls = make_local_system(cover, hol)
        if not loop_identity_check(Factors(net, tms, cover, ls)):
            return False
    return True


def evaluate_coefficient(c, values):
    """A Fraction or a TPoly with t_k replaced by ``values[k - 1]``, read
    through ``laurent.evaluate`` on a 1 x 1 matrix."""
    m = evaluate(LaurentMatrix([[LaurentPoly.monomial(c, (0, 0))]]), values)
    return m.entry(0, 0).terms.get((0, 0), Fraction(0))


def with_matrices(coc, matrices):
    """A copy of a cocycle whose transition matrices read ``matrices``
    instead of the ones its steps compose to."""
    out = replace(coc)
    out.matrices = matrices
    return out


# -- paper-claim oracles that no pipeline stage uses --------------------------
# The face duality of the polygon, the barycentric cells of its boundary,
# the boundary half-edge labels, the chambers of a network, reversed and
# composed surface paths, and the gauge class of a cocycle's boundary
# restriction: tests check the paper's claims about these, and nothing in
# the package computes them.

ZERO_CONE = ("zero",)


def max_cone(i):
    return ("max", i)


def dual_cell(polytope, cone):
    """Face of the polygon dual to a cone of its fan.

    Maximal cone -> vertex (a 1-point tuple), ray -> edge endpoints,
    zero cone -> all vertices.
    """
    if cone[0] == "zero":
        return tuple(polytope.vertices)
    polytope.fan.cone_generators(cone)  # UnknownCone for a bad reference
    if cone[0] == "max":
        return (polytope.vertex(cone[1]),)
    return polytope.edge(cone[1])


@dataclass(frozen=True)
class BarCell:
    """A cell of the first barycentric decomposition of the boundary.

    kind is one of 'vertex', 'barycenter', 'half-edge'.  For half-edges,
    ``vertex_index`` is the polygon vertex endpoint and ``points`` runs from
    that vertex to the barycenter; ``edge`` is the carrier edge (= dual ray
    index) for barycenters and half-edges.
    """
    kind: str
    edge: int | None
    vertex_index: int | None
    points: tuple


def barycentric_boundary(polytope):
    """Cells of the first barycentric decomposition of the boundary.

    For each edge i (ccw): [vertex i-1, half-edge from vertex i-1,
    barycenter, half-edge from vertex i], so each vertex is listed once.
    """
    cells = []
    n = polytope.n
    for i in range(n):
        a, _ = polytope.edge(i)  # a = vertex i-1
        mid = polytope.edge_barycenter(i)
        vi = (i - 1) % n
        cells.append(BarCell("vertex", None, vi, (a,)))
        cells.append(BarCell("half-edge", i, vi, (a, mid)))
        cells.append(BarCell("barycenter", i, None, (mid,)))
        cells.append(BarCell("half-edge", i, i, (polytope.vertex(i), mid)))
    return cells


def region_polygon(disk, i):
    """Ccw quadrilateral of region i of a disk model."""
    p = disk.polytope
    return (disk.center, p.edge_barycenter(i), p.vertex(i),
            p.edge_barycenter(i + 1))


@dataclass(frozen=True)
class HalfEdgeLabel:
    edge: int
    cone: int            # cone of the vertex endpoint
    label: tuple         # ordered sheet pair (a, b)


class BoundaryLabeling:
    """Labels of the 2n boundary half-edges, in ccw order."""

    def __init__(self, entries):
        self.entries = list(entries)

    def flip_count(self):
        labels = [e.label for e in self.entries]
        n = len(labels)
        return sum(1 for i in range(n) if labels[i] != labels[(i + 1) % n])

    def label_of(self, edge, cone):
        for e in self.entries:
            if e.edge == edge and e.cone == cone:
                return e.label
        raise KeyError((edge, cone))


def boundary_labels(tms, disk, layout) -> BoundaryLabeling:
    """Label every boundary half-edge by its soliton sheet pair.

    The label of a half-edge is the ordered sheet pair (a, b) with
    <m(b) - m(a), v_ray> > 0, computed through the sheet/lift matching of
    the cover of ``layout``; it flips at the N intersection-cone vertices
    and at every cut landing.
    """
    lift = sheet_lift_map(tms, build_cover(disk, layout, tms.degree))

    def label(cone, edge):
        m0, m1 = (tms.slope(lift[(cone, s)]) for s in (0, 1))
        pairing = dot(sub(m1, m0), tms.fan.ray(edge))
        assert pairing != 0
        return (0, 1) if pairing > 0 else (1, 0)

    n = tms.fan.n
    return BoundaryLabeling(
        HalfEdgeLabel(e, cone, label(cone, e))
        for e in range(n) for cone in ((e - 1) % n, e))


@dataclass(frozen=True)
class Chamber:
    id: int
    arcs: tuple              # ccw landing-gap indices on the boundary circle
    adjacent: tuple          # (other chamber id, wall id) pairs


def chambers(net):
    """Closures of the components of the polygon minus the wall support.

    Valid in the pairwise-disjoint tripod regime: a point's chamber is
    determined by its zone relative to each tripod's three landings, so
    chambers are zone-profiles of boundary arcs.
    """
    if not net.walls:
        return [Chamber(0, (0,), ())]
    if not net.walls_disjoint:
        raise NotSupported("chamber decomposition requires disjoint walls")
    landings = sorted(((boundary_position(net.polytope, w.end), w)
                       for w in net.walls), key=lambda x: x[0])
    m = len(landings)
    tripods = {}
    for pos_idx, (_, w) in enumerate(landings):
        tripods.setdefault(w.start_branch, []).append(pos_idx)

    def zone(arc_idx, positions):
        # arc arc_idx sits between landings arc_idx and arc_idx+1 (cyclic);
        # find which gap of the sorted tripod positions contains it.
        ps = sorted(positions)
        for z in range(len(ps)):
            lo, hi = ps[z], ps[(z + 1) % len(ps)]
            if (lo <= arc_idx < hi) if lo < hi else \
                    (arc_idx >= lo or arc_idx < hi):
                return z
        return 0

    profiles = {}
    for arc in range(m):
        prof = tuple(zone(arc, pos) for _, pos in sorted(tripods.items()))
        profiles.setdefault(prof, []).append(arc)
    ids = {prof: i for i, prof in enumerate(sorted(profiles))}
    adjacency = {i: set() for i in ids.values()}
    arc_prof = {a: prof for prof, arcs in profiles.items() for a in arcs}
    for a in range(m):
        b = (a + 1) % m
        pa, pb = arc_prof[a], arc_prof[b]
        if pa != pb:
            wall = landings[b][1]
            adjacency[ids[pa]].add((ids[pb], wall.id))
            adjacency[ids[pb]].add((ids[pa], wall.id))
    return [Chamber(ids[prof], tuple(sorted(arcs)),
                    tuple(sorted(adjacency[ids[prof]])))
            for prof, arcs in sorted(profiles.items())]


def reversed_path(path, cover):
    """The path walked backwards, from its end state."""
    rev = [Crossing(c.kind, c.index, -c.direction)
           for c in reversed(path.crossings)]
    region, sheet = path.states(cover)[-1]
    return SurfacePath(region, sheet, rev, path.turns)


def concat_paths(first, second, cover):
    """``first`` then ``second``; InvalidPath unless they compose."""
    if first.states(cover)[-1] != (second.start_region, second.start_sheet):
        raise InvalidPath("paths are not composable")
    turns = None
    if first.turns is not None and second.turns is not None:
        turns = first.turns + second.turns
    return SurfacePath(first.start_region, first.start_sheet,
                       list(first.crossings) + list(second.crossings), turns)


def is_closed(path, cover):
    states = path.states(cover)
    return states[0] == states[-1]


def boundary_restriction(matrix, ray_vector):
    """Keep the terms whose exponents pair to zero with the ray.

    For a transition matrix over an adjacent cone pair this extracts the
    semi-flat monomial permutation (the restriction of the bundle to the
    toric boundary divisor of the shared ray).
    """
    return LaurentMatrix([[LaurentPoly({e: c for e, c in p.terms.items()
                                        if dot(e, ray_vector) == 0})
                           for p in row] for row in matrix.rows])


def boundary_restriction_equiv(c1, c2) -> bool:
    """Gauge equivalence of the boundary restrictions of two cocycles.

    True iff nonzero per-(cone, sheet) frame rescalings h make every
    semi-flat transport entry of c1 equal that of c2: the coefficient
    ratios force h along the support graph, and equivalence is exactly
    consistency of those ratios around cycles.
    """
    tms = c1.tms
    n = tms.fan.n
    r = c1.cover.r
    adj = {}
    for i in range(n):
        v = tms.fan.ray(i)
        m1 = boundary_restriction(c1.pair((i - 1) % n, i), v)
        m2 = boundary_restriction(c2.pair((i - 1) % n, i), v)
        for row in range(r):
            for col in range(r):
                p1, p2 = m1.entry(row, col), m2.entry(row, col)
                if p1.is_zero() != p2.is_zero():
                    return False
                if p1.is_zero():
                    continue
                a1, e1 = p1.monomial_parts()
                a2, e2 = p2.monomial_parts()
                if e1 != e2:
                    return False
                # h[(i-1, col)] / h[(i, row)] = a2 / a1
                q = Fraction(a2) / Fraction(a1)
                a, b = ((i - 1) % n, col), (i, row)
                adj.setdefault(a, []).append((b, q))
                adj.setdefault(b, []).append((a, 1 / q))
    h = {}
    for start in sorted(adj):
        if start in h:
            continue
        h[start] = Fraction(1)
        stack = [start]
        while stack:
            node = stack.pop()
            for other, q in adj[node]:
                # h[node] / h[other] = q
                val = h[node] / q
                if other in h:
                    if h[other] != val:
                        return False
                else:
                    h[other] = val
                    stack.append(other)
    return True
