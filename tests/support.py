"""Shared test helpers: fixture loading, oracles, random multi-sections."""
from __future__ import annotations

import bisect
import importlib.util
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import isqrt, lcm
from operator import mul
from pathlib import Path
from types import SimpleNamespace

from toricnets import errors, fans, geom, multisection, schema
from toricnets.cover import (Crossing, Cut, SheetedSurface, SurfacePath,
                             betti_one, build_cover, make_local_system,
                             sheet_lift_map)
from toricnets.errors import (NotRegular, NotSupported, SizeMismatch,
                              UnknownCone)
from toricnets.geom import cross, dot, sub
from toricnets.laurent import TPoly, constant, identity, substitute
from toricnets.multisection import (LiftedCone, LiftedRay,
                                    TropicalMultiSection, classify_two_fold,
                                    validate)
from toricnets.network import enumerate_solitons
from toricnets.nonabelian import Factors, KaneyamaCocycle, loop_identity_check

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GEN = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
REALIZABLE = ("fan5_n5", "fan7_n7", "line_bundle_r1", "p1p1_n4", "p2_n3")


def load(name):
    return schema.load_problem(FIXTURES / f"{name}.json")


def lerp(a, b, t):
    """Point a + t*(b-a) with exact rational t."""
    t = Fraction(t)
    return (a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t)


def midpoint(a, b):
    return lerp(a, b, Fraction(1, 2))


def polygon_barycenter(vertices):
    n = len(vertices)
    sx = sum((v[0] for v in vertices), Fraction(0))
    sy = sum((v[1] for v in vertices), Fraction(0))
    return (sx / n, sy / n)


def rational(layout, points):
    """Grid points of ``layout`` as the ``Fraction`` points they stand for."""
    return tuple((Fraction(x, layout.scale), Fraction(y, layout.scale))
                 for x, y in points)


def rational_cuts(layout):
    """The cuts of ``layout`` with ``Fraction`` polylines."""
    return tuple(c._replace(polyline=rational(layout, c.polyline))
                 for c in layout.cuts)


def rational_walls(net):
    """The walls of ``net`` with ``Fraction`` polylines."""
    return tuple(w._replace(polyline=rational(net.layout, w.polyline))
                 for w in net.walls)


def _points_doc(points):
    return [[str(x), str(y)] for x, y in points]


def geometry_doc(cuts, walls=()):
    """The network document, as ``schema.emit_network`` writes it, of cuts
    and walls with ``Fraction`` polylines."""
    return {"schema": schema.NETWORK_SCHEMA,
            "walls": [{"id": w.id, "label": list(w.label),
                       "branch": w.start_branch, "end_edge": w.end_edge,
                       "end_cone": w.end_cone,
                       "polyline": _points_doc(w.polyline)} for w in walls],
            "layout": {"branch_points": _points_doc(c.polyline[0]
                                                    for c in cuts),
                       "cuts": [{"polyline": _points_doc(c.polyline),
                                 "transposition": list(c.transposition),
                                 "edge": c.edge} for c in cuts]}}


def on_grid(disk, cuts, walls=()):
    """The network of cuts and walls with ``Fraction`` polylines.

    They are written as a problem document's network (``geometry_doc``)
    and read back by ``schema.parse_network`` and placed by
    ``schema.place_network``, so they land on one grid as every
    document's do.
    """
    return schema.place_network(
        disk, *schema.parse_network(disk.fan, geometry_doc(cuts, walls)))


def edited_network(net, walls=None, cuts=None):
    """``net`` with its walls or its cuts replaced, through ``on_grid``.

    ``walls`` and ``cuts`` hold ``Fraction`` polylines; the ones not
    given are ``net``'s own.
    """
    return on_grid(net.disk,
                   rational_cuts(net.layout) if cuts is None else cuts,
                   rational_walls(net) if walls is None else walls)


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


GEN_TOOLKIT = SimpleNamespace(errors=errors, fans=fans,
                              multisection=multisection, schema=schema)


def perfbench_gen():
    """The benchmark's problem generator, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def generated_documents(label, seed, count):
    """Seeded generated problem documents: ((n, N), document) for
    (12, 12), then for ``count`` random smaller shapes."""
    gen = perfbench_gen()
    rng = random.Random(seed)
    shapes = [(12, 12)] + [(n, rng.randint(3, n))
                           for n in rng.sample(range(4, 12), count)]
    for n, big_n in shapes:
        doc = gen.generate(n, big_n, f"{label}:{rng.randrange(10 ** 6)}",
                           GEN_TOOLKIT)
        yield (n, big_n), json.loads(gen.serialize(doc))


def generated_problems(label, seed, count):
    """``generated_documents``, each parsed: ((n, N), spec)."""
    for shape, doc in generated_documents(label, seed, count):
        yield shape, schema.parse_problem(doc)


def skewed_fan_and_support(rng, n):
    """A random smooth n-ray fan and a skewed, strictly convex support.

    The fan is a random blow-up of the projective plane's (each step
    inserts v_i + v_{i+1} between a random adjacent pair), turned by a
    random SL(2, Z) map.  The support is phi_i = -ceil(K * sqrt(v_i^T A
    v_i)) - j_i for a random positive-definite integer A and jitters j_i
    in 0..2, at the first K in 1, 2, 4, ... that makes the polygon
    strictly convex.
    """
    rays = [(1, 0), (0, 1), (-1, -1)]
    while len(rays) < n:
        i = rng.randrange(len(rays))
        a, b = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, (a[0] + b[0], a[1] + b[1]))
    for _ in range(rng.randint(1, 4)):
        k = rng.choice((-2, -1, 1, 2))
        if rng.random() < 0.5:
            rays = [(x + k * y, y) for x, y in rays]
        else:
            rays = [(x, y + k * x) for x, y in rays]
    a, c = rng.randint(1, 9), rng.randint(1, 9)
    b = rng.randint(-isqrt(a * c - 1), isqrt(a * c - 1))
    jitter = [rng.randint(0, 2) for _ in rays]
    fan = fans.make_fan(rays)
    for k in (2 ** e for e in range(40)):
        values = []
        for (x, y), j in zip(rays, jitter):
            t = k * k * (a * x * x + 2 * b * x * y + c * y * y)
            values.append(-(isqrt(t - 1) + 1) - j)
        try:
            fans.dual_polytope(fan, fans.SupportFunction(fan, values))
        except errors.NotStrictlyConvex:
            continue
        return fan, values
    raise AssertionError("no K < 2^40 gives a strictly convex support")


def skewed_problem(rng, n, crossings):
    """A realizable 2-fold problem with N = ``crossings`` on a skewed fan.

    The fan and support are ``skewed_fan_and_support``'s; the
    multi-section is the benchmark generator's ``two_fold_problem``, with
    its N sign changes at random transitions instead of evenly spread
    ones, so the crossing cones are a random N-subset of the cones.
    """
    gen = perfbench_gen()
    fan, support = skewed_fan_and_support(rng, n)
    flips = set(rng.sample(range(n), crossings))

    def random_flip_pattern(n, crossings):
        signs = [1]
        for k in range(n - 1):
            signs.append(-signs[-1] if k in flips else signs[-1])
        return signs

    gen.flip_pattern = random_flip_pattern   # this copy of the module only
    doc = gen.two_fold_problem(fan.rays, support, crossings, rng)
    gen.check_problem(doc, crossings, GEN_TOOLKIT)
    spec = schema.parse_problem(doc)
    assert spec.tms.crossing_cones == sorted(flips)
    return spec


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


def ref_dual_polytope(fan, phi):
    """``fans.dual_polytope`` on Fractions: every vertex is solved as a
    Fraction pair first, put over the lcm of the denominators, and strict
    convexity is then checked on those int pairs.  A cone of any nonzero
    determinant is solved, so the reference also reads the polygon of a
    hand-built ``Fan`` that is not smooth."""
    if phi.fan is not fan and phi.fan != fan:
        raise errors.NotStrictlyConvex(
            "support function belongs to another fan")
    n = fan.n
    vertices = []
    for i in range(n):
        v1, v2 = fan.ray(i), fan.ray(i + 1)
        det = cross(v1, v2)
        a, b = phi[i], phi[i + 1]
        vertices.append((Fraction(a * v2[1] - b * v1[1], det),
                         Fraction(b * v1[0] - a * v2[0], det)))
    den = lcm(*(c.denominator for v in vertices for c in v))
    for i, v in enumerate(vertices):
        m = tuple(c.numerator * (den // c.denominator) for c in v)
        if dot(m, fan.ray(i + 2)) <= phi[i + 2] * den:
            raise errors.NotStrictlyConvex(
                "support function is not strictly convex across ray "
                f"{(i + 2) % n}")
    return RefPolygon(fan, vertices)


class RefPolygon:
    """The polygon of ``ref_dual_polytope``: ``Fraction`` vertices, and its
    edges and barycenters by the ``Fraction`` formulas."""

    def __init__(self, fan, vertices):
        self.fan, self.vertices, self.n = fan, vertices, len(vertices)

    def vertex(self, i):
        return self.vertices[i % self.n]

    def edge(self, i):
        """Endpoints of the edge dual to ray i: (vertex i-1, vertex i)."""
        return (self.vertex(i - 1), self.vertex(i))

    def edge_barycenter(self, i):
        return midpoint(*self.edge(i))

    def barycenter(self):
        return polygon_barycenter(self.vertices)


class RefDisk:
    """The disk model on ``Fraction`` points, built from the fan and the
    support values alone, on ``ref_dual_polytope``: the oracle of
    ``fans.DiskModel`` and ``cover.GridPoints``, sharing no kernel with
    them.  ``scale`` is the lcm of the reduced denominators of the center
    and the edge barycenters, and ``grid(scale)`` the vertices and spokes
    times ``scale`` as int pairs."""

    def __init__(self, fan, phi):
        self.fan = fan
        self.polytope = ref_dual_polytope(fan, phi)
        self.center = self.polytope.barycenter()
        self.ray_segments = {i: (self.center, self.polytope.edge_barycenter(i))
                             for i in range(fan.n)}
        self.scale = lcm(*(c.denominator for seg in self.ray_segments.values()
                           for p in seg for c in p))

    def spoke(self, i):
        return self.ray_segments[i % self.fan.n]

    def grid(self, scale):
        """(vertices, spokes), each point times ``scale`` as an int pair."""
        def on(p):
            x, y = p[0] * scale, p[1] * scale
            assert x.denominator == y.denominator == 1, (p, scale)
            return (int(x), int(y))

        return (tuple(map(on, self.polytope.vertices)),
                tuple((on(a), on(b)) for a, b in
                      map(self.spoke, range(self.fan.n))))


def ref_disk(disk):
    """The ``RefDisk`` of a disk model's fan and support values."""
    return RefDisk(disk.fan, disk.polytope.phi)


def emit_matrix(m):
    """The written term list of a LaurentMatrix: one term (row, col, num,
    den, ex, ey) per monomial, sorted, as in ``cocycle.json``."""
    terms = []
    for i in range(m.size):
        for j in range(m.size):
            for e, c in m.entry(i, j).terms.items():
                terms.append((i, j, c.numerator, c.denominator, e[0], e[1]))
    return tuple(sorted(terms))


def parse_matrix(terms, size):
    """Inverse of ``emit_matrix``: a flat term list back to a matrix; a
    ``TPoly`` coefficient is written over 1."""
    rows = [[dict() for _ in range(size)] for _ in range(size)]
    for row, col, num, den, ex, ey in terms:
        rows[row][col][(ex, ey)] = num if den == 1 else Fraction(num, den)
    return ref_matrix(rows)


def pair(coc, i, j):
    """G_ij of a cocycle as a LaurentMatrix, parsed from its written terms
    (``KaneyamaCocycle.written``); cone indices are taken mod n."""
    n = coc.tms.fan.n
    return parse_matrix(coc.written[(i % n, j % n)], coc.cover.r)


def matrices(coc):
    """(i, j) -> G_ij of a cocycle as LaurentMatrix values, in the order of
    its written terms."""
    return {k: parse_matrix(terms, coc.cover.r)
            for k, terms in coc.written.items()}


def near_identities(n):
    """Matrices that differ from Id_n in one entry: a diagonal coefficient
    of 2, an extra z^(1,0) term on the diagonal, a nonzero off-diagonal."""
    ident = ref_identity(n)
    return [
        ref_with_entry(ident, 0, 0, LaurentPoly({(0, 0): 2})),
        ref_with_entry(ident, 1, 1, LaurentPoly({(0, 0): 1, (1, 0): 1})),
        ref_with_entry(ident, 0, 1, LaurentPoly({(0, 0): Fraction(1, 3)})),
    ]


# -- reference Laurent form and arithmetic ------------------------------------
# The package multiplies constants between torus frames, writes each
# transition matrix once as its ``cocycle.json`` term list, and never forms
# a Laurent matrix.  ``LaurentPoly`` and ``LaurentMatrix`` are the Laurent
# form the tests read those lists back into (``pair``, ``matrices``) and
# write mutated matrices from (``with_matrices``).  Polynomials of the
# arithmetic are plain term dicts {(ex, ey): coefficient}, and every
# partial sum and product goes through the cleaning constructor
# ``ref_clean`` again.  It shares no code with ``toricnets.laurent``; the
# ``ref_*`` matrix helpers below read and build ``LaurentMatrix`` values
# through it.

class LaurentPoly:
    """A Laurent polynomial sum of c * z^(e) with e in Z^2; each c is a
    Fraction or a TPoly.  Canonical form: the ``terms`` dict has sorted
    exponent keys that are pairs of ``int`` and nonzero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        acc = {}
        for e, c in (terms or {}).items():
            e = (int(e[0]), int(e[1]))
            c = c if isinstance(c, TPoly) else Fraction(c)
            acc[e] = acc[e] + c if e in acc else c
        self.terms = {e: acc[e] for e in sorted(acc) if acc[e]}

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*z^{e}" for e, c in self.terms.items())


class LaurentMatrix:
    """Square matrix of Laurent polynomials."""

    __slots__ = ("size", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(x if isinstance(x, LaurentPoly)
                           else LaurentPoly({(0, 0): x}) for x in row)
                     for row in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise SizeMismatch("matrix must be square")
        self.size = n
        self.rows = rows

    @staticmethod
    def framed(const, source, target):
        """D_target const D_source^-1 for the frames D = diag(z^m_s).

        ``source`` and ``target`` list one exponent m_s per sheet; entry
        (row, col) is const[row][col] z^(target[row] - source[col]), one
        monomial per nonzero entry of the ``laurent`` constant, whose
        coefficient is the entry over den (a ``TPoly`` entry as it is).
        """
        rows, den = rows_den(const)
        return LaurentMatrix([
            [LaurentPoly({(t[0] - s[0], t[1] - s[1]):
                          c if isinstance(c, TPoly) else Fraction(c, den)}
                         if c else {})
             for c, s in zip(row, source)]
            for row, t in zip(rows, target)])

    def entry(self, i, j):
        return self.rows[i][j]

    def __eq__(self, other):
        return (isinstance(other, LaurentMatrix)
                and self.size == other.size and self.rows == other.rows)

    def __repr__(self):
        return "LaurentMatrix(" + ", ".join(
            "[" + ", ".join(repr(x) for x in row) + "]"
            for row in self.rows) + ")"


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
                term = ref_mul(a[i][k], b[k][j])
                # the first term is clean already
                s = ref_add(s, term) if s else term
            row.append(s)
        out.append(row)
    return out


def ref_constant_mat_mul(a, b):
    """The product of two ``laurent`` constants, each entry the running
    sum of its products (``sum(map(mul, row, col))``, canonical after every
    product and partial sum), brought to canonical form by ``constant``.
    ``laurent.mat_mul`` must agree with it exactly, as tuples."""
    (rows_a, den_a), (rows_b, den_b) = rows_den(a), rows_den(b)
    cols = [*zip(*rows_b)]
    return constant([[sum(map(mul, row, col)) for col in cols]
                     for row in rows_a], den_a * den_b)


def ref_matrix(rows):
    """A LaurentMatrix from rows of term dicts."""
    return LaurentMatrix([[LaurentPoly(t) for t in row] for row in rows])


def ref_terms(m):
    """A LaurentMatrix as rows of term dicts."""
    return [[dict(p.terms) for p in row] for row in m.rows]


def ref_identity(r):
    return ref_matrix([[{(0, 0): Fraction(1)} if i == j else {}
                        for j in range(r)] for i in range(r)])


def ref_is_identity(m):
    return m == ref_identity(m.size)


def ref_with_entry(m, i, j, p):
    """A copy of the LaurentMatrix m with entry (i, j) replaced by p."""
    rows = [list(row) for row in m.rows]
    rows[i][j] = p
    return LaurentMatrix(rows)


def ref_product(*matrices):
    """The product m_0 m_1 ... m_k of LaurentMatrix operands."""
    rows = ref_terms(matrices[0])
    for m in matrices[1:]:
        rows = ref_mat_mul(rows, ref_terms(m))
    return ref_matrix(rows)


def ref_det(m):
    """Determinant of a LaurentMatrix by cofactor expansion: a term dict."""
    def det(a):
        if len(a) == 1:
            return a[0][0]
        total = {}
        for j, x in enumerate(a[0]):
            term = ref_mul(x, det([row[:j] + row[j + 1:] for row in a[1:]]))
            total = ref_add(total, ref_neg(term) if j % 2 else term)
        return total
    return det(ref_terms(m))


def ref_regular_on(m, fan, cone):
    """True iff every exponent pairs >= 0 with every cone generator."""
    gens = cone_generators(fan, cone)
    return all(dot(e, v) >= 0 for row in m.rows for p in row
               for e in p.terms for v in gens)


def ref_is_invertible_on(m, fan, cone):
    """True iff m is a unit of GL_r over the cone's chart: regular, with
    determinant one term c z^e, c a unit and <e, v> = 0 for every
    generator.  NotRegular if m is not regular there."""
    if not ref_regular_on(m, fan, cone):
        raise NotRegular("matrix is not regular on the given cone")
    d = ref_det(m)
    if len(d) != 1:
        return False
    ((e, c),) = d.items()
    if isinstance(c, TPoly) and len(c.terms) != 1:
        return False
    return all(dot(e, v) == 0 for v in cone_generators(fan, cone))


def rows_den(c):
    """A ``laurent`` constant, the flat tuple ``(den, *entries)``, as
    ``(rows, den)``: its r x r entries as a tuple of row tuples, and its
    denominator."""
    den, *entries = c
    r = isqrt(len(entries))
    return tuple(tuple(entries[k:k + r]) for k in range(0, r * r, r)), den


def fraction_rows(c):
    """The entries of a ``laurent`` constant over its denominator, as rows
    of ``Fraction``s; a ``TPoly`` entry (over denominator 1) as it is."""
    rows, den = rows_den(c)
    return tuple(tuple(x if isinstance(x, TPoly) else Fraction(x, den)
                       for x in row) for row in rows)


# -- reference factor and substitution ----------------------------------------
# The generic paths the closed forms replaced: a wall factor accumulated
# from its solitons into identity rows and brought to canonical form by
# one ``laurent.constant`` pass, with each transport read from the cut
# weights directly, and the substitution of holonomies for t in
# ``Fraction`` arithmetic.

def reference_unipotent(row, col, x):
    """Id + x E_{row, col}, 2 x 2, through ``laurent.constant``."""
    rows = [[1, 0], [0, 1]]
    rows[row][col] = x
    return constant(rows)


def reference_wall_factor(wall, factors):
    """The factor of ``wall`` in the table ``factors``: each soliton's
    transport, the weight t of its cut from sheet 0 and 1/t from sheet 1,
    signed by its turns, added into the identity rows."""
    rows = [list(row) for row in rows_den(identity(factors.cover.r))[0]]
    for sol in enumerate_solitons(factors.net, wall):
        t = factors.ls.cut_weights[sol.cut_index]
        lam = t if sol.source_sheet == 0 else 1 / t
        if sol.turns % 2:
            lam = -lam
        a, b = sol.source_sheet, sol.target_sheet
        rows[b][a] = rows[b][a] + lam if rows[b][a] else lam
    return constant(rows)


def reference_substitute(a, values):
    """A constant with t_k replaced by ``values[k - 1]``, in ``Fraction``
    arithmetic: each monomial as a product of powers, each entry summed,
    and the rows brought to canonical form by ``laurent.constant``."""
    values = [Fraction(v) for v in values]

    def evaluated(c):
        if not isinstance(c, TPoly):
            return c
        total = Fraction(0)
        for exponents, x in c.terms.items():
            for v, k in zip(values, exponents):
                if k:
                    x *= v ** k
            total += x
        return total

    rows, den = rows_den(a)
    return constant([[evaluated(c) for c in row] for row in rows], den)


def laurent_form(const, source, target, tms, cover):
    """The Laurent matrix D_target C D_source^-1 of a constant C crossed
    from region ``source`` into region ``target``, with the frames
    D_R = diag(z^m(lift(R, s))) written out."""
    lift = sheet_lift_map(tms, cover)
    c, r = fraction_rows(const), cover.r
    return ref_matrix([[{sub(tms.slope(lift[(target, row)]),
                             tms.slope(lift[(source, col)])):
                         c[row][col]} if c[row][col] else {}
                        for col in range(r)] for row in range(r)])


# -- reference bundle verification --------------------------------------------
# The sweep ``nonabelian.verify_bundle`` replaced, in Laurent arithmetic:
# the lift map recomputed from the cover, the tropicalization round trip
# as a search from each anchor, and two Laurent products on every ordered
# triple of distinct cones.  The round trip comes first: if an entry is
# off its frame or a (cone, sheet) is not reached from its anchor, the
# report holds exactly those violations.

def reference_verify_bundle(coc, tms):
    from toricnets.reporting import ValidationReport

    report = ValidationReport()
    fan = tms.fan
    n = fan.n
    r = coc.cover.r
    lift = sheet_lift_map(tms, coc.cover)
    mats = matrices(coc)
    links = {}
    for i in range(n):
        for j in range(n):
            for row in range(r):
                for col in range(r):
                    terms = mats[(i, j)].entry(row, col).terms
                    if not terms:
                        continue
                    links.setdefault((i, col), set()).add((j, row))
                    links.setdefault((j, row), set()).add((i, col))
                    frame = sub(tms.slope(lift[(j, row)]),
                                tms.slope(lift[(i, col)]))
                    if list(terms) != [frame]:
                        report.add("tropicalization",
                                   f"G_({i},{j}) entry ({row},{col}) has "
                                   f"exponents {list(terms)}, not the frame "
                                   f"exponent {frame}", (i, j, row, col))
    reached = {}
    for orbit in coc.cover.sheet_orbits:
        anchor = (0, min(orbit))
        seen, todo = {anchor}, [anchor]
        while todo:
            for other in links.get(todo.pop(), ()):
                if other not in seen:
                    seen.add(other)
                    todo.append(other)
        reached.update({s: seen for s in orbit})
    for i in range(n):
        unjoined = [s for s in range(r) if (i, s) not in reached[s]]
        if unjoined:
            report.add("tropicalization",
                       f"no chain of nonzero entries joins sheets {unjoined} "
                       f"over cone {i} to their anchor over cone 0", i)
    if not report:
        return report
    g = {(i, j): ref_terms(mats[(i, j)]) for i in range(n) for j in range(n)}
    ident = ref_terms(ref_identity(r))
    for i in range(n):
        if g[(i, i)] != ident:
            report.add("identity", f"G_({i},{i}) is not the identity", i)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if ref_mat_mul(g[(i, j)], g[(j, i)]) != ident:
                report.add("inverses", f"G_({i},{j}) G_({j},{i}) != Id", (i, j))
    for i in range(n):
        overlap = mats[((i - 1) % n, i)]
        cone = ray_cone(i)
        if not ref_regular_on(overlap, fan, cone):
            report.add("regularity",
                       f"G over the ray-{i} overlap has negative exponents", i)
            continue
        if not ref_is_invertible_on(overlap, fan, cone):
            report.add("invertibility",
                       f"G over the ray-{i} overlap is not a unit there", i)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) != 3:
                    continue
                if ref_mat_mul(ref_mat_mul(g[(k, i)], g[(j, k)]),
                               g[(i, j)]) != ident:
                    report.add("cocycle",
                               f"triple ({i},{j},{k}) fails the cocycle "
                               "condition", (i, j, k))
    return report


# -- reference point location -----------------------------------------------
# The ``Fraction`` point locators the package used before it located points
# on the integer grid (``cover.GridPoints``): regions, and boundary
# positions and half-edges.  The grid locators must agree with them.


def contains(poly, p):
    """1 interior, 0 boundary, -1 outside."""
    return ref_point_in_convex_polygon(p, poly.vertices)


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
    """Region membership of a point of the polygon of a ``RefDisk``.

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


def edge_parameter(polytope, edge_index, point):
    """Exact parameter of a point on the polygon edge, or None."""
    a, b = polytope.edge(edge_index)
    d = geom.sub(b, a)
    w = geom.sub(point, a)
    if geom.cross(d, w) != 0:
        return None
    if d[0] != 0:
        t = Fraction(w[0], d[0])
    else:
        t = Fraction(w[1], d[1])
    if 0 <= t <= 1:
        return t
    return None


def boundary_position(polytope, point):
    """(edge, parameter) of a boundary point, or None off the boundary.

    The parameter is taken in [0, 1): vertex e is t = 0 of edge e+1 rather
    than t = 1 of edge e.  The edges are searched in order.
    """
    for e in range(polytope.n):
        t = edge_parameter(polytope, e, point)
        if t is not None and t < 1:
            return (e, t)
    return None


def half_edge_of_boundary_point(polytope, point):
    """(edge, cone-of-vertex-endpoint) for a half-edge interior point.

    Returns None when the point is a vertex or a barycenter (not in the
    relative interior of any half-edge).
    """
    pos = boundary_position(polytope, point)
    if pos is None:
        return None
    e, t = pos
    if t == 0 or t == Fraction(1, 2):
        return None
    n = polytope.n
    cone = (e - 1) % n if t < Fraction(1, 2) else e % n
    return e, cone


# -- reference quarter-point walk ---------------------------------------------
# The builder's waypoint search before it became a walk: every quarter
# point scored by its cw distance from the start, then sorted.


def quarter_points_cw(polytope, start_edge, start_t, end_edge, end_t):
    """Quarter points (edge, 1/4 or 3/4) walking cw from start to end.

    Returned in cw order, excluding the start longitude, including the end
    one.  Longitudes live on the cyclic coordinate edge_index + t mod n.
    """
    n = polytope.n
    start = start_edge + start_t
    end = end_edge + end_t

    def cw_dist(frm, to):
        return (frm - to) % n

    horizon = cw_dist(start, end)
    out = []
    for e in range(n):
        for t in (Fraction(1, 4), Fraction(3, 4)):
            d = cw_dist(start, e + t)
            if 0 < d <= horizon:
                out.append((d, e, t))
    out.sort()
    return [(e, t) for _, e, t in out]


# -- reference placement, arm order and drawing -------------------------------
# The builder's placement, the arm order of a branch point and the SVG writer
# in ``Fraction`` arithmetic, as they were before they moved onto the integer
# grid: every point a ``lerp`` of ``Fraction`` points, every direction a
# ``Fraction`` difference, every screen coordinate a ``Fraction`` product
# turned into a float.


def _ref_edge_point(polytope, e, t):
    a, b = polytope.edge(e)
    return lerp(a, b, t)


def _ref_depth_point(disk, boundary_point, s):
    return lerp(boundary_point, disk.center, s)


def reference_build_geometry(disk, plans, depths=None):
    """``builder._build_geometry`` in ``Fraction`` arithmetic, on a
    ``RefDisk``.

    The Y-graph of depth index d sits at depth ``depths[d]``, by default
    the builder's 1/3 * 2^-d.  Returns the raw walls (branch index,
    polyline, end edge, end parameter) and the cuts, with ``Fraction``
    points and parameters, in the order the builder places them.
    """
    polytope = disk.polytope
    walls_raw = []
    cuts = []
    base_depth = Fraction(1, 3)
    for p in plans:
        s = depths[p.depth_index] if depths else \
            base_depth * Fraction(1, 2) ** p.depth_index
        q_long = _ref_edge_point(polytope, p.w3_edge, Fraction(1, 4))
        b = _ref_depth_point(disk, q_long, s)
        w3 = (b, q_long)
        cut_poly = (b, polytope.edge_barycenter(p.w3_edge))
        w2 = (b, _ref_edge_point(polytope, p.w2_edge, Fraction(3, 4)))
        w1_t = Fraction(*p.w1_t)
        w1_target = _ref_edge_point(polytope, p.w1_edge, w1_t)
        pts = [b]
        for e, t in quarter_points_cw(polytope, p.w3_edge, Fraction(1, 4),
                                      p.w1_edge, Fraction(3, 4)):
            pts.append(_ref_depth_point(
                disk, _ref_edge_point(polytope, e, t), s))
        pts.append(w1_target)
        bi = p.depth_index
        walls_raw.append((bi, tuple(pts), p.w1_edge, w1_t))
        walls_raw.append((bi, w2, p.w2_edge, Fraction(3, 4)))
        walls_raw.append((bi, w3, p.w3_edge, Fraction(1, 4)))
        cuts.append(Cut(cut_poly, (0, 1), p.w3_edge))
    return walls_raw, tuple(cuts)


def _ref_angle(v):
    """An exact sort key of direction v by its angle in [0, 2*pi), on the
    ``Fraction`` coordinates: the quarter turn q it lies in, then the
    slope y/x of v turned back by q quarter turns into [0, pi/2)."""
    x, y = map(Fraction, v)
    for q in range(4):
        if x > 0 and y >= 0:
            return q, y / x
        x, y = y, -x
    raise ValueError(f"zero direction {v}")


def reference_branch_point_arms(net, b):
    """``network.branch_point_arms`` on the ``Fraction`` points.

    The walls of branch point b in ccw order of their first directions,
    starting after its cut's, as it was before the order was read on the
    layout's grid, with the angles compared by ``_ref_angle``.
    """
    def direction(polyline):
        return sub(polyline[1], polyline[0])

    cut = rational(net.layout, net.cuts[b].polyline)
    arms = [("cut", None, direction(cut))]
    arms += [("wall", w, direction(rational(net.layout, w.polyline)))
             for w in net.walls if w.start_branch == b]
    arms.sort(key=lambda arm: _ref_angle(arm[2]))
    cut_pos = next(i for i, a in enumerate(arms) if a[0] == "cut")
    return tuple(a[1] for a in arms[cut_pos + 1:] + arms[:cut_pos])


_REF_WALL_COLORS = {(0, 1): "#1f5fbf", (1, 0): "#bf1f2f"}
_REF_VIEW = 640
_REF_MARGIN = 40


def _ref_mapper(polytope):
    xs = [v[0] for v in polytope.vertices]
    ys = [v[1] for v in polytope.vertices]
    lo = (min(xs), min(ys))
    hi = (max(xs), max(ys))
    span = max(hi[0] - lo[0], hi[1] - lo[1], Fraction(1))
    scale = Fraction(_REF_VIEW - 2 * _REF_MARGIN) / span

    def to_screen(p):
        x = _REF_MARGIN + float((p[0] - lo[0]) * scale)
        y = _REF_VIEW - _REF_MARGIN - float((p[1] - lo[1]) * scale)
        return f"{x:.3f},{y:.3f}"

    return to_screen


def _ref_polyline(points, to_screen, stroke, extra=""):
    pts = " ".join(to_screen(p) for p in points)
    return (f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="1.6" {extra}/>')


def reference_render_svg(disk, net=None, layout=None) -> str:
    """``render.render_svg`` drawing from the ``Fraction`` points of a
    ``RefDisk`` and of the layout."""
    view = _REF_VIEW
    polytope = disk.polytope
    to_screen = _ref_mapper(polytope)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{view}" '
             f'height="{view}" viewBox="0 0 {view} {view}">',
             '<rect width="100%" height="100%" fill="white"/>']
    boundary = list(polytope.vertices) + [polytope.vertices[0]]
    parts.append(_ref_polyline(boundary, to_screen, "#202020"))
    for i in range(disk.fan.n):
        a, b = disk.spoke(i)
        parts.append(_ref_polyline([a, b], to_screen, "#b0b0b0",
                                   'stroke-dasharray="2,3"'))
        mid = polytope.edge_barycenter(i)
        parts.append(f'<circle cx="{to_screen(mid).split(",")[0]}" '
                     f'cy="{to_screen(mid).split(",")[1]}" r="2.5" '
                     f'fill="#b0b0b0"/>')
    for i, v in enumerate(polytope.vertices):
        x, y = to_screen(v).split(",")
        parts.append(f'<circle cx="{x}" cy="{y}" r="3" fill="#202020"/>')
        parts.append(f'<text x="{float(x) + 6:.3f}" y="{float(y) - 6:.3f}" '
                     f'font-size="12" fill="#202020">s{i}</text>')
    if layout is not None:
        cuts = rational_cuts(layout)
        for cut in cuts:
            parts.append(_ref_polyline(cut.polyline, to_screen, "#707070",
                                       'stroke-dasharray="6,4"'))
        for p in (cut.polyline[0] for cut in cuts):
            x, y = to_screen(p).split(",")
            parts.append(f'<g stroke="#202020" stroke-width="1.4">'
                         f'<line x1="{float(x) - 4:.3f}" y1="{float(y) - 4:.3f}" '
                         f'x2="{float(x) + 4:.3f}" y2="{float(y) + 4:.3f}"/>'
                         f'<line x1="{float(x) - 4:.3f}" y1="{float(y) + 4:.3f}" '
                         f'x2="{float(x) + 4:.3f}" y2="{float(y) - 4:.3f}"/></g>')
    if net is not None:
        for w in rational_walls(net):
            color = _REF_WALL_COLORS.get(tuple(w.label), "#3f8f3f")
            parts.append(_ref_polyline(w.polyline, to_screen, color))
            end = to_screen(w.end).split(",")
            lbl = f"{w.label[0] + 1}{w.label[1] + 1}"
            parts.append(f'<text x="{float(end[0]) + 4:.3f}" '
                         f'y="{float(end[1]) - 4:.3f}" font-size="10" '
                         f'fill="{color}">{lbl}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


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


def ref_point_in_convex_polygon(p, vertices):
    """1 interior, 0 boundary, -1 outside, for a ccw convex polygon."""
    edges = [(vertices[i], vertices[(i + 1) % len(vertices)])
             for i in range(len(vertices))]
    if any(ref_orient(a, b, p) < 0 for a, b in edges):
        return -1
    return 0 if any(ref_on_segment(p, a, b) for a, b in edges) else 1


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
            # tolerated: both segments end at a shared point s, and no
            # other end of either lies on the other segment
            contact_ok = False
            for s in shared:
                if (s in (a1, a2)) and (s in (b1, b2)):
                    a_others = [p for p in (a1, a2) if p != s]
                    b_others = [p for p in (b1, b2) if p != s]
                    if not any(ref_on_segment(o, b1, b2) for o in a_others) \
                       and not any(ref_on_segment(o, a1, a2)
                                   for o in b_others):
                        contact_ok = True
            if not contact_ok:
                return False
    return True


def ref_walls_pairwise_disjoint(walls):
    for i, a in enumerate(walls):
        for b in walls[i + 1:]:
            shared = a.polyline[0] == b.polyline[0]
            if not ref_polyline_pairwise_disjoint(
                    list(a.polyline), list(b.polyline),
                    skip_shared_endpoints=shared):
                return False
    return True


def ref_proper_crossing(a1, a2, b1, b2):
    d1 = ref_orient(b1, b2, a1)
    d2 = ref_orient(b1, b2, a2)
    d3 = ref_orient(a1, a2, b1)
    d4 = ref_orient(a1, a2, b2)
    return d1 * d2 < 0 and d3 * d4 < 0


def _ref_sheet_lift_map(tms, cover):
    """The sheet/lift matching, walked over the listed lifted cones and
    rays: sheet s over cone 0 is the s-th listed lift of cone 0; across
    ray i = 1, ..., n - 1 a sheet follows the last listed lifted ray over
    ray i from its lift, and a cut landing on edge i swaps the two
    sheets; across ray 0 the walk must come back to cone 0's lifts.
    Raises ``NoSharedLift`` with the messages of the package."""
    from toricnets.errors import NoSharedLift

    n, r = tms.fan.n, cover.r
    if tms.degree != r:
        raise NoSharedLift(
            f"cover has {r} sheets, multi-section degree {tms.degree}")
    landed = {c.edge for c in cover.cuts}

    def across(i, lift_id):
        ends = [ray.dst for ray in tms.lifted_rays
                if ray.ray == i and ray.src == lift_id]
        return ends[-1] if ends else None

    def swapped(i, s):
        return 1 - s if i in landed else s

    base = [c.id for c in tms.lifted_cones if c.base == 0]
    if len(base) < r:
        raise NoSharedLift(f"cone 0 has {len(base)} lifts for {r} sheets")
    lift = {(0, s): base[s] for s in range(r)}
    for i in range(1, n):
        for s in range(r):
            prev = lift[(i - 1, s)]
            nxt = across(i, prev)
            if nxt is None:
                raise NoSharedLift(f"no lifted ray over ray {i} from {prev}")
            lift[(i, swapped(i, s))] = nxt
    for s in range(r):
        if across(0, lift[(n - 1, s)]) != lift[(0, swapped(0, s))]:
            raise NoSharedLift(
                "cut transpositions do not realize the multi-section "
                f"monodromy (mismatch at ray 0, sheet {s})")
    return lift


def reference_validate_network(net, tms, cover):
    from toricnets.errors import NoSharedLift
    from toricnets.reporting import ValidationReport

    report = ValidationReport()
    ref = ref_disk(net.layout.disk)
    poly = ref.polytope
    fan = net.fan
    n = fan.n
    bad_labels = set()
    walls = rational_walls(net)
    cuts = rational_cuts(net.layout)
    branch_points = [c.polyline[0] for c in cuts]

    for w in walls:
        for p in w.polyline[1:-1]:
            if contains(poly, p) != 1:
                report.add("1", f"wall {w.id} has a non-interior vertex", p)
        if contains(poly, w.start) != 1 and w.start_branch is not None:
            report.add("1", f"wall {w.id} starts outside the open polygon",
                       w.start)
        for cut in cuts:
            if not ref_polyline_pairwise_disjoint(
                    list(w.polyline), list(cut.polyline),
                    skip_shared_endpoints=(w.start_branch is not None)):
                report.add("1", f"wall {w.id} meets a branch cut", w.id)
        for si in range(n):
            s1, s2 = ref.spoke(si)
            for j in range(len(w.polyline) - 1):
                a, b = w.polyline[j], w.polyline[j + 1]
                if ref_segments_cross(a, b, s1, s2) and \
                        not ref_proper_crossing(a, b, s1, s2):
                    report.add("1",
                               f"wall {w.id} meets the spoke of ray {si} "
                               "non-transversely", si)
        a, b = w.label
        if a == b or not (0 <= a < cover.r and 0 <= b < cover.r):
            report.add("2", f"wall {w.id} carries a bad label {w.label}")
            bad_labels.add(w.id)
        interior_hits = 0
        for bp in branch_points:
            for j in range(len(w.polyline) - 1):
                if ref_on_segment(bp, w.polyline[j], w.polyline[j + 1]):
                    if not (j == 0 and bp == w.start):
                        interior_hits += 1
        if interior_hits:
            report.add("5", f"wall {w.id} passes through a branch point")
        if w.start_branch is not None:
            if not 0 <= w.start_branch < len(branch_points):
                report.add("5", f"wall {w.id} names an unknown branch point "
                                f"{w.start_branch}", w.id)
            elif w.start != tuple(branch_points[w.start_branch]):
                report.add("5",
                           f"wall {w.id} does not start at its branch point")

    for w in walls:
        if w.start_branch is None and contains(poly, w.start) == 1:
            report.add("3", f"wall {w.id} starts at an undeclared joint",
                       w.start)
    for b in range(len(branch_points)):
        arms = [w for w in walls if w.start_branch == b]
        if len(arms) != 3:
            report.add("3", f"branch point {b} has {len(arms)} walls, not 3",
                       b)
    if not ref_walls_pairwise_disjoint(walls):
        report.add("3", "walls intersect away from branch points "
                        "(joint local models not realized here)")

    ids = [w.id for w in walls]
    if len(set(ids)) != len(ids):
        report.add("4", "duplicate wall ids")

    try:
        lift = _ref_sheet_lift_map(tms, cover)
    except NoSharedLift as exc:
        report.add("6", f"sheet/lift matching failed: {exc}")
        lift = None
    for w in walls:
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
    ref = ref_disk(disk)
    cuts = rational_cuts(layout)
    for c in cuts:
        if not (0 <= c.transposition[0] < r and 0 <= c.transposition[1] < r
                and c.transposition[0] != c.transposition[1]):
            raise OverlappingCuts(
                f"cut transposition {c.transposition} is not a valid swap")
        _ref_validate_cut_geometry(ref, c)
    for i, a in enumerate(cuts):
        for b in cuts[i + 1:]:
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
                    boundary_loop(net, base))
                   for base in range(factors.tms.fan.n)))
    for name, witness, loop in loops:
        if path_ordered(factors, loop) != identity(cover.r):
            report.add("loop", f"{name} is not the identity", witness)
            break
    return report


# -- reference boundary track -------------------------------------------------
# The track as ``network`` held it before it was kept edge by edge: one ccw
# list of every crossing keyed (edge, position, tier), the vertex chamber of
# cone i found by the sentinel key ((i + 1) % n, 0, -1), and each path cut
# out of the list with two bisections and a wrap-around.

def reference_track_events(net):
    """(key, Crossing) of every boundary-track crossing, sorted by key."""
    n, g = net.fan.n, net.layout.grid
    events = [((w.end_edge, g.edge_position(w.end, w.end_edge), 1),
               Crossing("wall", w.id)) for w in net.walls]
    for k, (cut, region) in enumerate(zip(net.cuts, net.layout.cut_region)):
        tier = 0 if region == (cut.edge - 1) % n else 2
        events.append(((cut.edge, g.mids[cut.edge % n], tier),
                       Crossing("cut", k)))
    events += [((e, g.mids[e], 1), Crossing("spoke", e)) for e in range(n)]
    return sorted(events, key=_track_key)


def _track_key(event):
    return event[0]


def _chamber_key(cone, n):
    return ((cone + 1) % n, 0, -1)


def reference_track_path(net, from_cone, to_cone):
    n = net.fan.n
    events = reference_track_events(net)
    lo, hi = _chamber_key(from_cone, n), _chamber_key(to_cone, n)
    i = bisect.bisect_right(events, lo, key=_track_key)
    j = bisect.bisect_left(events, hi, key=_track_key)
    chosen = ([] if lo == hi else events[i:j] if lo < hi
              else events[i:] + events[:j])
    return SurfacePath(from_cone % n, 0, [c for _, c in chosen])


def reference_boundary_loop(net, base_cone):
    n = net.fan.n
    events = reference_track_events(net)
    i = bisect.bisect_right(events, _chamber_key(base_cone, n),
                            key=_track_key)
    return SurfacePath(base_cone % n, 0,
                       [c for _, c in events[i:] + events[:i]])


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
        crossings.append(Crossing("spoke", nxt))
        region = nxt
    return crossings


def generator_loops(cover: SheetedSurface):
    """Loops whose holonomies coordinatize the local-system moduli.

    Loop k encircles branch points k+1 and 0: it crosses cut k+1
    positively from sheet 0, walks ccw back to cut 0's region,
    crosses cut 0 positively, and returns.  Requires a connected 2-fold
    cover (the only case with more than one cut in this package).
    """
    loops = []
    if not cover.cuts:
        return loops
    for k in range(1, len(cover.cuts)):
        r_k = cover.cut_region[k]
        r_0 = cover.cut_region[0]
        crossings = [Crossing("cut", k)]
        crossings += _spoke_run(cover, r_k, r_0)
        crossings.append(Crossing("cut", 0))
        crossings += _spoke_run(cover, r_0, r_k)
        loops.append(SurfacePath(r_k, 0, crossings))
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
    through ``laurent.substitute`` on a 1 x 1 constant."""
    return fraction_rows(substitute(constant(((c,),)), values))[0][0]


def with_matrices(coc, mats):
    """A copy of a cocycle whose written terms are those of the
    LaurentMatrix values ``mats`` (``emit_matrix``), in their order,
    instead of the ones its steps compose to."""
    out = KaneyamaCocycle(coc.tms, coc.cover, coc.steps, coc.lift)
    out.written = {k: emit_matrix(m) for k, m in mats.items()}
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


def ray_cone(i):
    return ("ray", i)


def cone_generators(fan, cone):
    """Generators of a cone reference ZERO_CONE, ``ray_cone(i)`` or
    ``max_cone(i)``: none, v_i, or (v_i, v_{i+1}); UnknownCone for an
    index out of range or another reference."""
    kind = cone[0]
    if kind == "zero":
        return ()
    if kind in ("ray", "max") and not 0 <= cone[1] < fan.n:
        raise UnknownCone(f"{kind} index {cone[1]} out of range")
    if kind == "ray":
        return (fan.rays[cone[1]],)
    if kind == "max":
        return (fan.rays[cone[1]], fan.rays[(cone[1] + 1) % fan.n])
    raise UnknownCone(f"unknown cone reference {cone!r}")


def dual_cell(polytope, cone):
    """Face of the polygon dual to a cone of its fan.

    Maximal cone -> vertex (a 1-point tuple), ray -> edge endpoints,
    zero cone -> all vertices.
    """
    if cone[0] == "zero":
        return tuple(polytope.vertices)
    cone_generators(polytope.fan, cone)  # UnknownCone for a bad reference
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
    """Ccw quadrilateral of region i of a ``RefDisk``."""
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
    polytope = ref_disk(net.layout.disk).polytope
    landings = sorted(((boundary_position(polytope,
                                          rational(net.layout, [w.end])[0]), w)
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


def parallel_transport(ls, path, reverse=False):
    """Product of the cut weights along a surface path (cuts are the only
    carriers); the first weight starts the product, so no unit is
    multiplied in.  The reference the wall factors' transports are held
    to.

    With ``reverse`` the path is walked backwards from its end state: a
    reverse crossing of cut k from sheet s undoes the positive crossing
    from the other sheet, so it carries the inverse of that crossing's
    weight.
    """
    states = path.states(ls.cover)
    steps = zip(path.crossings, states[:-1])
    if reverse:
        steps = zip(reversed(path.crossings), reversed(states[1:]))
    total = None
    for c, (_, sheet) in steps:
        if c.kind == "cut":
            w = (1 / ls.cut_crossing_weight(c.index, 1 - sheet) if reverse
                 else ls.cut_crossing_weight(c.index, sheet))
            total = w if total is None else total * w
    return Fraction(1) if total is None else total


def is_closed(path, cover):
    states = path.states(cover)
    return states[0] == states[-1]


def boundary_restriction(matrix, ray_vector):
    """Keep the terms whose exponents pair to zero with the ray.

    For a transition matrix over an adjacent cone pair this extracts the
    semi-flat monomial permutation (the restriction of the bundle to the
    toric boundary divisor of the shared ray).
    """
    return ref_matrix([[{e: c for e, c in p.terms.items()
                         if dot(e, ray_vector) == 0}
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
        m1 = boundary_restriction(pair(c1, i - 1, i), v)
        m2 = boundary_restriction(pair(c2, i - 1, i), v)
        for row in range(r):
            for col in range(r):
                p1, p2 = m1.entry(row, col).terms, m2.entry(row, col).terms
                if bool(p1) != bool(p2):
                    return False
                if not p1:
                    continue
                ((e1, a1),) = p1.items()
                ((e2, a2),) = p2.items()
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
