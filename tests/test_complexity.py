"""Complexity contracts on deterministic work counts.

Wall times drift from run to run; call counts do not.  On the benchmark's
generated (8, 8) and (16, 16) problems, whose constants P_ij are all
distinct, and on (16, 4), where few distinct constants fill the n^2
pairs, counted with ``support.count_calls``:

* one factor build per wall, cut and spoke crossed: the loop check
  builds the factor of each wall, cut and spoke that the adjacent steps
  and the branch-point loops cross once (``wall_factor``,
  ``cut_factor``, ``semiflat_factor``);
* a product table multiplies each pair of constants once: within the
  loop check, the composition of the constants P_ij and
  ``verify_bundle``, no two ``mat_mul`` calls take the same pair;
* a passing ``verify_bundle`` takes at most C(n, 2) + C(n - 1, 2)
  products: one per unordered pair and one per star triple;
* the counts are equal over two runs;
* the composition never multiplies by an identity step, and a passing
  ``verify_bundle`` takes det at most once per distinct P_{i-1,i};
* a local system inverts each cut weight at most once, however many
  wall factors read the inverse;
* the contact scan of a build (the cover's sweep and the network's) calls
  the kernel ``contact_kind`` exactly once per pair of segments of two
  polylines, not both fixed, whose closed boxes meet, as a brute-force
  count over all pairs finds them, and returns its keys sorted;
* a build decides each contact once, in its two sweeps: on the fixtures
  and on generated shapes up to (32, 32), counted over every ``geom``
  function, ``build_network`` makes no kernel call outside the sweeps and
  no ``on_segment`` call outside ``GridPoints.edge_position``, and calls
  no ``geom`` function but the point-location, angle and pairing helpers
  and the tolerance rule that reads the sweeps' kinds.
"""
import inspect
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from support import FIXTURES, GEN_TOOLKIT, count_calls, load, perfbench_gen

from toricnets import errors, geom, laurent, nonabelian, schema
from toricnets.builder import build_network
from toricnets.cover import betti_one, make_local_system
from toricnets.laurent import TPoly, identity
from toricnets.nonabelian import (Factors, branch_point_loop,
                                  kaneyama_cocycle, verify_bundle)

BUILDS = {"wall": "wall_factor", "cut": "cut_factor",
          "spoke": "semiflat_factor"}


def _document(n, big_n):
    gen = perfbench_gen()
    return json.loads(gen.serialize(
        gen.generate(n, big_n, "contracts", GEN_TOOLKIT)))


def _counts(doc, monkeypatch):
    """Factor builds, the crossings they stand for and the products of one
    run of the pipeline on ``doc``, from the parse on."""
    spec = schema.parse_problem(doc)
    n = spec.fan.n
    net, layout = build_network(spec.tms, spec.disk)
    cover = layout.cover(spec.tms.degree)
    rng = random.Random(31)
    ls = make_local_system(cover, [Fraction(rng.randint(1, 9),
                                            rng.randint(1, 9))
                                   for _ in range(betti_one(cover))])
    builds = {kind: count_calls(monkeypatch, nonabelian, name)
              for kind, name in BUILDS.items()}
    products = count_calls(monkeypatch, laurent, "mat_mul")
    phases = {}
    coc = kaneyama_cocycle(net, spec.tms, cover, ls)
    phases["loop check"] = products[:]
    del products[:]
    coc.constants
    phases["composition"] = products[:]
    del products[:]
    assert verify_bundle(coc, spec.tms).ok
    phases["verify_bundle"] = products[:]
    monkeypatch.undo()
    # what the loop check crosses: the adjacent steps, then each
    # branch point's loop
    factors = Factors(net, spec.tms, cover, ls)
    crossings = [c for path in factors.step_paths for c in path.crossings]
    crossings += [c for b in range(len(cover.cuts))
                  for c in branch_point_loop(net, cover, b).crossings]
    crossed = {kind: {c.index % n if kind == "spoke" else c.index
                      for c in crossings if c.kind == kind}
               for kind in BUILDS}
    return n, builds, crossed, phases


@pytest.mark.parametrize("shape", [(8, 8), (16, 16), (16, 4)])
def test_work_counts_meet_their_contracts(shape, monkeypatch):
    doc = _document(*shape)
    runs = []
    for _ in range(2):
        n, builds, crossed, phases = _counts(doc, monkeypatch)
        for kind in BUILDS:
            assert len(builds[kind]) == len(crossed[kind]) > 0, kind
        for phase, calls in phases.items():
            assert len(set(calls)) == len(calls), phase
        assert len(phases["verify_bundle"]) <= comb(n, 2) + comb(n - 1, 2)
        runs.append(({kind: len(c) for kind, c in builds.items()},
                     {phase: len(c) for phase, c in phases.items()}))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("shape", [(8, 8), (16, 16), (16, 4)])
def test_identity_steps_and_determinants_are_not_repeated(shape,
                                                          monkeypatch):
    # across an identity step the composition keeps its running product,
    # with no product call, and the certificate decides whether det P is
    # a unit once per distinct constant P_{i-1,i}
    spec = schema.parse_problem(_document(*shape))
    n = spec.fan.n
    net, layout = build_network(spec.tms, spec.disk)
    cover = layout.cover(spec.tms.degree)
    rng = random.Random(31)
    coc = kaneyama_cocycle(net, spec.tms, cover, make_local_system(
        cover, [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                for _ in range(betti_one(cover))]))
    one = identity(cover.r)
    # only the few walls of (16, 4) leave bare spokes between them
    assert (one in coc.steps) == (shape == (16, 4))
    products = count_calls(monkeypatch, nonabelian, "_product")
    coc.constants
    assert products and all(step != one for step, _ in products)
    monkeypatch.undo()
    dets = count_calls(monkeypatch, nonabelian, "det")
    assert verify_bundle(coc, spec.tms).ok
    overlaps = {coc.constants[((i - 1) % n, i)] for i in range(n)}
    assert 0 < len(dets) <= len(overlaps)


@pytest.mark.parametrize("shape", [(8, 8), (16, 16), (16, 4)])
def test_each_cut_weight_is_inverted_at_most_once(shape, monkeypatch):
    # a wall factor crossed from sheet 1 reads 1/t_k of its branch point's
    # cut; the system takes that inverse on first use, once per cut, under
    # a seeded rational system and the symbolic one
    spec = schema.parse_problem(_document(*shape))
    net, layout = build_network(spec.tms, spec.disk)
    cover = layout.cover(spec.tms.degree)
    b1 = betti_one(cover)
    rng = random.Random(37)
    for hol in ([Fraction(rng.randint(1, 9), rng.randint(1, 9))
                 for _ in range(b1)], TPoly.symbols(b1)):
        ls = make_local_system(cover, hol)
        inverted = []
        for cls in (Fraction, TPoly):
            def counted(self, other, original=cls.__rtruediv__):
                inverted.extend(k for k, w in enumerate(ls.cut_weights)
                                if w is self)
                return original(self, other)
            monkeypatch.setattr(cls, "__rtruediv__", counted)
        kaneyama_cocycle(net, spec.tms, cover, ls)
        monkeypatch.undo()
        assert inverted and max(Counter(inverted).values()) == 1


def _box_pairs(curves, fixed):
    """Brute force: the pairs of segments of two polylines, not both in
    ``fixed``, whose closed bounding boxes meet."""
    m = len(curves)
    boxes = [(a, min(p[0], q[0]), min(p[1], q[1]), max(p[0], q[0]),
              max(p[1], q[1]))
             for a, poly in enumerate((*curves, *fixed))
             for p, q in zip(poly, poly[1:])]
    return sum(a != b and min(a, b) < m and x0 <= x3 and x2 <= x1
               and y0 <= y3 and y2 <= y1
               for (a, x0, y0, x1, y1), (b, x2, y2, x3, y3)
               in combinations(boxes, 2))


@pytest.mark.parametrize("shape", [(8, 8), (16, 16)])
def test_the_contact_scan_tests_exactly_the_pairs_whose_boxes_meet(
        shape, monkeypatch):
    doc = _document(*shape)
    contacts, contact_kind = geom.contacts, geom.contact_kind
    runs = []
    for _ in range(2):
        tests, sweeps = [], []

        def counted(curves, fixed=()):
            before = len(tests)
            found = contacts(curves, fixed)
            sweeps.append((len(tests) - before, _box_pairs(curves, fixed)))
            assert list(found) == sorted(found)
            return found

        monkeypatch.setattr(geom, "contact_kind",
                            lambda *a: tests.append(a) or contact_kind(*a))
        monkeypatch.setattr(geom, "contacts", counted)
        spec = schema.parse_problem(doc)
        build_network(spec.tms, spec.disk)
        monkeypatch.undo()
        # the cover's sweep of its cuts, the network's of its walls
        assert len(sweeps) == 2
        assert all(calls == pairs > 0 for calls, pairs in sweeps), sweeps
        runs.append(sweeps)
    assert runs[0] == runs[1]



# the geom functions a build may call outside its two sweeps, by caller:
# the tolerance rule reading the sweeps' kinds, point location on the grid
# (a boundary point's edge position, a point's region), the arm order and
# the slope pairing.  No contact predicate of two segments is among them
OUTSIDE_THE_SWEEPS = {"contacts", "polyline_pairwise_disjoint",
                      "shared_ends", "on_segment", "_in_box", "orient",
                      "angle_less", "angular_half", "cross", "sub", "dot"}


def _geom_calls(spec, monkeypatch):
    """(function, caller) counts of every ``geom`` call of one build made
    outside the sweeps, and the count made inside them."""
    outside, inside, depth = Counter(), Counter(), [0]

    def counted(name, fn):
        def call(*args):
            caller = sys._getframe(1).f_code.co_name
            (inside if depth[0] else outside)[name, caller] += 1
            depth[0] += name == "contacts"
            try:
                return fn(*args)
            finally:
                depth[0] -= name == "contacts"
        return call

    for name, fn in list(vars(geom).items()):
        if inspect.isfunction(fn) and fn.__module__ == geom.__name__:
            monkeypatch.setattr(geom, name, counted(name, fn))
    build_network(spec.tms, spec.disk)
    monkeypatch.undo()
    return outside, inside


def _spec(source):
    """A fixture by name, or a generated problem by shape, parsed anew."""
    if isinstance(source, str):
        return load(source)
    return schema.parse_problem(_document(*source))


@pytest.mark.parametrize("source", [path.stem for path in
                                    sorted(FIXTURES.glob("*.json"))]
                         + [(8, 8), (16, 16), (32, 32)], ids=str)
def test_a_build_decides_each_contact_in_its_sweeps(source, monkeypatch):
    runs = []
    for _ in range(2):
        try:
            outside, inside = _geom_calls(_spec(source), monkeypatch)
        except errors.NotRealizable:
            assert source in ("p2_n1", "p2_split_n0")
            return
        runs.append((outside, inside))
        called = {name for name, _ in outside}
        assert called <= OUTSIDE_THE_SWEEPS, called - OUTSIDE_THE_SWEEPS
        assert {caller for name, caller in outside
                if name == "on_segment"} <= {"edge_position"}
        assert {caller for name, caller in outside
                if name == "_in_box"} <= {"on_segment"}
        if source != "line_bundle_r1":
            # the cover's sweep and the network's, which call the kernel
            assert sum(n for (name, _), n in outside.items()
                       if name == "contacts") == 2
            assert inside["contact_kind", "contacts"] > 0
    assert runs[0] == runs[1]
