"""The contact kernels and the one contact query against the references.

The predicates of ``geom`` (``orient``, ``on_segment``,
``proper_crossing``, ``segments_cross``) are straight-line int
arithmetic; ``support``'s ``ref_*`` predicates compute the same
orientations through plain helper formulas.  On seeded random int points,
small and up to 70 bits, with every degenerate kind built in, the kernels
must answer as the references do, in the same types.  Point location has
no kernel here: ``cover.GridPoints`` decides it, and ``tests/test_locate.py``
checks it against the reference polygon test.

``geom.contacts`` sweeps every segment of a list of polylines once and
tests exactly only the pairs whose boxes meet; ``support.ref_segments_cross``
tests every pair.  On seeded random integer polylines (small coordinates,
so collinear overlaps, shared endpoints and vertex touches are common) and
on hand-made cases of each kind, both must find the same pairs in the same
order, never a pair of two ``fixed`` polylines, and the shared-endpoint
tolerance must decide like the reference.
"""
import random
from itertools import permutations, product

import pytest

from support import (ref_on_segment, ref_orient,
                     ref_polyline_pairwise_disjoint, ref_proper_crossing,
                     ref_segments_cross)

from toricnets.geom import (contacts, on_segment, orient,
                            polyline_pairwise_disjoint, proper_crossing,
                            segments_cross)


def _reference_pairs(a, b):
    return [(i, j) for i in range(len(a) - 1) for j in range(len(b) - 1)
            if ref_segments_cross(a[i], a[i + 1], b[j], b[j + 1])]


def _reference_contacts(curves, fixed):
    polys = curves + fixed
    found = {(a, b): _reference_pairs(polys[a], polys[b])
             for b in range(len(polys)) for a in range(min(b, len(curves)))}
    return {key: pairs for key, pairs in found.items() if pairs}


def _random_polyline(rng, size):
    return [(rng.randint(0, 6), rng.randint(0, 6))
            for _ in range(rng.randint(1, size))]


CASES = {
    "collinear overlap": ([(0, 0), (4, 0)], [(2, 0), (6, 0)]),
    "collinear, apart": ([(0, 0), (2, 0)], [(3, 0), (6, 0)]),
    "collinear, end to end": ([(0, 0), (2, 0)], [(2, 0), (6, 0)]),
    "one inside the other": ([(0, 0), (6, 6)], [(2, 2), (3, 3)]),
    "shared endpoint": ([(0, 0), (2, 2), (4, 0)], [(0, 0), (-2, 3)]),
    "shared endpoint, folded back": ([(0, 0), (4, 0)], [(0, 0), (2, 0)]),
    "shared end and start": ([(0, 0), (2, 2)], [(2, 2), (5, 1), (0, 0)]),
    "vertex touch": ([(0, 0), (2, 2), (4, 0)], [(2, 2), (2, 5)]),
    "vertex on a segment": ([(0, 0), (2, 2), (4, 0)], [(0, 2), (4, 2)]),
    "endpoint on a segment": ([(0, 0), (4, 0)], [(2, 0), (2, 3)]),
    "proper crossing": ([(0, 0), (4, 4)], [(0, 4), (4, 0)]),
    "boxes meet, segments miss": ([(0, 0), (4, 4)], [(3, 0), (4, 1)]),
    "single point": ([(1, 1)], [(0, 0), (2, 2)]),
}


def _assert_agrees(curves, fixed):
    found = contacts(curves, fixed)
    assert found == _reference_contacts(curves, fixed)
    assert all(a < len(curves) for a, _ in found)
    polys = curves + fixed
    for (a, b), touching in found.items():
        for skip in (True, False):
            assert polyline_pairwise_disjoint(
                polys[a], polys[b], touching, skip) == \
                ref_polyline_pairwise_disjoint(polys[a], polys[b], skip)
    return found


@pytest.mark.parametrize("name", sorted(CASES))
def test_touching_segments_on_contact_cases(name):
    a, b = CASES[name]
    pairs = _assert_agrees([a, b], []).get((0, 1), [])
    assert _assert_agrees([a], [b]).get((0, 1), []) == pairs
    assert sorted(_assert_agrees([b, a], []).get((0, 1), [])) == \
        sorted((j, i) for i, j in pairs)
    assert _assert_agrees([], [a, b]) == {}


def test_touching_segments_matches_reference_on_random_polylines():
    rng = random.Random("contacts")
    kinds = set()
    for _ in range(3000):
        polys = [_random_polyline(rng, 5) for _ in range(rng.randint(2, 6))]
        m = rng.randint(0, len(polys))
        found = _assert_agrees(polys[:m], polys[m:])
        for a, b in found:
            kinds.add("touch")
            if not ref_polyline_pairwise_disjoint(polys[a], polys[b], True):
                kinds.add("not tolerated")
            elif {polys[a][0], polys[a][-1]} & {polys[b][0], polys[b][-1]}:
                kinds.add("tolerated shared endpoint")
        if any(_reference_pairs(polys[a], polys[b])
               for b in range(m, len(polys)) for a in range(m, b)):
            kinds.add("untested fixed pair")
        if not found:
            kinds.add("apart")
    assert kinds == {"touch", "not tolerated", "tolerated shared endpoint",
                     "untested fixed pair", "apart"}


def test_segments_cross_matches_reference_on_a_small_grid():
    # every ordered pair of segments between the points of a 3 x 3 grid:
    # proper crossings, collinear overlaps and touches, shared ends, and
    # ends on the other segment's line but outside it
    grid = list(product(range(3), repeat=2))
    segments = list(permutations(grid, 2))
    crossing = 0
    for p1, p2 in segments:
        for q1, q2 in segments:
            want = ref_segments_cross(p1, p2, q1, q2)
            assert segments_cross(p1, p2, q1, q2) == want
            crossing += want
    assert 0 < crossing < len(segments) ** 2


def _segment_pairs(rng, bits):
    """A seeded segment pair (p1, p2, q1, q2) with coordinates below
    2**bits: random, or built to be collinear and overlapping, vertical,
    sharing an endpoint, or T-touching (an end inside the other)."""
    def point():
        return (rng.randrange(-2 ** bits, 2 ** bits),
                rng.randrange(-2 ** bits, 2 ** bits))

    def along(a, d, k):
        return (a[0] + k * d[0], a[1] + k * d[1])

    kind = rng.choice(("random", "collinear", "vertical", "shared", "T"))
    p1, p2, q1, q2 = point(), point(), point(), point()
    d = (rng.randrange(-2 ** (bits // 2), 2 ** (bits // 2)) or 1,
         rng.randrange(-2 ** (bits // 2), 2 ** (bits // 2)))
    if kind == "collinear":
        ks = [rng.randint(-4, 4) for _ in range(4)]
        p1, p2, q1, q2 = (along(p1, d, k) for k in ks)
    elif kind == "vertical":
        x = p1[0]
        p2, q1, q2 = (x, p2[1]), (x + rng.randint(-1, 1), q1[1]), (x, q2[1])
    elif kind == "shared":
        q1 = rng.choice((p1, p2))
    elif kind == "T":
        p2 = along(p1, d, rng.randint(2, 6))
        q1 = along(p1, d, rng.randint(-1, 7))
    points = [p1, p2, q1, q2]
    if rng.random() < 0.2:
        rng.shuffle(points)
    return kind, points


@pytest.mark.parametrize("bits", [3, 20, 70])
def test_kernels_match_the_references(bits):
    rng = random.Random(f"kernels:{bits}")
    seen = set()
    for _ in range(4000):
        kind, (p1, p2, q1, q2) = _segment_pairs(rng, bits)
        if p1 == p2 or q1 == q2:
            continue
        o = orient(p1, p2, q1)
        assert type(o) is int and o == ref_orient(p1, p2, q1)
        on = on_segment(q1, p1, p2)
        assert type(on) is bool and on == ref_on_segment(q1, p1, p2)
        proper = proper_crossing(p1, p2, q1, q2)
        assert type(proper) is bool
        assert proper == ref_proper_crossing(p1, p2, q1, q2)
        cross = segments_cross(p1, p2, q1, q2)
        assert type(cross) is bool
        assert cross == ref_segments_cross(p1, p2, q1, q2)
        seen.add((kind, o, on, proper, cross))
    # every degenerate kind occurs, touching and apart
    assert {k for k, *_ in seen} == {"random", "collinear", "vertical",
                                     "shared", "T"}
    assert {(o, on, cross) for _, o, on, _, cross in seen} >= {
        (0, True, True), (0, False, False), (0, False, True),
        (1, False, False), (-1, False, True)}
    assert {proper for *_, proper, _ in seen} == {True, False}

