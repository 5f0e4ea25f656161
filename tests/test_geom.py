"""The one contact query against the all-pairs reference.

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

from support import ref_polyline_pairwise_disjoint, ref_segments_cross

from toricnets.geom import (contacts, polyline_pairwise_disjoint,
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
