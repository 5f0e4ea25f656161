"""The one contact query against the all-pairs reference.

``geom.touching_segments`` tests exactly only the segment pairs whose
stored boxes meet; ``support.ref_segments_cross`` tests every pair.  On
seeded random integer polylines (small coordinates, so collinear
overlaps, shared endpoints and vertex touches are common) and on
hand-made cases of each kind, both must find the same pairs in the same
order, and the shared-endpoint tolerance must decide like the reference.
"""
import random

import pytest

from support import ref_polyline_pairwise_disjoint, ref_segments_cross

from toricnets.geom import (Polyline, polyline_pairwise_disjoint,
                            touching_segments)


def _reference_pairs(a, b):
    return [(i, j) for i in range(len(a) - 1) for j in range(len(b) - 1)
            if ref_segments_cross(a[i], a[i + 1], b[j], b[j + 1])]


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


def _assert_agrees(a, b):
    pa, pb = Polyline(a), Polyline(b)
    pairs = list(touching_segments(pa, pb))
    assert pairs == _reference_pairs(a, b)
    for skip in (True, False):
        assert polyline_pairwise_disjoint(
            pa, pb, touching_segments(pa, pb), skip) == \
            ref_polyline_pairwise_disjoint(a, b, skip)
    return pairs


@pytest.mark.parametrize("name", sorted(CASES))
def test_touching_segments_on_contact_cases(name):
    a, b = CASES[name]
    pairs = _assert_agrees(a, b)
    assert sorted(_assert_agrees(b, a)) == sorted((j, i) for i, j in pairs)


def test_touching_segments_matches_reference_on_random_polylines():
    rng = random.Random("touching-segments")
    kinds = set()
    for _ in range(3000):
        a, b = _random_polyline(rng, 5), _random_polyline(rng, 5)
        pairs = _assert_agrees(a, b)
        if pairs:
            kinds.add("touch")
            if not ref_polyline_pairwise_disjoint(a, b, True):
                kinds.add("not tolerated")
            elif {a[0], a[-1]} & {b[0], b[-1]}:
                kinds.add("tolerated shared endpoint")
        else:
            kinds.add("apart")
    assert kinds == {"touch", "not tolerated", "tolerated shared endpoint",
                     "apart"}


def test_polyline_stores_one_box_per_segment():
    p = Polyline([(0, 3), (2, 1), (2, 5)])
    assert p == ((0, 3), (2, 1), (2, 5))
    assert p.boxes == ((0, 1, 2, 3), (2, 1, 2, 5))
    assert Polyline([(1, 1)]).boxes == ()
