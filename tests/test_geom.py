"""The contact kernel and the one contact query against the references.

The predicates of ``geom`` (``orient``, ``on_segment``, ``contact_kind``)
are straight-line int arithmetic; ``support``'s ``ref_*`` predicates
compute the same orientations through plain helper formulas.  The
reference kind of two closed segments reads only ``ref_segments_cross``,
``ref_proper_crossing`` and ``ref_on_segment``: none when they do not
meet; a proper crossing; else their one common point, when both end there
and meet nowhere else (no other end lies on the other segment); else
"other".  ``contact_kind`` must give it, symmetric in the two segments, on
every pair of segments between the points of a 3 x 3 grid, zero-length
ones included, on a 70-bit-scaled copy of that grid, and on seeded random
int pairs, small and up to 70 bits, with every degenerate kind built in;
``orient`` and ``on_segment`` must answer as the references do, in the
same types.  Point location has no kernel here: ``cover.GridPoints``
decides it, and ``tests/test_locate.py`` checks it against the reference
polygon test.

``geom.contacts`` sweeps every segment of a list of polylines once and
tests exactly only the pairs whose boxes meet; the reference kind tests
every pair.  On seeded random integer polylines (small coordinates, so
shared endpoints, folded-back ends, collinear overlaps, vertical and
horizontal segments, T-contacts and zero-length segments are common) and
on hand-made cases of each kind, both must find the same pairs with the
same kinds in the same order, never a pair of two ``fixed`` polylines,
and ``polyline_pairwise_disjoint`` on the kinds must decide like
``ref_polyline_pairwise_disjoint``, with and without the shared-endpoint
tolerance.
"""
import random
from itertools import product

import pytest

from support import (ref_on_segment, ref_orient,
                     ref_polyline_pairwise_disjoint, ref_proper_crossing,
                     ref_segments_cross)

from toricnets.geom import (CROSSING, OTHER, contact_kind, contacts,
                            on_segment, orient, polyline_pairwise_disjoint,
                            shared_ends)


def _reference_kind(p1, p2, q1, q2):
    if not ref_segments_cross(p1, p2, q1, q2):
        return None
    if ref_proper_crossing(p1, p2, q1, q2):
        return CROSSING
    common = {p1, p2} & {q1, q2}
    if len(common) == 1:
        (s,) = common
        if not (any(ref_on_segment(o, q1, q2) for o in (p1, p2) if o != s)
                or any(ref_on_segment(o, p1, p2) for o in (q1, q2)
                       if o != s)):
            return s
    return OTHER


def _label(kind):
    """The kind's name: an endpoint touch is its point."""
    return "touch" if isinstance(kind, tuple) else kind


def _reference_pairs(a, b):
    return [(i, j, kind) for i in range(len(a) - 1)
            for j in range(len(b) - 1)
            if (kind := _reference_kind(a[i], a[i + 1], b[j], b[j + 1]))
            is not None]


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
    "T-contact": ([(0, 0), (4, 0)], [(2, 3), (2, 0)]),
    "vertical and horizontal": ([(2, 0), (2, 4)], [(0, 2), (4, 2)]),
    "zero-length at a shared end": ([(0, 0), (0, 0), (3, 1)],
                                    [(0, 0), (-2, 3)]),
    "zero-length on a segment": ([(1, 1), (1, 1)], [(0, 0), (2, 2)]),
}


def _assert_agrees(curves, fixed):
    found = contacts(curves, fixed)
    assert found == _reference_contacts(curves, fixed)
    assert all(a < len(curves) for a, _ in found)
    polys = curves + fixed
    for (a, b), touching in found.items():
        for skip in (True, False):
            want = ref_polyline_pairwise_disjoint(polys[a], polys[b], skip)
            assert want == ref_polyline_pairwise_disjoint(polys[b], polys[a],
                                                          skip)
            tolerated = shared_ends(polys[a], polys[b]) if skip else ()
            assert polyline_pairwise_disjoint(touching, tolerated) == want
    return found


@pytest.mark.parametrize("name", sorted(CASES))
def test_touching_segments_on_contact_cases(name):
    a, b = CASES[name]
    pairs = _assert_agrees([a, b], []).get((0, 1), [])
    assert _assert_agrees([a], [b]).get((0, 1), []) == pairs
    assert sorted(_assert_agrees([b, a], []).get((0, 1), [])) == \
        sorted((j, i, kind) for i, j, kind in pairs)
    assert _assert_agrees([], [a, b]) == {}


def test_touching_segments_matches_reference_on_random_polylines():
    rng = random.Random("contacts")
    kinds = set()
    for _ in range(3000):
        polys = [_random_polyline(rng, 5) for _ in range(rng.randint(2, 6))]
        m = rng.randint(0, len(polys))
        found = _assert_agrees(polys[:m], polys[m:])
        for (a, b), touching in found.items():
            for i, j, kind in touching:
                kinds.add(_label(kind))
                if polys[a][i] == polys[a][i + 1] or \
                        polys[b][j] == polys[b][j + 1]:
                    kinds.add("zero-length")
            if not ref_polyline_pairwise_disjoint(polys[a], polys[b], True):
                kinds.add("not tolerated")
            elif {polys[a][0], polys[a][-1]} & {polys[b][0], polys[b][-1]}:
                kinds.add("tolerated shared endpoint")
        if any(_reference_pairs(polys[a], polys[b])
               for b in range(m, len(polys)) for a in range(m, b)):
            kinds.add("untested fixed pair")
        if not found:
            kinds.add("apart")
    assert kinds == {CROSSING, "touch", OTHER, "zero-length",
                     "not tolerated", "tolerated shared endpoint",
                     "untested fixed pair", "apart"}


# every segment between the points of a 3 x 3 grid, zero-length ones too
GRID_SEGMENTS = list(product(product(range(3), repeat=2), repeat=2))


def _scaled_grid_pairs(bits, rng):
    """Every ordered pair of the grid's segments with the map p -> k p + d
    of a ``bits``-bit factor k and shift d applied, and that map."""
    k = rng.randrange(2 ** bits, 2 ** (bits + 1))
    dx, dy = (rng.randrange(-2 ** bits, 2 ** bits) for _ in range(2))

    def big(p):
        return p[0] * k + dx, p[1] * k + dy

    return [(p1, p2, q1, q2) for p1, p2 in GRID_SEGMENTS
            for q1, q2 in GRID_SEGMENTS], big


def test_contact_kind_matches_reference_on_a_small_grid():
    # every ordered pair of the grid's segments, on the grid and on a copy
    # scaled by a 70-bit factor and shifted: proper crossings, collinear
    # overlaps and touches, shared and folded-back ends, ends on the other
    # segment's line but outside it, and zero-length segments
    rng = random.Random("grid")
    for bits in (0, 70):
        pairs, big = _scaled_grid_pairs(bits, rng)
        seen = set()
        for segments in pairs:
            kind = _reference_kind(*segments)
            scaled = [big(p) for p in segments]
            want = big(kind) if isinstance(kind, tuple) else kind
            assert _reference_kind(*scaled) == want
            assert contact_kind(*scaled) == want
            seen.add(_label(kind))
        assert seen == {None, CROSSING, "touch", OTHER}


def _segment_pairs(rng, bits):
    """A seeded segment pair (p1, p2, q1, q2) with coordinates below
    2**bits: random, or built to be collinear and overlapping, vertical,
    horizontal, sharing an endpoint, folded back (a shared end, the other
    ends on one ray from it), T-touching (an end inside the other) or with
    a zero-length segment."""
    def point():
        return (rng.randrange(-2 ** bits, 2 ** bits),
                rng.randrange(-2 ** bits, 2 ** bits))

    def along(a, d, k):
        return (a[0] + k * d[0], a[1] + k * d[1])

    kind = rng.choice(("random", "collinear", "vertical", "horizontal",
                       "shared", "folded", "T", "zero"))
    p1, p2, q1, q2 = point(), point(), point(), point()
    d = (rng.randrange(-2 ** (bits // 2), 2 ** (bits // 2)) or 1,
         rng.randrange(-2 ** (bits // 2), 2 ** (bits // 2)))
    if kind == "collinear":
        ks = [rng.randint(-4, 4) for _ in range(4)]
        p1, p2, q1, q2 = (along(p1, d, k) for k in ks)
    elif kind == "vertical":
        x = p1[0]
        p2, q1, q2 = (x, p2[1]), (x + rng.randint(-1, 1), q1[1]), (x, q2[1])
    elif kind == "horizontal":
        y = p1[1]
        p2, q1, q2 = (p2[0], y), (q1[0], y + rng.randint(-1, 1)), (q2[0], y)
    elif kind == "shared":
        q1 = rng.choice((p1, p2))
    elif kind == "folded":
        p2, q1, q2 = (along(p1, d, rng.randint(1, 4)), p1,
                      along(p1, d, rng.randint(1, 4)))
    elif kind == "T":
        p2 = along(p1, d, rng.randint(2, 6))
        q1 = along(p1, d, rng.randint(-1, 7))
    elif kind == "zero":
        q2 = q1 = rng.choice((p1, p2, along(p1, d, rng.randint(-1, 1)),
                              q1))
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
        o = orient(p1, p2, q1)
        assert type(o) is int and o == ref_orient(p1, p2, q1)
        on = on_segment(q1, p1, p2)
        assert type(on) is bool and on == ref_on_segment(q1, p1, p2)
        contact = contact_kind(p1, p2, q1, q2)
        assert contact == _reference_kind(p1, p2, q1, q2)
        # symmetric in the two segments and in their ends
        assert contact == contact_kind(q1, q2, p1, p2) == \
            contact_kind(p2, p1, q2, q1)
        seen.add((kind, o, on, _label(contact)))
    # every degenerate kind occurs, touching and apart
    assert {k for k, *_ in seen} == {"random", "collinear", "vertical",
                                     "horizontal", "shared", "folded", "T",
                                     "zero"}
    assert {(o, on, label) for _, o, on, label in seen} >= {
        (0, True, "touch"), (0, True, OTHER), (0, False, None),
        (0, False, OTHER), (1, False, None), (-1, False, OTHER)}
    assert {label for *_, label in seen} == {None, CROSSING, "touch", OTHER}
