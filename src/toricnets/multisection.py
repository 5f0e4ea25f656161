"""Tropical Lagrangian multi-sections over a complete smooth fan.

A degree-r multi-section is a branched cover of the fan's cone complex,
ramified at most over the origin, together with an integral slope vector
per lifted maximal cone.  We store the lifted cones, the perfect matching
of lifts across every ray (the lifted rays), and the slopes; continuity
and separatedness are checkable equations:

  continuity     <m(lift) - m(matched lift), v_ray> == 0
  separatedness  the r values <m, v_ray> over a ray are pairwise distinct

For 2-fold covers the lifted maximal cones form either a single cycle of
length 2n (case O, connected double cover of the circle of directions) or
two disjoint n-cycles (case E).  The transverse intersection count N of
the two sheets of the support function is computed by counting sign
changes of the antipodal (O) or cross-sheet (E) value differences around
the cyclic ray sequence.
"""
from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from . import geom
from .errors import NotTwoFold
from .reporting import ValidationReport


class LiftedCone(NamedTuple):
    id: str
    base: int            # index of the base maximal cone
    slope: tuple         # lattice vector in M, two ints


class LiftedRay(NamedTuple):
    ray: int             # base ray index; links cones (ray-1) and (ray)
    src: str             # lift of maximal cone ray-1
    dst: str             # lift of maximal cone ray


class CoverClass(NamedTuple):
    tag: str             # 'O' or 'E'
    cycles: tuple        # cyclic sequences of lifted-cone ids


class TropicalMultiSection:
    """Lifted cones, lifted rays and slopes over a fan.

    The cones and rays are fixed at construction, so they are grouped by
    cone and by ray once there, and the facts derived from them (the
    validation report, the two-fold cover class, the intersection cones
    and the realizability decision) are computed once, on first use, and
    then read by everything that needs them.
    """

    def __init__(self, fan, degree, lifted_cones, lifted_rays):
        self.fan = fan
        self.degree = degree
        self.lifted_cones = tuple(lifted_cones)
        self.lifted_rays = tuple(lifted_rays)
        self.by_id = {c.id: c for c in self.lifted_cones}
        self._lifts = _group(self.lifted_cones, "base", fan.n)
        self._rays = _group(self.lifted_rays, "ray", fan.n)

    @cached_property
    def report(self):
        """The ``validate`` report."""
        return validate(self)

    @cached_property
    def cover_class(self):
        """The ``classify_two_fold`` class; raises NotTwoFold."""
        return classify_two_fold(self)

    @cached_property
    def crossing_cones(self):
        """The ``intersection_cones`` list; raises NotTwoFold."""
        return intersection_cones(self)

    @cached_property
    def realizability(self):
        """``parity_and_realizability`` at N = len(crossing_cones)."""
        return parity_and_realizability(self, len(self.crossing_cones))

    def lifts_of_cone(self, i):
        return self._lifts[i % self.fan.n]

    def rays_over(self, i):
        return self._rays[i % self.fan.n]

    def slope(self, cone_id):
        return self.by_id[cone_id].slope

    def matching(self, i):
        """Lift matching across ray i as a dict src_id -> dst_id."""
        return {r.src: r.dst for r in self.rays_over(i)}

    def ray_value(self, lifted_ray: LiftedRay):
        """<m, v_ray> along a lifted ray (same for both adjacent lifts)."""
        v = self.fan.ray(lifted_ray.ray)
        return geom.dot(self.slope(lifted_ray.src), v)


def _group(items, key, n):
    """Tuples of ``items`` by their index ``key`` in 0..n-1, in input order.

    An item with an index outside 0..n-1 joins no group; ``validate``
    reports it as a ``structure`` violation.
    """
    groups = [[] for _ in range(n)]
    for item in items:
        i = getattr(item, key)
        if 0 <= i < n:
            groups[i].append(item)
    return tuple(map(tuple, groups))


def validate(tms: TropicalMultiSection) -> ValidationReport:
    """Check multiplicities, matchings, continuity, and separatedness."""
    report = ValidationReport()
    fan = tms.fan
    ids = [c.id for c in tms.lifted_cones]
    if len(set(ids)) != len(ids):
        report.add("structure", "duplicate lifted cone ids")
        return report
    for c in tms.lifted_cones:
        if not (0 <= c.base < fan.n):
            report.add("structure", f"lifted cone {c.id} over unknown cone {c.base}")
            return report
    for r in tms.lifted_rays:
        if not (0 <= r.ray < fan.n):
            report.add("structure", f"lifted ray {r.src}->{r.dst} over "
                                    f"unknown ray {r.ray}", r)
            return report
    for i in range(fan.n):
        if len(tms.lifts_of_cone(i)) != tms.degree:
            report.add("multiplicity",
                       f"cone {i} has {len(tms.lifts_of_cone(i))} lifts, "
                       f"expected {tms.degree}", i)
    for i in range(fan.n):
        over = tms.rays_over(i)
        srcs = [r.src for r in over]
        dsts = [r.dst for r in over]
        want_src = sorted(c.id for c in tms.lifts_of_cone(i - 1))
        want_dst = sorted(c.id for c in tms.lifts_of_cone(i))
        if sorted(srcs) != want_src or sorted(dsts) != want_dst:
            report.add("matching",
                       f"lifted rays over ray {i} are not a perfect matching", i)
            continue
        v = fan.ray(i)
        for r in over:
            diff = geom.sub(tms.slope(r.dst), tms.slope(r.src))
            if geom.dot(diff, v) != 0:
                report.add("continuity",
                           f"slopes across lifted ray {r.src}->{r.dst} "
                           f"pair to {geom.dot(diff, v)} with ray {i}", r)
        values = [tms.ray_value(r) for r in over]
        if len(set(values)) != len(values):
            report.add("separatedness",
                       f"ray {i} carries repeated slope values {values}", i)
    return report


def classify_two_fold(tms: TropicalMultiSection) -> CoverClass:
    """Case O (one lifted circle of length 2n) or E (two of length n).

    Reads the stored ``tms.report``; ``tms.cover_class`` stores the result.
    """
    if tms.degree != 2:
        raise NotTwoFold(f"degree is {tms.degree}")
    if not tms.report.ok:
        raise NotTwoFold(f"invalid multi-section: {tms.report}")
    succ = {}
    for i in range(tms.fan.n):
        for r in tms.rays_over(i):
            succ[r.src] = r.dst
    cycles = []
    seen = set()
    for c in tms.lifted_cones:
        if c.id in seen:
            continue
        cyc = [c.id]
        seen.add(c.id)
        nxt = succ[c.id]
        while nxt != c.id:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = succ[nxt]
        cycles.append(tuple(cyc))
    if len(cycles) == 1 and len(cycles[0]) == 2 * tms.fan.n:
        return CoverClass("O", tuple(cycles))
    if len(cycles) == 2 and all(len(c) == tms.fan.n for c in cycles):
        return CoverClass("E", tuple(cycles))
    raise NotTwoFold(f"unexpected lifted circle structure {cycles}")


def n_genericity(tms: TropicalMultiSection) -> int:
    """Transverse intersection count N of the two sheet graphs.

    Each transverse crossing lies in exactly one base maximal cone, so N
    is the number of ``intersection_cones``.
    """
    return len(tms.crossing_cones)


def intersection_cones(tms: TropicalMultiSection):
    """Base maximal cones where the two sheet graphs cross, sorted.

    Case O: walk the single lifted circle; at each of the 2n lifted rays
    take d = (value here) - (value at the antipodal lifted ray).  Case E:
    d = (value on circle 1) - (value on circle 2) over each of the n base
    rays.  A cyclic sign change of d between consecutive rays puts a
    crossing in the base cone between them; in case O the antipodal sign
    change names the same cone.  Every d is nonzero: it is the difference
    of the two values over one base ray (the antipodal lifted rays of
    case O, the two circles of case E), which separatedness makes
    distinct, and the stored ``tms.cover_class`` exists only for a
    multi-section whose ``tms.report`` is ok (``classify_two_fold``).
    ``tms.crossing_cones`` stores the result.
    """
    cls = tms.cover_class
    n = tms.fan.n
    if cls.tag == "O":
        cyc = cls.cycles[0]
        between = {(r.src, r.dst): r for r in tms.lifted_rays}
        rays = [between[a, b] for a, b in zip(cyc, cyc[1:] + cyc[:1])]
        values = [tms.ray_value(r) for r in rays]
        diffs = [values[k] - values[(k + n) % (2 * n)] for k in range(2 * n)]
        bases = [r.ray for r in rays]
    else:
        c1 = cls.cycles[0]
        diffs = []
        for i in range(n):
            val = {r.dst in c1: tms.ray_value(r) for r in tms.rays_over(i)}
            diffs.append(val[True] - val[False])
        bases = list(range(n))
    m = len(diffs)
    return sorted({(bases[(k + 1) % m] - 1) % n for k in range(m)
                   if (diffs[k] > 0) != (diffs[(k + 1) % m] > 0)})


class RealizabilityResult(NamedTuple):
    parity_ok: bool
    realizable: bool
    betti_one: int | None


def parity_and_realizability(tms: TropicalMultiSection, n_value: int) -> RealizabilityResult:
    """Parity theorem check, N >= 3 realizability, and b_1 of the domain.

    For a realizable connected 2-fold multi-section the domain surface is a
    double cover of the disk with N-2 simple branch points, so chi = 4 - N
    and b_1 = N - 3.  Below the realizability threshold there is no such
    surface and b_1 is reported as None.
    """
    cls = tms.cover_class
    parity_ok = (n_value % 2 == 1) if cls.tag == "O" else (n_value % 2 == 0)
    realizable = n_value >= 3
    betti = n_value - 3 if realizable else None
    return RealizabilityResult(parity_ok, realizable, betti)
