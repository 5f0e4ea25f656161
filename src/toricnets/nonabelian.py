"""Non-abelianization: from a rank-1 system on the cover to a Kaneyama cocycle.

All factors are r x r Laurent matrices acting target-from-source: entry
(row, col) = (target sheet, source sheet), with every monomial exponent of
the form m(lift at target) - m(lift at source).  A path-ordered product
multiplies later factors on the left, so the cocycle matrix G_{ij}
(product along the ccw boundary track from the vertex chamber of cone i to
that of cone j) composes as G_ki * G_jk * G_ij = Id over closed triangles.

Factor inventory, for a positive (right-to-left) crossing:

* spoke i: diagonal, entry (s, s) = z^(m(lift(i, s)) - m(lift(i-1, s))),
  the semi-flat part of the transition data;
* wall w with label (a, b), crossed in region R: unipotent
  Id + eps * lambda * z^(m(lift(R, b)) - m(lift(R, a))) E_{b a}, where
  lambda is the soliton's rank-1 transport and eps its winding sign;
* cut k: the signed monomial permutation forced by the branch-point
  consistency identity: the inverse of the ordered product of the three
  wall unipotents around the cut's branch point.

The last point pins the sign convention: winding counts are the ccw arm
positions after the cut, so the three wall factors carry signs +, -, +,
their product is anti-diagonal, and the loop around every branch point is
exactly the identity.

One ``Factors`` table per local system builds each factor and inverse on
first use, and the n adjacent boundary steps once; every product over that
system reads it.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, permutations

from . import geom
from .cover import (Crossing, SurfacePath, parallel_transport,
                    winding_sign)
from .errors import (InvariantViolated, LoopIdentityFailed,
                     NonTransverseCrossing, NoSharedLift, NotSupported,
                     PathHitsJointRegion)
from .fans import ray_cone
from .laurent import (LaurentMatrix, LaurentPoly, cocycle_check, evaluate,
                      mat_mul, monomial_inverse, regular_on, is_invertible_on)
from .network import boundary_loop, enumerate_solitons, track_path
from .reporting import ValidationReport


def _monomial(slope_to, slope_from):
    e = (slope_to[0] - slope_from[0], slope_to[1] - slope_from[1])
    return LaurentPoly.monomial(1, e)


def semiflat_factor(ray, factors) -> LaurentMatrix:
    """Factor for the ccw crossing of the spoke of a ray.

    In the cut trivialization the crossing preserves sheets, so the matrix
    is diagonal with entries z^(m(lift(i, s)) - m(lift(i-1, s))); the
    underlying lifted cones share a lifted ray exactly when no cut lands
    on this spoke's barycenter, which is what makes the entries regular
    there.  Transports are 1 in the cuts-carry-weights gauge.
    """
    tms, lift, r = factors.tms, factors.lift, factors.cover.r
    n, i = tms.fan.n, ray % tms.fan.n
    rows = [[LaurentPoly.zero()] * r for _ in range(r)]
    for s in range(r):
        src = lift[((i - 1) % n, s)]
        dst = lift[(i, s)]
        rows[s][s] = _monomial(tms.slope(dst), tms.slope(src))
    return LaurentMatrix(rows)


def wall_factor(wall, region, factors) -> LaurentMatrix:
    """Unipotent wall-crossing factor at a given region of the wall.

    Boundary-track paths cross a wall in its landing region
    ``wall.end_cone``; the loop around a branch point crosses its arms in
    the region of its cut.
    """
    if wall.start_branch is None:
        raise NotSupported("joint-fed walls are outside this regime")
    tms, cover, lift = factors.tms, factors.cover, factors.lift
    m = LaurentMatrix.identity(cover.r)
    for sol in enumerate_solitons(factors.net, wall):
        path = sol.transport_path(cover)
        lam = parallel_transport(factors.ls, path)
        eps = winding_sign(path)
        a, b = sol.source_sheet, sol.target_sheet
        term = _monomial(tms.slope(lift[(region, b)]),
                         tms.slope(lift[(region, a)])) * Fraction(eps * 1) * lam
        m = m.with_entry(b, a, m.entry(b, a) + term)
    return m


def cut_factor(k, factors) -> LaurentMatrix:
    """Signed monomial permutation for the positive crossing of cut k.

    Defined as the inverse of the ordered product of the three wall
    factors around the cut's branch point, so the branch-point loop is the
    identity by construction; InvariantViolated is raised unless the
    result is supported on the cut's transposition.  The wall factors
    come from ``factors``, where the branch-point loop reads them again.
    """
    cover = factors.cover
    region = cover.cut_region[k]
    arms = factors.net.arms[k]
    if len(arms) != 3:
        raise NotSupported(f"branch point {k} does not carry a Y-graph")
    c = monomial_inverse(_left_product(
        factors.of(Crossing("wall", w.id, +1), region) for w in arms))
    cut = cover.cuts[k]
    for i in range(cover.r):
        for j in range(cover.r):
            expected_nonzero = i == cover.apply_cut(k, j) and i != j \
                or (i == j and i not in cut.transposition)
            if c.entry(i, j).is_zero() == expected_nonzero:
                raise InvariantViolated(
                    f"cut factor of cut {k} has unexpected support at {(i, j)}")
    return c


class Factors:
    """The crossing factors of one local system, each built on first use.

    Spoke factors are keyed by ray, cut factors by cut, wall factors by
    wall and region; an inverse is built on the first backward crossing.
    The n adjacent steps of the ccw boundary track, from the vertex chamber
    of cone i to that of cone i+1, are built once too: ``step_paths`` and
    their products ``steps``.
    """

    def __init__(self, net, tms, cover, ls):
        self.net, self.tms, self.cover, self.ls = net, tms, cover, ls
        self.lift = cover.lift_map(tms)
        self._built = {}

    def of(self, crossing, region) -> LaurentMatrix:
        """Factor of a spoke, cut or wall ``crossing`` made from ``region``."""
        kind, index = crossing.kind, crossing.index
        key = ((kind, index % self.tms.fan.n) if kind == "spoke" else
               (kind, index) if kind == "cut" else (kind, index, region))
        if key not in self._built:
            self._built[key] = self._build(key)
        if crossing.direction < 0:
            key += ("inv",)
            if key not in self._built:
                self._built[key] = monomial_inverse(self._built[key[:-1]])
        return self._built[key]

    def _build(self, key):
        if key[0] == "spoke":
            return semiflat_factor(key[1], self)
        if key[0] == "cut":
            return cut_factor(key[1], self)
        wall = next(w for w in self.net.walls if w.id == key[1])
        if wall.start_branch is None:
            raise PathHitsJointRegion(
                f"wall {key[1]} is joint-fed; paths must avoid joint regions")
        return wall_factor(wall, key[2], self)

    @functools.cached_property
    def step_paths(self):
        """The track paths from cone i to cone i+1, for i = 0, ..., n-1."""
        n = self.tms.fan.n
        return tuple(track_path(self.net, i, (i + 1) % n) for i in range(n))

    @functools.cached_property
    def steps(self):
        """The path-ordered products S_i of ``step_paths``."""
        return tuple(path_ordered(self, p) for p in self.step_paths)


def path_ordered(factors, path) -> LaurentMatrix:
    """Ordered product along a surface path of the factors in ``factors``.

    The product starts from the first factor; an empty path gives Id.
    """
    for c in path.crossings:
        if c.direction not in (1, -1):
            raise NonTransverseCrossing(
                f"crossing of {c.kind} {c.index} with direction {c.direction}")
    states = path.states(factors.cover)
    if not path.crossings:
        return LaurentMatrix.identity(factors.cover.r)
    return _left_product(factors.of(crossing, region) for crossing, (region, _)
                         in zip(path.crossings, states[:-1]))


def _left_product(matrices):
    """M_k ... M_1 M_0 of a nonempty sequence M_0, ..., M_k: each later
    factor multiplies on the left, and the first is not multiplied into
    the identity."""
    matrices = iter(matrices)
    total = next(matrices)
    for m in matrices:
        total = mat_mul(m, total)
    return total


def branch_point_loop(net, cover, b) -> SurfacePath:
    """Small ccw loop around branch point b, starting just after its cut."""
    region = cover.cut_region[b]
    crossings = [Crossing("wall", w.id, +1) for w in net.arms[b]]
    crossings.append(Crossing("cut", b, +1))
    return SurfacePath(region, 0, crossings, turns=1)


def loop_identity_check(factors) -> ValidationReport:
    """Path-ordered products around all generator loops equal the identity.

    The fundamental group of the polygon minus the branch-point
    neighborhoods is generated by the small loop around each branch point
    together with the boundary-parallel loop; all must multiply to Id.
    The report is true when they do; otherwise it names the first loop
    whose product is not the identity, and the check stops there.  With
    the table of the symbolic system
    ``make_local_system(cover, TPoly.symbols(b1))`` each product is exact
    in Q[z^±, t^±], so a passing report holds for every rational local
    system.  The factors and steps built here stay in ``factors`` for
    later products over the same system.

    One boundary loop decides them all.  The loop from cone b crosses the
    events of the loop from cone 0 in cyclically rotated order, each in
    the same region and so with the same factor: if the loop from cone 0
    multiplies to B A, the loop from cone b multiplies to A B.  Over the
    commutative coefficient ring B A = Id forces det A to be a unit, so A
    is invertible with inverse B and A B = Id.  A failing boundary loop
    is therefore always reported from cone 0.

    The loop from cone 0 is the adjacent steps concatenated.  No track
    event sits at a vertex chamber, so the loop crosses the events of the
    steps 0 -> 1 -> ... -> n-1 -> 0 in order, each from the same region:
    its product is S_{n-1} ... S_1 S_0, built from the table's ``steps``
    instead of a second walk along the track.  InvariantViolated is raised
    if the crossings of ``boundary_loop(net, 0)`` are not those of the
    steps in order.
    """
    net, cover = factors.net, factors.cover
    report = ValidationReport()
    for b in range(len(cover.cuts)):
        if not path_ordered(factors,
                            branch_point_loop(net, cover, b)).is_identity():
            report.add("loop", f"loop around branch point {b} is not the "
                       "identity", ("branch", b))
            return report
    if boundary_loop(net, 0, ccw=True).crossings != [
            c for p in factors.step_paths for c in p.crossings]:
        raise InvariantViolated(
            "the boundary loop from cone 0 is not the adjacent steps "
            "concatenated")
    if not _left_product(factors.steps).is_identity():
        report.add("loop", "boundary loop from cone 0 is not the identity",
                   ("boundary", 0))
    return report


def compose_steps(steps, r):
    """All transition matrices G_{ij} from the adjacent steps G_{i,i+1}.

    G_{ii} = Id and G_{ij} = G_{j-1,j} ... G_{i,i+1}, going ccw from i to
    j; keyed in (i, j) order, the order in which consumers walk the pairs.
    """
    n = len(steps)
    matrices = {}
    for i in range(n):
        matrices[(i, i)] = g = LaurentMatrix.identity(r)
        for k in range(i + 1, i + n):
            g = steps[i] if k == i + 1 else mat_mul(steps[(k - 1) % n], g)
            matrices[(i, k % n)] = g
    return dict(sorted(matrices.items()))


@dataclass
class KaneyamaCocycle:
    """A Kaneyama cocycle, held as its n adjacent steps.

    ``steps[i]`` is G_{i,i+1}, the path-ordered product along the ccw
    boundary track from the vertex chamber of cone i to that of cone i+1;
    ``lift`` is the sheet/lift map the factors were built with.  The
    transition matrices of all ordered cone pairs are composed from the
    steps on first read of ``matrices`` (``compose_steps``).  A cocycle of
    the symbolic system evaluates, step by step, to the cocycle of every
    rational system (``evaluated``).
    """
    tms: object
    cover: object
    steps: tuple         # G_{i,i+1} for i = 0, ..., n-1
    lift: dict           # (region, sheet) -> lifted-cone id, the map used

    @functools.cached_property
    def matrices(self):
        """(i, j) -> G_{ij}, for all ordered cone pairs."""
        return compose_steps(self.steps, self.cover.r)

    def pair(self, i, j):
        return self.matrices[(i % self.tms.fan.n, j % self.tms.fan.n)]

    def evaluated(self, values):
        """The cocycle with t_k replaced by ``values[k - 1]`` in each step."""
        return replace(self, steps=tuple(evaluate(s, values)
                                         for s in self.steps))


def kaneyama_cocycle(net, tms, cover, ls) -> KaneyamaCocycle:
    """Transition matrices between all vertex chambers.

    G_{ij} is the path-ordered product along the ccw boundary track from
    the vertex chamber of cone i to that of cone j; the loop identities
    make this independent of the chosen representative path.  No track
    event sits at a vertex chamber, so that track is the concatenation of
    the adjacent steps i -> i+1 -> ... -> j, and the same factors in the
    same order give G_{ij} = G_{j-1,j} ... G_{i,i+1} exactly.

    The loop check gates the cocycle: LoopIdentityFailed names the first
    loop that is not the identity.  The check builds the n steps in the
    factor table, as the boundary loop's product; the cocycle keeps them
    and composes the other pairs on first read.  On the symbolic system
    this is the universal cocycle, whose evaluation at rational
    holonomies is the cocycle of that system.
    """
    factors = Factors(net, tms, cover, ls)
    report = loop_identity_check(factors)
    if not report:
        raise LoopIdentityFailed(report.violations[0].message)
    return KaneyamaCocycle(tms, cover, factors.steps, factors.lift)


def _recovered_slopes(coc: KaneyamaCocycle):
    """Slope vectors read back from the transition matrices.

    Every term of every entry of G_{ij} carries the exponent
    m(lift(j, row)) - m(lift(i, col)) (the z-twists telescope through all
    factors), so each nonzero entry pins one slope difference.  The
    remaining ambiguity is a translate per connected component of the
    cover, anchored at the input slope of one sheet per component.
    """
    tms, cover, lift = coc.tms, coc.cover, coc.lift
    n = tms.fan.n
    r = cover.r
    rec = {}
    for comp in cover.sheet_orbits():
        s0 = min(comp)
        rec[(0, s0)] = tms.slope(lift[(0, s0)])
    edges = []
    for (i, j), m in coc.matrices.items():
        for row in range(r):
            for col in range(r):
                p = m.entry(row, col)
                if p.is_zero():
                    continue
                if not p.is_monomial():
                    raise NoSharedLift(
                        "transition entries must be scalar multiples of a "
                        "single monomial")
                _, e = p.monomial_parts()
                edges.append(((i, col), (j, row), e))
    for _ in range(2 * n + 2):
        progress = False
        for src, dst, e in edges:
            if src in rec and dst not in rec:
                rec[dst] = geom.add(rec[src], e)
                progress = True
            elif dst in rec and src not in rec:
                rec[src] = geom.sub(rec[dst], e)
                progress = True
        if not progress:
            break
    return rec


def verify_bundle(coc: KaneyamaCocycle, tms) -> ValidationReport:
    """Full verification sweep over a Kaneyama cocycle.

    The inverses check G_ij G_ji = Id takes one product per unordered pair
    i < j: over the commutative Laurent ring AB = Id forces det A to be a
    unit, so A is invertible and BA = Id as well.  A failed pair is still
    reported under both ordered witnesses, in (i, j) order.

    The cocycle condition G_ki G_jk G_ij = Id is decided for every
    ordered triple of distinct cones.  When every pair passes its inverses
    check, so that G_ab G_ba = G_ba G_ab = Id, the condition for (i, j, k)
    holds if and only if G_jk G_ij = G_ik (multiply on the left by G_ik,
    or back by G_ki), and the C(n-1, 2) star triples (0, j, k) decide all
    the others: if each of them closes, then G_ij = G_0j G_i0 for all
    i, j, so for every triple G_jk G_ij = G_0k (G_j0 G_0j) G_i0 =
    G_0k G_i0 = G_ik, and no ordered triple can fail.  This is exact: one
    product and one comparison of canonical entries per star triple, no
    sampling.  Only when a pair or a star triple fails does
    ``cocycle_check`` run on every ordered triple, to name each failing
    one, in (i, j, k) order.
    """
    report = ValidationReport()
    fan = tms.fan
    n = fan.n
    r = coc.cover.r
    for i in range(n):
        if not coc.pair(i, i).is_identity():
            report.add("identity", f"G_({i},{i}) is not the identity", i)
    # ordered (i, j) with G_ij G_ji = Id; one product per unordered pair
    inverse_pairs = set()
    for i, j in combinations(range(n), 2):
        if mat_mul(coc.pair(i, j), coc.pair(j, i)).is_identity():
            inverse_pairs |= {(i, j), (j, i)}
    for i, j in permutations(range(n), 2):
        if (i, j) not in inverse_pairs:
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

    if len(inverse_pairs) < n * (n - 1) or not all(
            mat_mul(coc.pair(j, k), coc.pair(0, j)) == coc.pair(0, k)
            for j, k in combinations(range(1, n), 2)):
        for i, j, k in permutations(range(n), 3):
            if not cocycle_check(coc.pair(k, i), coc.pair(j, k),
                                 coc.pair(i, j)):
                report.add("cocycle",
                           f"triple ({i},{j},{k}) fails the cocycle condition",
                           (i, j, k))
    # tropicalization round-trip
    try:
        rec = _recovered_slopes(coc)
        for i in range(n):
            got = sorted(rec.get((i, s)) for s in range(r))
            want = sorted(tms.slope(coc.lift[(i, s)]) for s in range(r))
            if got != want:
                report.add("tropicalization",
                           f"recovered slopes {got} != input {want} "
                           f"over cone {i}", i)
    except NoSharedLift as exc:
        report.add("tropicalization", str(exc))
    return report
