"""Non-abelianization: from a rank-1 system on the cover to a Kaneyama cocycle.

All factors act target-from-source on the r sheets: entry (row, col) =
(target sheet, source sheet).  The bundle is toric, so every factor is a
constant r x r matrix C, the flat tuple (den, *entries) of ``laurent``:
integer entries in row-major order over one denominator, or entries in
Q[t^±] over 1 for the symbolic system.  The frame of region R is D_R =
diag(z^m(lift(R, s))), and a factor crossed from region S into region T
stands for D_T C D_S^-1, whose entry (row, col) is C[row][col]
z^(m(lift(T, row)) - m(lift(S, col))).
Along a path each crossing starts in the region where the one before it
ends (``SurfacePath.states`` checks it), so the frames telescope,
(D_R2 C2 D_R1^-1)(D_R1 C1 D_R0^-1) = D_R2 C2 C1 D_R0^-1, and only the
constants are multiplied (``laurent.mat_mul``).  A path-ordered product
multiplies later factors on the left, so the cocycle matrix
G_ij = D_j P_ij D_i^-1 (product along the ccw boundary track from the
vertex chamber of cone i to that of cone j) composes as
G_ki * G_jk * G_ij = Id over closed triangles.

Every crossing is positive (right to left).  Factor inventory:

* spoke i: Id, from region i-1 to region i; the semi-flat transition data
  diag(z^(m(lift(i, s)) - m(lift(i-1, s)))) is the frame change itself;
* wall w with label (a, b): the unipotent Id + eps * lambda * E_{b a}, in
  the region where it is crossed, where lambda is the weight of the
  soliton's one cut crossing and eps = (-1)^turns its winding sign, made
  as one canonical constant in closed form (``laurent.unipotent``);
* cut k: the signed permutation forced by the branch-point consistency
  identity: the inverse of the ordered product of the three wall
  unipotents around the cut's branch point.

The last point pins the sign convention: winding counts are the ccw arm
positions after the cut, so the three wall factors carry signs +, -, +,
their product is anti-diagonal, and the loop around every branch point is
exactly the identity.

One ``Factors`` table per local system builds each factor on first use,
and the n adjacent boundary steps once; every product over that system
reads it.  A wall's constant does not depend on the region where the wall
is crossed, so the table builds one per wall: on fan7_n7, 15 wall factors
for 15 walls.  The cocycle is written once, as the term lists of
``cocycle.json``: one Laurent monomial per nonzero entry of
D_j P_ij D_i^-1 (``KaneyamaCocycle.written``).  ``verify_bundle``
certifies exactly those lists, factoring them back into their constants.

Every product of two constants is ``_product``, which does not multiply
by the identity, read through a product table (``functools.cache``), so
each distinct pair of constants is multiplied once per table.  A
``Factors`` table holds one for its lifetime (``Factors.mul``): the
branch-point loops reuse the products their cut factors took.  Away from
the walls a boundary step is the identity, so the n^2 constants P_ij
take few distinct values (one wide-fan pass: 1 600 pairs, 78 constants).
``compose_steps`` skips identity steps.  ``verify_bundle`` reads the
written terms in one pass and labels each distinct constant with an
int, so the per-pair work of every check is on ints and each fact is
decided once per distinct constant.  Constants are canonical
(``laurent``): equal exactly when their tuples are, so a label names one
value and every check decides as it would multiplying each pair anew.
"""
from __future__ import annotations

import functools
from itertools import combinations, permutations, product
from math import gcd, isqrt, lcm

from .cover import Crossing, SurfacePath
from .errors import (InvalidPath, InvariantViolated, LoopIdentityFailed,
                     NotSupported)
from .geom import dot, sub
from .laurent import (Constant, TPoly, constant, det, identity, inverse,
                      is_identity, is_unit, mat_mul, substitute, unipotent)
from .network import boundary_loop, enumerate_solitons, track_path
from .reporting import ValidationReport


def semiflat_factor(ray, factors) -> Constant:
    """Factor for the ccw crossing of the spoke of a ray.

    In the cut trivialization the crossing preserves sheets, so the
    transition data is diagonal with entries z^(m(lift(i, s)) -
    m(lift(i-1, s))): the change from the frame of region i-1 to that of
    region i, so the constant is the identity.  The underlying lifted
    cones share a lifted ray exactly when no cut lands on this spoke's
    barycenter, which is what makes the entries regular there.  Transports
    are 1 in the cuts-carry-weights gauge.
    """
    return identity(factors.cover.r)


def wall_factor(wall, factors) -> Constant:
    """Unipotent wall-crossing factor of a wall, in any region it is
    crossed in.

    The wall carries one soliton (``enumerate_solitons``), whose transport
    lambda is the weight of its one positive crossing of its branch
    point's cut, from its source sheet (``cut_crossing_weight``), negated
    when its turn count is odd.  The factor Id + lambda E_{b a} is made in
    one closed form (``laurent.unipotent``); a wall with no soliton has
    the identity.
    """
    sols = enumerate_solitons(factors.net, wall)
    if not sols:
        return identity(factors.cover.r)
    ((_, a, b, k, turns),) = sols
    lam = factors.ls.cut_crossing_weight(k, a)
    return unipotent(b, a, -lam if turns % 2 else lam)


def cut_factor(k, factors) -> Constant:
    """Signed permutation for the positive crossing of cut k.

    Defined as the inverse of the ordered product of the three wall
    factors around the cut's branch point, so the branch-point loop is the
    identity by construction; InvariantViolated is raised unless the
    result is anti-diagonal: the swap of the two sheets, which every cut
    makes.  The wall factors come from ``factors``, where the branch-point
    loop reads them again.
    """
    arms = factors.net.arms[k]
    if len(arms) != 3:
        raise NotSupported(f"branch point {k} does not carry a Y-graph")
    c = inverse(_left_product((factors.of(Crossing("wall", w.id))
                               for w in arms), factors.mul))
    for (i, j), x in zip(product(range(2), repeat=2), c[1:]):
        if bool(x) != (i != j):
            raise InvariantViolated(
                f"cut factor of cut {k} has unexpected support at {(i, j)}")
    return c


class Factors:
    """The crossing factors of one local system, each built on first use.

    Spoke factors are keyed by ray, cut factors by cut and wall factors by
    wall id, whose constant does not depend on the region it is crossed
    in; a wall id the network does not hold is InvalidPath.  The n
    adjacent steps of the ccw boundary track, from the vertex chamber of
    cone i to that of cone i+1, are built once too: ``step_paths`` and
    their products ``steps``.  Every product over the system reads one
    product table, ``mul`` (see the module docstring), so a branch-point
    loop reuses the products its cut factor took.
    """

    def __init__(self, net, tms, cover, ls):
        self.net, self.tms, self.cover, self.ls = net, tms, cover, ls
        self.mul = functools.cache(_product)
        self._built = {}
        self._walls = {w.id: w for w in net.walls}

    def of(self, crossing) -> Constant:
        """Factor of a spoke, cut or wall ``crossing``."""
        kind, index = crossing
        key = (kind, index % self.tms.fan.n if kind == "spoke" else index)
        if key not in self._built:
            self._built[key] = self._build(*key)
        return self._built[key]

    def _build(self, kind, index):
        if kind == "spoke":
            return semiflat_factor(index, self)
        if kind == "cut":
            return cut_factor(index, self)
        if index not in self._walls:
            raise InvalidPath(f"unknown wall {index}")
        return wall_factor(self._walls[index], self)

    @functools.cached_property
    def step_paths(self):
        """The track paths from cone i to cone i+1, for i = 0, ..., n-1."""
        n = self.tms.fan.n
        return tuple(track_path(self.net, i, (i + 1) % n) for i in range(n))

    @functools.cached_property
    def steps(self):
        """The path-ordered products S_i of ``step_paths``."""
        return tuple(path_ordered(self, p) for p in self.step_paths)


def path_ordered(factors, path) -> Constant:
    """Ordered product along a surface path of the factors in ``factors``.

    The product starts from the first factor; an empty path gives Id.
    ``path.states`` raises InvalidPath unless each crossing starts in the
    region where the one before it ends.
    """
    path.states(factors.cover)
    if not path.crossings:
        return identity(factors.cover.r)
    return _left_product((factors.of(c) for c in path.crossings),
                         factors.mul)


def _left_product(consts, mul):
    """C_k ... C_1 C_0 of a nonempty sequence C_0, ..., C_k: each later
    constant multiplies on the left, by ``mul``, a product table of
    ``_product``, and the first is not multiplied into the identity.  A
    spoke's identity constant takes no multiplication, first or later."""
    consts = iter(consts)
    total = next(consts)
    for c in consts:
        total = mul(c, total)
    return total


def _product(a, b):
    """The constant a b; a factor that is the identity is not multiplied."""
    one = identity(isqrt(len(a) - 1))
    if a == one:
        return b
    if b == one:
        return a
    return mat_mul(a, b)


def branch_point_loop(net, cover, b) -> SurfacePath:
    """Small ccw loop around branch point b, starting just after its cut."""
    region = cover.cut_region[b]
    crossings = [Crossing("wall", w.id) for w in net.arms[b]]
    crossings.append(Crossing("cut", b))
    return SurfacePath(region, 0, crossings)


def loop_identity_check(factors) -> ValidationReport:
    """Path-ordered products around all generator loops equal the identity.

    The fundamental group of the polygon minus the branch-point
    neighborhoods is generated by the small loop around each branch point
    and the boundary-parallel loop; all must multiply to Id.  Otherwise
    the report names the first loop that does not, and the check stops
    there.  With the symbolic system ``make_local_system(cover,
    TPoly.symbols(b1))`` each product is exact in Q[z^±, t^±], so a
    passing report holds for every rational local system.  The factors
    and steps built here stay in ``factors`` for later products.

    One boundary loop decides them all: the loop from cone b makes the
    crossings of the loop from cone 0 rotated, with the same factors, so
    if one multiplies to B A the other multiplies to A B, and over the
    commutative coefficient ring B A = Id forces A B = Id.  The loop from
    cone 0 crosses edges 1, ..., n, and the step from cone i edge i+1, so
    it is the steps concatenated and its product is S_{n-1} ... S_1 S_0,
    from the table's ``steps``; InvariantViolated is raised if the
    crossings of ``boundary_loop(net, 0)`` are not the steps' in order.
    """
    net, cover = factors.net, factors.cover
    report = ValidationReport()
    for b in range(len(cover.cuts)):
        if not is_identity(path_ordered(factors,
                                        branch_point_loop(net, cover, b))):
            report.add("loop", f"loop around branch point {b} is not the "
                       "identity", ("branch", b))
            return report
    if boundary_loop(net, 0).crossings != [
            c for p in factors.step_paths for c in p.crossings]:
        raise InvariantViolated(
            "the boundary loop from cone 0 is not the adjacent steps "
            "concatenated")
    if not is_identity(_left_product(factors.steps, factors.mul)):
        report.add("loop", "boundary loop from cone 0 is not the identity",
                   ("boundary", 0))
    return report


def compose_steps(steps, r):
    """All constants P_ij from the adjacent steps P_{i,i+1}.

    P_ii = Id and P_ij = P_{j-1,j} ... P_{i,i+1}, going ccw from i to j;
    keyed in (i, j) order, the order in which consumers walk the pairs.
    Across an identity step the running product stays as it is; every
    other step reads one product table (see the module docstring), so
    each distinct pair of constants is multiplied once.
    """
    n = len(steps)
    mul = functools.cache(_product)
    one = identity(r)
    moves = [s != one for s in steps]
    constants = {}
    for i in range(n):
        row = [one] * n     # P_ij in j order
        g = one
        for k in range(i + 1, i + n):
            if moves[(k - 1) % n]:
                g = mul(steps[(k - 1) % n], g)
            row[k % n] = g
        constants.update({(i, j): g for j, g in enumerate(row)})
    return constants


class KaneyamaCocycle:
    """A Kaneyama cocycle, held as the constants of its n adjacent steps.

    ``steps[i]`` is P_{i,i+1}, the constant of the path-ordered product
    along the ccw boundary track from the vertex chamber of cone i to that
    of cone i+1; ``lift`` is the sheet/lift map of the frames.  Built once,
    on first read: the cones' ``frames``, the ``constants`` of all ordered
    cone pairs, and the ``written`` form of G_ij = D_j P_ij D_i^-1, the
    term lists of ``cocycle.json`` that ``verify_bundle`` certifies.  A
    symbolic cocycle evaluates, step by step, to every rational system's
    (``evaluated``).
    """

    def __init__(self, tms, cover, steps, lift):
        self.tms, self.cover = tms, cover
        self.steps = steps   # P_{i,i+1} for i = 0, ..., n-1
        self.lift = lift     # (region, sheet) -> lifted-cone id, the map used

    @functools.cached_property
    def frames(self):
        """The exponents m(lift(i, s)) of the frame of every cone i, as a
        tuple over the cones of tuples over the sheets."""
        slope, lift = self.tms.slope, self.lift
        return tuple(tuple(slope(lift[(i, s)]) for s in range(self.cover.r))
                     for i in range(self.tms.fan.n))

    @functools.cached_property
    def constants(self):
        """(i, j) -> P_ij, for all ordered cone pairs."""
        return compose_steps(self.steps, self.cover.r)

    @functools.cached_property
    def written(self):
        """(i, j) -> the terms of G_ij = D_j P_ij D_i^-1, for all ordered
        cone pairs in (i, j) order.

        One term (row, col, num, den, ex, ey) per nonzero entry of P_ij,
        in (row, col) order: the coefficient num/den is the entry over the
        constant's denominator, reduced by one gcd, and (ex, ey) =
        m(lift(j, row)) - m(lift(i, col)) is the frame exponent.  A
        constant of the symbolic system has den 1, so its ``TPoly`` entries
        are written over 1.  Many pairs share a constant, so the entries
        (row, col, num, den) of each distinct constant are written once;
        each pair adds only its exponents.  Tuples, so that no reader
        edits what ``verify_bundle`` certified.
        """
        frames, r, written, entries = self.frames, self.cover.r, {}, {}
        for (i, j), const in self.constants.items():
            cells = entries.get(const)
            if cells is None:
                entries[const] = cells = _entries(const, r)
            fi, fj = frames[i], frames[j]
            written[(i, j)] = tuple(
                (row, col, num, d, fj[row][0] - fi[col][0],
                 fj[row][1] - fi[col][1])
                for row, col, num, d in cells)
        return written

    def evaluated(self, values):
        """The cocycle with t_k replaced by ``values[k - 1]`` in each step."""
        steps = tuple(substitute(s, values) for s in self.steps)
        return KaneyamaCocycle(self.tms, self.cover, steps, self.lift)


def _entries(const, r):
    """(row, col, num, den) of each nonzero entry of an r x r constant, in
    (row, col) order, with num/den the entry over the constant's
    denominator reduced by one gcd."""
    den = const[0]
    return [(k // r, k % r, c, 1) if den == 1 else
            (k // r, k % r, c // gcd(c, den), den // gcd(c, den))
            for k, c in enumerate(const[1:]) if c]


def kaneyama_cocycle(net, tms, cover, ls) -> KaneyamaCocycle:
    """Transition matrices between all vertex chambers.

    G_{ij} is the path-ordered product along the ccw boundary track from
    the vertex chamber of cone i to that of cone j, independent of the
    path by the loop identities; that track is the adjacent steps
    i -> i+1 -> ... -> j, so G_{ij} = G_{j-1,j} ... G_{i,i+1} exactly.
    The loop check gates the cocycle (LoopIdentityFailed names the first
    loop that is not the identity) and builds the n steps, whose constants
    the cocycle keeps.  On the symbolic system this is the universal
    cocycle, whose evaluation at rational holonomies is that system's.
    """
    factors = Factors(net, tms, cover, ls)
    report = loop_identity_check(factors)
    if not report:
        raise LoopIdentityFailed(report.violations[0].message)
    return KaneyamaCocycle(tms, cover, factors.steps, cover.lift_map(tms))


def _factored(coc, report):
    """The constants P_ij of the written terms of G_ij = D_j P_ij D_i^-1,
    interned: ``(labels, index)``, with ``index`` mapping each distinct
    constant to its label, from the identity's 0, and ``labels[i * n + j]``
    the label of P_ij.

    Each term list ``coc.written[(i, j)]`` must be canonical: terms in
    (row, col) order, each naming an entry of the r x r matrix, no exponent
    twice in one entry, each coefficient num/den nonzero and reduced over a
    positive denominator (a ``TPoly`` over the int 1), and each exponent a
    pair of ints (``True`` and ``1.0`` equal 1, but are not written as it).
    A term that is not is reported with its (i, j, row, col) and left out.

    Two checks, neither dependent on the order of ``coc.written``, make
    the tropicalization round trip.  Every nonzero entry (row, col) of
    G_ij must be one term at the frame exponent m(lift(j, row)) -
    m(lift(i, col)), or it is reported with its exponents, sorted.  And
    every (cone, sheet) must be joined, through the nonzero entries, to
    the anchor (0, s0) of its component of the cover, s0 its least sheet,
    so that the entries pin every slope to the anchor's.  All these
    failures are ``tropicalization`` violations.

    One pass reads each term once; the checks are the failure arms of its
    loop.  A pair fills a list of numerators, makes an entry's exponent
    list only when the entry repeats or is off its frame, and takes one
    lcm of its denominators.  Reduced fractions over their lcm are
    canonical, so the key (den, *numerators) is the constant P_ij itself,
    and ``index`` is keyed on it; only a key with a ``TPoly`` over a den
    other than 1 goes through ``laurent.constant``.  The join labels each
    anchor's component as the entries' links arrive, holding a link
    between two unlabelled (cone, sheet)s until one end is labelled, and
    records no more links once every (cone, sheet) is joined to its
    anchor.
    """
    frames, written, r = coc.frames, coc.written, coc.cover.r
    n, rr = len(frames), r * r
    # the frame exponent m(lift(i, s)) of (cone i, sheet s) at i * r + s
    fx = [m[0] for frame in frames for m in frame]
    fy = [m[1] for frame in frames for m in frame]
    home = {s: orbit[0] for orbit in coc.cover.sheet_orbits for s in orbit}
    # (cone, sheet) -> the anchor labelling its component, None if none
    part = [x if x in home.values() else None for x in range(n * r)]
    waiting = [[] for _ in part]        # links between unlabelled ends
    unjoined = part.count(None)

    def link(a, b):
        """Join (cone, sheet)s a and b."""
        nonlocal unjoined
        la, lb = part[a], part[b]
        if la is None and lb is None:
            waiting[a].append(b)
            waiting[b].append(a)
        elif la is None or lb is None:
            todo, lab = [a, b], lb if la is None else la
            while todo:
                x = todo.pop()
                if part[x] is None:
                    part[x] = lab
                    if lab == part[home[x % r]]:
                        unjoined -= 1
                    todo += waiting[x]
        elif la != lb:      # two anchors' components meet: relabel one
            part[:] = [la if x == lb else x for x in part]
            unjoined = sum(x != part[home[y % r]]
                           for y, x in enumerate(part))

    def bad_term(i, j, row, col, what):
        report.add("tropicalization", f"G_({i},{j}) {what}", (i, j, row, col))

    index = {identity(r): 0}
    labels = []
    for i, j in product(range(n), repeat=2):
        ir, jr = i * r, j * r
        cells = [0] * rr
        dens = off = None
        last = -1
        for row, col, num, den, ex, ey in written[(i, j)]:
            if not (type(row) is int and type(col) is int
                    and 0 <= row < r and 0 <= col < r):
                bad_term(i, j, row, col, f"names entry ({row},{col}) "
                         f"outside the {r} x {r} matrix")
                continue
            k = row * r + col
            if k < last:
                bad_term(i, j, row, col, f"writes entry ({row},{col}) after "
                         f"entry ({last // r},{last % r}), out of (row, col) "
                         "order")
                continue
            if type(num) is int:
                canonical = num and type(den) is int and (
                    den == 1 or den > 0 and gcd(num, den) == 1)
            else:
                canonical = type(num) is TPoly and type(den) is int and \
                    den == 1
            if not canonical:
                bad_term(i, j, row, col, f"entry ({row},{col}) has "
                         f"coefficient {num!r}/{den!r}, not a reduced nonzero "
                         "fraction over a positive denominator")
                continue
            if not (type(ex) is int and type(ey) is int):
                bad_term(i, j, row, col, f"entry ({row},{col}) has exponent "
                         f"{(ex, ey)!r}, not a pair of ints")
                continue
            if k != last:
                last, first, exponents = k, (ex, ey), None
                if unjoined:
                    link(ir + col, jr + row)
            else:           # an entry of several terms is off its frame
                exponents = exponents or [first]
                if (ex, ey) in exponents:
                    bad_term(i, j, row, col, f"entry ({row},{col}) names "
                             f"the exponent {(ex, ey)} twice")
                    continue
                exponents.append((ex, ey))
            on = ex == fx[jr + row] - fx[ir + col] and \
                ey == fy[jr + row] - fy[ir + col]
            if on:
                cells[k] = num
                if den != 1:
                    dens = dens or [1] * rr
                    dens[k] = den
            if exponents or not on:
                exponents = exponents or [first]
                off = off or {}
                off[k] = exponents
        for k in off or ():
            row, col = divmod(k, r)
            frame = (fx[jr + row] - fx[ir + col], fy[jr + row] - fy[ir + col])
            bad_term(i, j, row, col, f"entry ({row},{col}) has exponents "
                     f"{sorted(off[k])}, not the frame exponent {frame}")
        den = lcm(*dens) if dens else 1
        if dens:
            cells = [x * (den // d) for x, d in zip(cells, dens)]
        # reduced fractions over their lcm, or TPolys over 1: canonical
        key = (den, *cells)
        if den != 1 and TPoly in map(type, cells):
            key = constant([cells[k:k + r] for k in range(0, rr, r)], den)
        labels.append(index.setdefault(key, len(index)))
    for i in range(n):
        loose = [s for s in range(r) if part[i * r + s] != part[home[s]]]
        if loose:
            report.add("tropicalization",
                       f"no chain of nonzero entries joins sheets {loose} "
                       f"over cone {i} to their anchor over cone 0", i)
    return labels, index


def verify_bundle(coc: KaneyamaCocycle, tms) -> ValidationReport:
    """Full verification sweep over a Kaneyama cocycle.

    The sweep certifies what is written: it reads the term lists
    ``coc.written``, which ``schema.emit_cocycle`` writes to
    ``cocycle.json`` as they are, and factors each G_ij once into its
    constant P_ij (``_factored``).  If a term is not canonical, an entry
    is off its frame, or a (cone, sheet) is not joined to its anchor, the
    report holds exactly those ``tropicalization`` violations.  Otherwise the
    constants decide every other check, because the frames cancel: G_ij
    G_ji = D_j P_ij P_ji D_j^-1, and likewise around every triple.

    The inverses check G_ij G_ji = Id takes one product per unordered pair
    i < j: over a commutative ring AB = Id forces det A to be a unit, so A
    is invertible and BA = Id as well.  A failed pair is still reported
    under both ordered witnesses, in (i, j) order.

    G_{i-1,i} is regular on the chart of ray i when the frame exponents
    on the support of its constant pair >= 0 with the ray, and invertible
    there when det P is a unit coefficient and the exponent of det G =
    det P z^(sum_s m(lift(i, s)) - sum_s m(lift(i-1, s))) pairs to 0
    with it.

    The cocycle condition G_ki G_jk G_ij = Id is decided for every
    ordered triple of distinct cones.  When every pair passes its inverses
    check, the condition for (i, j, k) holds if and only if G_jk G_ij =
    G_ik, and the C(n-1, 2) star triples (0, j, k) decide all the others:
    if each closes, then G_ij = G_0j G_i0 for all i, j, so G_jk G_ij =
    G_0k (G_j0 G_0j) G_i0 = G_ik for every triple.  This is exact, no
    sampling.  Only when a pair or a star triple fails is every ordered
    triple multiplied out, to name each failing one, in (i, j, k) order.

    Every check reads the labels of the interned constants: the identity
    is label 0, det P is taken once per distinct P_{i-1,i}, and the
    product table, keyed on labels, labels each product by value, so a
    star triple compares two labels and an edited term makes a constant
    of its own that never reads a neighbour's product.
    """
    report = ValidationReport()
    fan, frames = tms.fan, coc.frames
    n = fan.n
    labels, index = _factored(coc, report)
    if not report:
        return report
    consts = list(index)

    def labelled_product(a, b):
        c = _product(consts[a], consts[b])
        if c not in index:
            index[c] = len(consts)
            consts.append(c)
        return index[c]

    mul = functools.cache(labelled_product)
    for i in range(n):
        if labels[i * n + i]:
            report.add("identity", f"G_({i},{i}) is not the identity", i)
    # ordered (i, j) with G_ij G_ji != Id; one product per unordered pair
    failed = sorted(pair for i, j in combinations(range(n), 2)
                    if mul(labels[i * n + j], labels[j * n + i])
                    for pair in ((i, j), (j, i)))
    for i, j in failed:
        report.add("inverses", f"G_({i},{j}) G_({j},{i}) != Id", (i, j))
    sums = [tuple(map(sum, zip(*frame))) for frame in frames]
    r = coc.cover.r
    units = {}      # label -> whether det P is a unit
    for i in range(n):
        h = (i - 1) % n
        a = labels[h * n + i]
        c, v = consts[a], fan.rays[i]
        if any(dot(sub(frames[i][k // r], frames[h][k % r]), v) < 0
               for k, x in enumerate(c[1:]) if x):
            report.add("regularity",
                       f"G over the ray-{i} overlap has negative exponents", i)
            continue
        if a not in units:
            units[a] = is_unit(det(c))
        if not (units[a] and dot(sub(sums[i], sums[h]), v) == 0):
            report.add("invertibility",
                       f"G over the ray-{i} overlap is not a unit there", i)

    if failed or not all(mul(labels[j * n + k], labels[j]) == labels[k]
                         for j, k in combinations(range(1, n), 2)):
        for i, j, k in permutations(range(n), 3):
            if mul(mul(labels[k * n + i], labels[j * n + k]),
                   labels[i * n + j]):
                report.add("cocycle",
                           f"triple ({i},{j},{k}) fails the cocycle condition",
                           (i, j, k))
    return report
