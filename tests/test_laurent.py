"""The constant kernel of ``toricnets.laurent`` and its Laurent form.

A constant is an integer matrix over one positive denominator, or a
matrix of ``TPoly`` coefficients over 1; ``mat_mul``, ``det``,
``inverse`` and ``substitute`` act on constants only.  A cover has one or
two sheets, so the kernels are closed forms for 1 x 1 and 2 x 2
constants, and ``mat_mul``, ``det`` and ``inverse`` of a 3 x 3 constant
raise the typed ``NotSupported``.  The checks run the
reference kernel of ``tests/support.py`` (the ``ref_*`` helpers), which
the bundle oracles use, in ``Fraction`` arithmetic: the kernel agrees
with it exactly and leaves every result canonical.  The Laurent form
between frames (``support.LaurentMatrix.framed``) is held to it too: a
product of framed constants, written out, is the Laurent product of the
written factors.
"""
import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from support import (ZERO_CONE, LaurentMatrix, LaurentPoly,
                     evaluate_coefficient, fraction_rows, max_cone,
                     near_identities, ray_cone, ref_add, ref_clean, ref_det,
                     ref_constant_mat_mul, ref_identity, ref_is_identity,
                     ref_is_invertible_on, ref_mat_mul, ref_matrix, ref_mul,
                     ref_neg, ref_product, ref_regular_on, ref_with_entry,
                     reference_substitute, reference_unipotent, rows_den)

from toricnets.errors import NotRegular, NotSupported, SizeMismatch
from toricnets.fans import make_fan
from toricnets.laurent import (TPoly, constant, det, identity, inverse,
                               is_identity, is_unit, mat_mul, substitute,
                               unipotent)

FAN = make_fan([(1, 0), (0, 1), (-1, -1)])


def assert_rank_three_raises(a, b=None):
    """``mat_mul``, ``det`` and ``inverse`` of a 3 x 3 constant raise the
    typed error, never an assert or an unpacking ValueError."""
    assert len(rows_den(a)[0]) == 3
    for kernel in (lambda: mat_mul(a, b or a), lambda: det(a),
                   lambda: inverse(a)):
        with pytest.raises(NotSupported, match="one or two sheets"):
            kernel()


def is_canonical(c):
    """The canonical form of a constant, the flat tuple (den, *entries) of
    an r x r matrix: int entries over a positive int den coprime to them,
    or, with a ``TPoly`` entry, entries over the int 1 whose t-free
    integral entries are ints."""
    if type(c) is not tuple or len(c) < 2 or \
            isqrt(len(c) - 1) ** 2 != len(c) - 1:
        return False
    den, *flat = c
    if type(den) is not int:
        return False
    if any(isinstance(x, TPoly) for x in flat):
        return den == 1 and not any(
            type(x) is Fraction and x.denominator == 1 for x in flat)
    return den >= 1 and all(type(x) is int for x in flat) and \
        gcd(den, *flat) == 1


def as_terms(rows):
    """Rows of exact coefficients as rows of constant term dicts."""
    return [[{(0, 0): c} if c else {} for c in row] for row in rows]


def rand_scaled(rng, r, symbols=()):
    """A seeded constant: int entries, about a third of them zero, over a
    denominator up to 72; with ``symbols``, some entries are ``TPoly``s."""
    def entry():
        if rng.random() < 0.3:
            return 0
        x = rng.randint(-9, 9)
        if symbols and rng.random() < 0.4:
            for t in symbols:
                x = x * (t if rng.random() < 0.5 else 1 / t)
            x = x + rng.randint(-2, 2)
        return x
    return constant([[entry() for _ in range(r)] for _ in range(r)],
                    rng.choice([1, 2, 6, 12, 35, 72, rng.randint(1, 72)]))


def evaluated(x, values):
    """A Fraction or a TPoly at t = ``values``, summed term by term."""
    if not isinstance(x, TPoly):
        return x
    total = Fraction(0)
    for e, c in x.terms.items():
        for v, k in zip(values, e):
            c *= Fraction(v) ** k
        total += c
    return total


def mono(c, e):
    return LaurentPoly({e: c})


def framed(c, source, target):
    return LaurentMatrix.framed(c, source, target)


def rand_frame(rng, r):
    return [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(r)]


def test_monomial_inverse_of_a_singular_matrix_is_a_typed_error():
    # a determinant that is no unit (0, or 1 + t) is the package's
    # NotRegular, not a bare ZeroDivisionError or ValueError
    t, = TPoly.symbols(1)
    for singular in (constant([[1, 1], [1, 1]]), constant([[0]]),
                     constant([[1 + t, 0], [0, 1]])):
        assert not is_unit(det(singular))
        with pytest.raises(NotRegular):
            inverse(singular)


def test_poly_canonical_form_idempotent():
    p = LaurentPoly({(1, 0): Fraction(2), (0, 0): Fraction(0),
                     (-1, 2): Fraction(1, 3)})
    q = LaurentPoly(p.terms)
    assert p == q
    assert (0, 0) not in p.terms
    assert list(p.terms) == [(-1, 2), (1, 0)]


def test_poly_cancellation():
    assert ref_add({(2, 1): Fraction(1)}, {(2, 1): Fraction(-1)}) == {}
    # a constant entry that cancels is an int zero, and its written
    # entry is the zero polynomial
    c = mat_mul(constant([[1, 1]] * 2), constant([[1, 0], [-1, 0]]))
    assert c == constant([[0, 0], [0, 0]]) and type(c[1]) is int
    assert c[0] == 1 and is_canonical(c)
    assert framed(c, [(1, 0), (0, 1)], [(2, 2), (0, 0)]).entry(0, 0) == \
        LaurentPoly({})


def test_poly_arith():
    p = ref_add({(1, 0): 1}, {(0, 1): 2})
    q = ref_add({(0, 0): 3}, {(0, 1): -2})
    assert ref_add(ref_add(p, q), ref_neg(p)) == ref_clean(q)
    assert ref_mul(p, {(0, 0): Fraction(1)}) == p
    assert ref_mul(p, {}) == {}
    assert LaurentPoly(p) == LaurentPoly({(1, 0): 1, (0, 1): 2}) != \
        LaurentPoly(q)


def test_mat_mul_identity():
    t, = TPoly.symbols(1)
    a = constant([[2, 1], [0, t]])
    assert mat_mul(identity(2), a) == a
    assert mat_mul(a, identity(2)) == a
    assert is_identity(identity(3)) and not is_identity(a)


def test_mat_mul_monomial_diagonals():
    d1 = constant([[2, 0], [0, 3]])
    d2 = constant([[5, 0], [0, Fraction(1, 7)]])
    assert mat_mul(d1, d2) == constant([[10, 0], [0, Fraction(3, 7)]])
    # the frames telescope: written out, the product of (d2, S, M) and
    # (d1, M, T) is the Laurent product of the two written factors
    s, m, t = [(1, 0), (0, 1)], [(0, 0), (2, -1)], [(-1, 3), (1, 1)]
    assert framed(mat_mul(d1, d2), s, t) == \
        ref_product(framed(d1, m, t), framed(d2, s, m))


def test_mat_mul_unipotent_inverse():
    u = constant([[1, 1], [0, 1]])
    v = constant([[1, -1], [0, 1]])
    assert is_identity(mat_mul(u, v))
    assert inverse(u) == v


def test_mat_mul_size_mismatch():
    with pytest.raises(SizeMismatch):
        mat_mul(identity(2), identity(3))


def test_mat_mul_associative_random():
    rng = random.Random(11)
    t1, t2 = TPoly.symbols(2)

    def rand_const(r):
        return constant([[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                       for _ in range(r)] for _ in range(r)])

    # rational rows scaled by the constructor, then seeded scaled
    # constants of sizes 1 to 3 over denominators up to 72, some of them
    # with TPoly entries; a 3 x 3 product raises the typed error
    triples = []
    for trial in range(25):
        r = 2 if trial % 3 else 3
        triples.append([rand_const(r) for _ in range(3)])
    for trial in range(36):
        r, symbols = trial % 3 + 1, [(), (t1,), (t1, t2)][trial // 12]
        triples.append([rand_scaled(rng, r, symbols) for _ in range(3)])
    for a, b, c in triples:
        r = len(rows_den(a)[0])
        if r == 3:
            assert_rank_three_raises(a, b)
            continue
        left, right = mat_mul(mat_mul(a, b), c), mat_mul(a, mat_mul(b, c))
        assert left == right and is_canonical(left) and is_canonical(right)
        f0, f1, f2, f3 = (rand_frame(rng, r) for _ in range(4))
        assert framed(left, f0, f3) == ref_product(
            framed(a, f2, f3), framed(b, f1, f2), framed(c, f0, f1))
    assert max(a[0] for a, _, _ in triples) == 72


def test_regular_on_examples():
    # the Laurent oracle of the regularity check
    cone = max_cone(0)  # cone((1,0),(0,1))
    good = LaurentMatrix([[mono(1, (2, 0)), 0], [0, mono(1, (0, 3))]])
    assert ref_regular_on(good, FAN, cone)
    bad = ref_with_entry(good, 0, 1, mono(1, (-1, 0)))
    assert not ref_regular_on(bad, FAN, cone)
    # the zero cone imposes nothing
    assert ref_regular_on(bad, FAN, ZERO_CONE)


def test_invertibility_unit_monomial_det():
    # permutation of monomials
    p = LaurentMatrix([[0, 1], [2, 0]])
    assert ref_is_invertible_on(p, FAN, ZERO_CONE)
    assert det(constant([[0, 1], [2, 0]])) == -2
    # det = 1 + z^(1,0) is not a unit on the chart of ray (1,0)
    q = LaurentMatrix([[LaurentPoly({(0, 0): 1, (1, 0): 1})]])
    assert ref_regular_on(q, FAN, ray_cone(0))
    assert not ref_is_invertible_on(q, FAN, ray_cone(0))
    # det = z^(0,1) pairs to zero with (1,0): a unit there
    r = framed(constant([[1]]), [(0, 0)], [(0, 1)])
    assert r == LaurentMatrix([[mono(1, (0, 1))]])
    assert ref_is_invertible_on(r, FAN, ray_cone(0))
    inv = framed(inverse(constant([[1]])), [(0, 1)], [(0, 0)])
    assert inv == LaurentMatrix([[mono(1, (0, -1))]])
    assert ref_regular_on(inv, FAN, ray_cone(0))
    # det = (1 + t) z^0 is one term in z, but 1 + t is no unit of Q[t^±]:
    # not invertible, and the constant inverse refuses it alike
    t, = TPoly.symbols(1)
    s = LaurentMatrix([[mono(1 + t, (0, 0))]])
    assert not ref_is_invertible_on(s, FAN, ray_cone(0))
    assert not is_unit(1 + t)
    with pytest.raises(NotRegular):
        inverse(constant([[1 + t]]))
    # det = 2t z^(0,1) is a unit there
    u = LaurentMatrix([[mono(2 * t, (0, 1))]])
    assert ref_is_invertible_on(u, FAN, ray_cone(0))
    assert is_unit(2 * t)
    unit = constant([[2 * t]])
    assert is_identity(mat_mul(unit, inverse(unit)))


def test_invertibility_requires_regularity():
    m = LaurentMatrix([[mono(1, (-1, 0))]])
    with pytest.raises(NotRegular):
        ref_is_invertible_on(m, FAN, max_cone(0))


def test_monomial_inverse_constructive():
    # a random monomial permutation matrix D_T C D_S^-1 is invertible
    # everywhere; its inverse is (C^-1, T, S), written out
    rng = random.Random(5)
    for _ in range(10):
        cs = [Fraction(rng.choice([1, 2, 3, -1])) for _ in range(2)]
        if rng.random() < 0.5:
            c = constant([[cs[0], 0], [0, cs[1]]])
        else:
            c = constant([[0, cs[0]], [cs[1], 0]])
        inv = inverse(c)
        assert is_canonical(c) and is_canonical(inv)
        assert is_identity(mat_mul(c, inv)) and is_identity(mat_mul(inv, c))
        s, t = rand_frame(rng, 2), rand_frame(rng, 2)
        m, m_inv = framed(c, s, t), framed(inv, t, s)
        assert ref_product(m, m_inv) == ref_identity(2)
        assert ref_product(m_inv, m) == ref_identity(2)


def test_cocycle_check_examples():
    # a triple of framed constants closes exactly when its written Laurent
    # product is the identity
    rng = random.Random(8)
    for r in (2, 3):
        f1, f2, f3 = (rand_frame(rng, r) for _ in range(3))
        if r == 3:
            assert_rank_three_raises(constant(
                [[i + 1 if i == j else 0 for j in range(r)]
                 for i in range(r)]))
            continue
        d = constant([[i + 1 if i == j else 0 for j in range(r)]
                   for i in range(r)])
        g12, g23 = framed(d, f1, f2), framed(identity(r), f2, f3)
        g31 = framed(inverse(d), f3, f1)
        assert is_identity(mat_mul(mat_mul(inverse(d), identity(r)), d))
        assert ref_is_identity(ref_product(g31, g23, g12))
        ident = ref_identity(r)
        assert ref_is_identity(ref_product(ident, ident, ident))
        for bad in near_identities(r):
            assert not ref_is_identity(bad)
            assert not ref_is_identity(ref_product(bad, ident, ident))
            # the same defect conjugated by a diagonal monomial matrix
            assert not ref_is_identity(ref_product(
                framed(inverse(d), f2, f1), bad, framed(d, f1, f2)))
    u = constant([[1, 1], [0, 1]])
    assert not is_identity(mat_mul(mat_mul(identity(2), identity(2)), u))


def test_kernel_matches_constructor_based_reference():
    """Each constant product and each written entry equals the re-cleaned
    reference sums, and the kernel leaves every result canonical."""
    rng = random.Random(20240607)

    def rand_rows(n):
        return [[Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                 if rng.random() < 0.7 else Fraction(0)
                 for _ in range(n)] for _ in range(n)]

    def cancelling_rows(a):
        # column j of b is t_j * (a[i][1], -a[i][0], 0, ...) for a fixed
        # row i, so entry (i, j) of a*b cancels to zero term by term
        n = len(a)
        i = rng.randrange(n)
        b = rand_rows(n)
        for j in range(n):
            t = Fraction(rng.randint(1, 4), 3)
            b[0][j] = a[i][1] * t
            b[1][j] = -a[i][0] * t
            for k in range(2, n):
                b[k][j] = Fraction(0)
        return b, i

    cancelled = 0
    for trial in range(60):
        n = 2 if trial % 2 else 3
        a = rand_rows(n)
        b, row = cancelling_rows(a) if trial % 3 == 0 else (rand_rows(n), None)
        if n == 3:
            assert_rank_three_raises(constant(a), constant(b))
            continue
        got = mat_mul(constant(a), constant(b))
        assert is_canonical(got)
        want = ref_mat_mul(as_terms(a), as_terms(b))
        assert as_terms(fraction_rows(got)) == want
        got = fraction_rows(got)
        if row is not None:
            assert not any(got[row])
            cancelled += any(a[row][:2])
        s, t = rand_frame(rng, n), rand_frame(rng, n)
        written = framed(constant(got), s, t)
        assert written == ref_matrix(
            [[{(t[i][0] - s[j][0], t[i][1] - s[j][1]): got[i][j]}
              if got[i][j] else {} for j in range(n)] for i in range(n)])
        for p in (q for r_ in written.rows for q in r_):
            assert list(p.terms) == sorted(p.terms) and all(p.terms.values())
            assert all(type(c) is Fraction for c in p.terms.values())
            assert all(type(e[0]) is int and type(e[1]) is int
                       for e in p.terms)
    assert cancelled > 0

    # seeded scaled constants, sizes 1 to 3 over denominators up to 72
    # with zero and TPoly entries: the product, determinant, inverse and
    # substitution of the kernel equal the Fraction reference exactly, and
    # a 3 x 3 constant raises the typed error
    rng = random.Random(72)
    t1, t2 = TPoly.symbols(2)
    dens, inverted, symbolic = set(), 0, 0
    for trial in range(135):
        r, symbols = trial % 3 + 1, [(), (t1,), (t1, t2)][trial // 45]
        a, b = rand_scaled(rng, r, symbols), rand_scaled(rng, r, symbols)
        dens |= {a[0], b[0]}
        if r == 3:
            assert_rank_three_raises(a, b)
            continue
        assert is_canonical(a) and is_canonical(b)
        fa, fb = fraction_rows(a), fraction_rows(b)
        symbolic += any(isinstance(x, TPoly) for row in fa for x in row)
        got = mat_mul(a, b)
        assert is_canonical(got)
        assert as_terms(fraction_rows(got)) == ref_mat_mul(as_terms(fa),
                                                            as_terms(fb))
        d = det(a)
        assert d == (ref_det(ref_matrix(as_terms(fa))).get((0, 0), 0))
        assert type(d) is not Fraction or d.denominator != 1
        if is_unit(d):
            inv = inverse(a)
            assert is_canonical(inv)
            ident = [[dict(p.terms) for p in row]
                     for row in ref_identity(r).rows]
            fi = fraction_rows(inv)
            assert ref_mat_mul(as_terms(fi), as_terms(fa)) == ident
            assert ref_mat_mul(as_terms(fa), as_terms(fi)) == ident
            inverted += 1
        else:
            with pytest.raises(NotRegular):
                inverse(a)
        values = [Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
                  for _ in range(2)]
        sub = substitute(a, values)
        assert is_canonical(sub)
        assert fraction_rows(sub) == tuple(tuple(evaluated(x, values)
                                                 for x in row) for row in fa)
    assert max(dens) == 72 and inverted > 30 and symbolic > 20


def test_closed_forms_match_the_reference():
    """The 1 x 1 and 2 x 2 closed forms of ``mat_mul``, ``det``,
    ``inverse`` and ``substitute`` against the cofactor and running-sum
    reference (``ref_mat_mul``, ``ref_det``), on seeded entries of every
    kind: zero, int, non-integral Fraction and TPoly, over denominators 1,
    2 and 6; with rational, monomial and non-monomial determinants, the
    last refused with NotRegular."""
    rng = random.Random(3107)
    t = TPoly.symbols(2)
    entries, dets = set(), set()

    def kind(x):
        if isinstance(x, TPoly):
            return "monomial" if len(x.terms) == 1 else "sum"
        return "zero" if not x else type(x).__name__

    def draw(r):
        if rng.random() < 0.5:
            rows = [[rand_coefficient(rng, t) for _ in range(r)]
                    for _ in range(r)]
        else:   # a signed monomial permutation times a unipotent
            perm = rng.sample(range(r), r)
            unit = constant([[rng.choice([1, -2, Fraction(1, 3)])
                              * rng.choice([1, t[0], 1 / t[1]])
                              if j == perm[i] else 0 for j in range(r)]
                             for i in range(r)])
            rows = fraction_rows(mat_mul(unit, constant(
                [[1 if i == j else rand_coefficient(rng, t) if i > j else 0
                  for j in range(r)] for i in range(r)])))
        symbolic = any(isinstance(x, TPoly) for row in rows for x in row)
        return constant(rows, 1 if symbolic else rng.choice([1, 2, 6]))

    for trial in range(240):
        r = trial % 2 + 1
        a, b = draw(r), draw(r)
        fa, fb = fraction_rows(a), fraction_rows(b)
        entries |= {kind(x) for x in a[1:] + b[1:]}
        got = mat_mul(a, b)
        assert is_canonical(got)
        assert as_terms(fraction_rows(got)) == ref_mat_mul(as_terms(fa),
                                                            as_terms(fb))
        d = det(a)
        assert d == ref_det(ref_matrix(as_terms(fa))).get((0, 0), 0)
        dets.add(kind(d))
        if is_unit(d):
            inv = inverse(a)
            assert is_canonical(inv)
            ident = [[dict(p.terms) for p in row]
                     for row in ref_identity(r).rows]
            assert ref_mat_mul(as_terms(fraction_rows(inv)),
                               as_terms(fa)) == ident
        else:
            with pytest.raises(NotRegular):
                inverse(a)
        values = [Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
                  for _ in t]
        sub = substitute(a, values)
        assert is_canonical(sub)
        assert fraction_rows(sub) == tuple(tuple(evaluated(x, values)
                                                 for x in row) for row in fa)
    assert entries == {"zero", "int", "Fraction", "monomial", "sum"}
    assert dets == {"zero", "int", "Fraction", "monomial", "sum"}


# -- symbolic coefficients -----------------------------------------------------

def test_tpoly_t_free_results_are_fractions():
    t1, t2 = TPoly.symbols(2)
    for value, want in [(t1 * (1 / t1), 1), (t1 - t1, 0), ((t1 + 1) - t1, 1),
                        (t1 * 0, 0), (2 * t2 * (1 / t2), 2)]:
        assert type(value) is Fraction and value == want
    assert not (t1 - t1) and t1 and t1 - t2
    assert t1 != t2 and t1 != 1 and t1 == TPoly.symbols(2)[0]
    p = (t1 + t2) * (t1 - t2)
    assert p == t1 * t1 - t2 * t2
    assert list(p.terms) == sorted(p.terms) and all(p.terms.values())
    assert 3 / (2 * t1 * t2) == Fraction(3, 2) * (1 / t1) * (1 / t2)
    with pytest.raises(NotRegular):
        1 / (t1 + t2)


def test_tpoly_arithmetic_commutes_with_evaluation():
    rng = random.Random(41)
    t = TPoly.symbols(3)

    def rand_poly():
        p = Fraction(rng.randint(-3, 3))
        for _ in range(rng.randint(0, 4)):
            term = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            for k in range(3):
                for _ in range(rng.randint(0, 2)):
                    term *= t[k] if rng.random() < 0.6 else 1 / t[k]
            p = p + term
        return p

    for _ in range(60):
        p, q = rand_poly(), rand_poly()
        m = Fraction(rng.randint(1, 5)) * t[rng.randrange(3)] * (1 / t[0])
        v = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3)]
        ev = [evaluate_coefficient(x, v) for x in (p, q, m)]
        assert evaluate_coefficient(p + q, v) == ev[0] + ev[1]
        assert evaluate_coefficient(p - q, v) == ev[0] - ev[1]
        assert evaluate_coefficient(p * q, v) == ev[0] * ev[1]
        assert evaluate_coefficient(p * (1 / m), v) == ev[0] / ev[2]


def test_symbolic_matrices_invert_exactly():
    t1, t2 = TPoly.symbols(2)
    unipotent = constant([[1, 0], [t1, 1]])
    assert not is_identity(unipotent)
    assert is_identity(mat_mul(unipotent, inverse(unipotent)))
    swap = constant([[0, t1 * t2], [-1 / t2, 0]])
    assert det(swap) == t1
    inv = inverse(swap)
    assert is_identity(mat_mul(swap, inv))
    assert is_identity(mat_mul(inv, swap))
    v = [Fraction(2), Fraction(-5, 3)]
    assert substitute(mat_mul(swap, unipotent), v) == \
        mat_mul(substitute(swap, v), substitute(unipotent, v))
    assert substitute(inv, v) == inverse(substitute(swap, v))


def test_evaluation_is_canonical():
    # a coefficient that vanishes at the point is an int zero, so the
    # written form drops its term; the result equals the constant built
    # from the evaluated entries directly
    t1, t2 = TPoly.symbols(2)
    m = constant([[1 + t1 * (1 / t2), 0], [t1 - 1, t2]])
    got = substitute(m, [-1, 1])
    assert got == constant([[0, 0], [-2, 1]])
    assert got[0] == 1 and is_canonical(got)
    assert all(type(c) is int for c in got[1:])
    assert framed(got, [(0, 0), (1, 0)], [(0, 1), (2, 2)]) == LaurentMatrix(
        [[0, 0], [mono(-2, (2, 2)), mono(1, (1, 2))]])
    assert substitute(m, [2, 2]) == constant([[2, 0], [1, 2]])


def rand_coefficient(rng, t):
    """A seeded coefficient of Q[t^±]: 0, ±1, a t-free integral or
    non-integral rational, a monomial, or a sum of up to three monomials,
    with integral and non-integral coefficients."""
    kind = rng.randrange(6)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.choice([1, -1])
    if kind == 2:
        return Fraction(rng.randint(-9, 9) or 2)
    if kind == 3:
        return Fraction(rng.randint(-9, 9) or 1, rng.randint(2, 5))
    total = 0
    for _ in range(1 if kind == 4 else rng.randint(2, 3)):
        term = rng.choice([rng.randint(-4, 4) or 1, Fraction(
            rng.randint(-4, 4) or 1, rng.randint(2, 4))])
        for x in t:
            for _ in range(rng.randint(0, 2)):
                term = term * (x if rng.random() < 0.6 else 1 / x)
        total = total + term
    return total


def tpoly_coefficients(c):
    """The coefficients of every ``TPoly`` entry of a constant."""
    return [v for x in c[1:] if isinstance(x, TPoly)
            for v in x.terms.values()]


def test_symbolic_mat_mul_matches_running_sum_reference():
    # one accumulation per entry gives exactly the constant of the running
    # sums, canonical after every product and partial sum; and the
    # substitution of nonzero rationals commutes with mat_mul, det and
    # inverse
    rng = random.Random(2025)
    t = TPoly.symbols(2)
    symbolic = inverted = rank_three = 0
    for _ in range(225):
        r = rng.randint(1, 3)
        a, b = (constant([[rand_coefficient(rng, t) for _ in range(r)]
                          for _ in range(r)]) for _ in range(2))
        if r == 3:
            assert_rank_three_raises(a, b)
            rank_three += 1
            continue
        got = mat_mul(a, b)
        assert got == ref_constant_mat_mul(a, b)
        assert is_canonical(got)
        symbolic += any(isinstance(x, TPoly) for x in got[1:])
        v = [Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
             for _ in t]
        subs = [substitute(x, v) for x in (got, a, b)]
        assert all(is_canonical(x) for x in subs)
        assert subs[0] == mat_mul(subs[1], subs[2])
        for m in (a, b, got):
            assert substitute(constant([[det(m)]]), v) == \
                constant([[det(substitute(m, v))]])
        # an invertible symbolic constant: a signed monomial permutation
        # times a unipotent
        perm = list(range(r))
        rng.shuffle(perm)
        unit = constant([[rng.choice([1, -1, 2]) * t[rng.randrange(2)]
                          if j == perm[i] else 0 for j in range(r)]
                         for i in range(r)])
        unipotent = constant([[1 if i == j else
                               rand_coefficient(rng, t) if i > j else 0
                               for j in range(r)] for i in range(r)])
        m = mat_mul(unit, unipotent)
        assert m == ref_constant_mat_mul(unit, unipotent)
        inv = inverse(m)
        assert is_canonical(m) and is_canonical(inv)
        assert is_identity(mat_mul(m, inv)) and is_identity(mat_mul(inv, m))
        sub_inv, inv_sub = substitute(inv, v), inverse(substitute(m, v))
        assert is_canonical(sub_inv) and is_canonical(inv_sub)
        assert sub_inv == inv_sub
        inverted += 1
    assert symbolic > 100 and inverted == 225 - rank_three > 140


def test_tpoly_integral_coefficients_are_ints():
    t1, t2 = TPoly.symbols(2)
    rng = random.Random(7)
    seen = set()
    for _ in range(100):
        r = rng.randint(1, 3)
        a, b = (constant([[rand_coefficient(rng, (t1, t2)) for _ in range(r)]
                          for _ in range(r)]) for _ in range(2))
        if r == 3:
            assert_rank_three_raises(a, b)
            continue
        for c in (a, b, mat_mul(a, b)):
            assert is_canonical(c)
            for x in tpoly_coefficients(c):
                assert type(x) is int or \
                    type(x) is Fraction and x.denominator != 1
                seen.add(type(x))
    assert seen == {int, Fraction}
    assert all(type(x) is int for x in ((t1 + 3) * (t1 - t2)).terms.values())
    # a TPoly built from Fraction(2) is the one built from 2
    for two, other in [(Fraction(2) * t1, 2 * t1),
                       (t1 + Fraction(2), t1 + 2),
                       (t1 * Fraction(4, 2) - t2, t1 * 2 - t2)]:
        assert two == other and hash(two) == hash(other)
        assert repr(two) == repr(other)
        assert [type(x) for x in two.terms.values()] == \
            [type(x) for x in other.terms.values()]
    assert Fraction(2) * t1 == constant([[2 * t1]])[1]
    # the inverse of a monomial goes through Fraction: no float
    half = 1 / (2 * t1)
    ((e, c),) = half.terms.items()
    assert e == (-1, 0) and type(c) is Fraction and c == Fraction(1, 2)
    ((e, c),) = (1 / (-t1)).terms.items()
    assert e == (-1, 0) and type(c) is int and c == -1
    ((e, c),) = (Fraction(3, 2) / (3 * t2)).terms.items()
    assert e == (0, -1) and type(c) is Fraction and c == Fraction(1, 2)


def test_unipotent_matches_the_generic_constant():
    # Id + x E_{row, col} in one closed form, in both label orders, against
    # the rows-plus-constant() reference: int, +-p/q, integral Fraction and
    # TPoly weights, each canonical, a rational p/q over den q and a TPoly
    # over 1
    rng = random.Random("unipotent")
    t1, t2 = TPoly.symbols(2)
    weights = [1, -1, 7, -12, Fraction(3), Fraction(-8), Fraction(1, 2),
               Fraction(-5, 3)]
    weights += [Fraction(rng.choice([-1, 1]) * rng.randint(1, 99),
                         rng.randint(1, 99)) for _ in range(40)]
    weights += [t1, -t1, 1 / t2, -(1 / t2), t1 * t2 * Fraction(-3, 5),
                Fraction(2, 7) / t1, t1 + 1]
    kinds = set()
    for x in weights:
        for row, col in ((0, 1), (1, 0)):
            got, want = unipotent(row, col, x), reference_unipotent(row, col, x)
            assert got == want, (x, row, col)
            assert [type(c) for c in got[1:]] == [type(c) for c in want[1:]]
            assert is_canonical(got)
            q = 1 if isinstance(x, TPoly) else Fraction(x).denominator
            assert got[0] == q
            kinds.add(type(x).__name__ if q == 1 else "p/q")
    assert kinds == {"int", "Fraction", "p/q", "TPoly"}


def test_substitute_matches_the_fraction_reference():
    # the substitution runs on int numerators and denominators and brings
    # the entries over one lcm; the reference evaluates each monomial in
    # Fraction arithmetic.  Seeded constants of every kind of entry, at
    # seeded nonzero rationals and ints of both signs
    rng = random.Random("substitute")
    t = TPoly.symbols(3)
    signs = set()
    for trial in range(400):
        r = trial % 2 + 1
        a = constant([[rand_coefficient(rng, t) for _ in range(r)]
                      for _ in range(r)])
        values = [rng.choice([-1, 1]) * (
            rng.randint(1, 12) if rng.random() < 0.3 else
            Fraction(rng.randint(1, 12), rng.randint(1, 12))) for _ in t]
        got = substitute(a, values)
        assert got == reference_substitute(a, values), (a, values)
        assert is_canonical(got)
        signs |= {v > 0 for v in values}
    assert signs == {False, True}

