import random
from fractions import Fraction

import pytest

from support import (ZERO_CONE, evaluate_coefficient, max_cone,
                     near_identities, ref_add, ref_clean, ref_mat_mul,
                     ref_mul, ref_neg)

from toricnets.errors import NotRegular, SizeMismatch
from toricnets.fans import make_fan, ray_cone
from toricnets.laurent import (LaurentMatrix, LaurentPoly, TPoly,
                               cocycle_check, evaluate, is_invertible_on,
                               mat_mul, monomial_inverse, regular_on)

FAN = make_fan([(1, 0), (0, 1), (-1, -1)])


def mono(c, e):
    return LaurentPoly.monomial(c, e)


def test_monomial_inverse_of_a_singular_matrix_is_a_typed_error():
    # det = 0 is not a monomial: the package's NotRegular, not a bare
    # ValueError, reports it
    with pytest.raises(NotRegular):
        monomial_inverse(LaurentMatrix([[1, 1], [1, 1]]))
    with pytest.raises(NotRegular):
        (mono(1, (0, 0)) + mono(1, (1, 0))).monomial_parts()


def test_poly_canonical_form_idempotent():
    p = LaurentPoly({(1, 0): Fraction(2), (0, 0): Fraction(0),
                     (-1, 2): Fraction(1, 3)})
    q = LaurentPoly(p.terms)
    assert p == q
    assert (0, 0) not in p.terms


def test_poly_cancellation():
    p = mono(1, (2, 1)) + mono(-1, (2, 1))
    assert p.is_zero()


def test_poly_arith():
    p = mono(1, (1, 0)) + mono(2, (0, 1))
    q = mono(3, (0, 0)) - mono(2, (0, 1))
    assert (p + q) - p == q
    assert p * LaurentPoly.one() == p
    assert p * LaurentPoly.zero() == LaurentPoly.zero()


def test_mat_mul_identity():
    a = LaurentMatrix([[mono(2, (1, 0)), mono(1, (0, 0))],
                       [LaurentPoly.zero(), mono(1, (0, 1))]])
    assert mat_mul(LaurentMatrix.identity(2), a) == a
    assert mat_mul(a, LaurentMatrix.identity(2)) == a


def test_mat_mul_monomial_diagonals():
    d1 = LaurentMatrix([[mono(1, (1, 0))]])
    d2 = LaurentMatrix([[mono(1, (0, 1))]])
    assert mat_mul(d1, d2) == LaurentMatrix([[mono(1, (1, 1))]])


def test_mat_mul_unipotent_inverse():
    u = LaurentMatrix([[mono(1, (0, 0)), mono(1, (0, 0))],
                       [LaurentPoly.zero(), mono(1, (0, 0))]])
    v = LaurentMatrix([[mono(1, (0, 0)), mono(-1, (0, 0))],
                       [LaurentPoly.zero(), mono(1, (0, 0))]])
    assert mat_mul(u, v) == LaurentMatrix.identity(2)


def test_mat_mul_size_mismatch():
    with pytest.raises(SizeMismatch):
        mat_mul(LaurentMatrix.identity(2), LaurentMatrix.identity(3))


def test_mat_mul_associative_random():
    rng = random.Random(11)

    def rand_poly():
        return LaurentPoly({(rng.randint(-2, 2), rng.randint(-2, 2)):
                            Fraction(rng.randint(-3, 3)) for _ in range(2)})

    def rand_mat():
        return LaurentMatrix([[rand_poly() for _ in range(2)]
                              for _ in range(2)])

    for _ in range(25):
        a, b, c = rand_mat(), rand_mat(), rand_mat()
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


def test_regular_on_examples():
    cone = max_cone(0)  # cone((1,0),(0,1))
    good = LaurentMatrix([[mono(1, (2, 0)), LaurentPoly.zero()],
                          [LaurentPoly.zero(), mono(1, (0, 3))]])
    assert regular_on(good, FAN, cone)
    bad = good.with_entry(0, 1, mono(1, (-1, 0)))
    assert not regular_on(bad, FAN, cone)
    # the zero cone imposes nothing
    assert regular_on(bad, FAN, ZERO_CONE)


def test_invertibility_unit_monomial_det():
    # permutation of monomials
    p = LaurentMatrix([[LaurentPoly.zero(), mono(1, (0, 0))],
                       [mono(2, (0, 0)), LaurentPoly.zero()]])
    assert is_invertible_on(p, FAN, ZERO_CONE)
    # det = 1 + z^(1,0) is not a unit on the chart of ray (1,0)
    q = LaurentMatrix([[mono(1, (0, 0)) + mono(1, (1, 0))]])
    assert regular_on(q, FAN, ray_cone(0))
    assert not is_invertible_on(q, FAN, ray_cone(0))
    # det = z^(0,1) pairs to zero with (1,0): a unit there
    r = LaurentMatrix([[mono(1, (0, 1))]])
    assert is_invertible_on(r, FAN, ray_cone(0))
    inv = monomial_inverse(r)
    assert inv == LaurentMatrix([[mono(1, (0, -1))]])
    assert regular_on(inv, FAN, ray_cone(0))
    # det = (1 + t) z^0 is one term in z, but 1 + t is no unit of Q[t^±]:
    # not invertible, and monomial_inverse refuses it alike
    t, = TPoly.symbols(1)
    s = LaurentMatrix([[mono(1 + t, (0, 0))]])
    assert not is_invertible_on(s, FAN, ray_cone(0))
    with pytest.raises(NotRegular):
        monomial_inverse(s)
    # det = 2t z^(0,1) is a unit there
    u = LaurentMatrix([[mono(2 * t, (0, 1))]])
    assert is_invertible_on(u, FAN, ray_cone(0))
    assert mat_mul(u, monomial_inverse(u)).is_identity()


def test_invertibility_requires_regularity():
    m = LaurentMatrix([[mono(1, (-1, 0))]])
    with pytest.raises(NotRegular):
        is_invertible_on(m, FAN, max_cone(0))


def test_monomial_inverse_constructive():
    rng = random.Random(5)
    for _ in range(10):
        # random monomial permutation matrix: invertible everywhere
        es = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(2)]
        cs = [Fraction(rng.choice([1, 2, 3, -1])) for _ in range(2)]
        if rng.random() < 0.5:
            m = LaurentMatrix([[mono(cs[0], es[0]), LaurentPoly.zero()],
                               [LaurentPoly.zero(), mono(cs[1], es[1])]])
        else:
            m = LaurentMatrix([[LaurentPoly.zero(), mono(cs[0], es[0])],
                               [mono(cs[1], es[1]), LaurentPoly.zero()]])
        inv = monomial_inverse(m)
        assert mat_mul(m, inv) == LaurentMatrix.identity(2)
        assert mat_mul(inv, m) == LaurentMatrix.identity(2)


def test_cocycle_check_examples():
    ident = LaurentMatrix.identity(2)
    assert cocycle_check(ident, ident, ident)
    assert ident.is_identity()
    d = LaurentMatrix([[mono(1, (1, 0)), LaurentPoly.zero()],
                       [LaurentPoly.zero(), mono(1, (0, 1))]])
    dinv = monomial_inverse(d)
    assert cocycle_check(ident, dinv, d)
    u = ident.with_entry(0, 1, mono(1, (0, 0)))
    assert not cocycle_check(ident, ident, u)
    for n in (2, 3):
        d = LaurentMatrix([[mono(i + 1, (i, 1 - i)) if i == j else 0
                            for j in range(n)] for i in range(n)])
        dinv = monomial_inverse(d)
        assert cocycle_check(dinv, LaurentMatrix.identity(n), d)
        for bad in near_identities(n):
            assert not bad.is_identity()
            assert not cocycle_check(bad, LaurentMatrix.identity(n),
                                     LaurentMatrix.identity(n))
            # the same defect conjugated by a diagonal monomial matrix
            assert not cocycle_check(dinv, bad, d)
    with pytest.raises(SizeMismatch):
        cocycle_check(ident, ident, LaurentMatrix.identity(3))


def test_kernel_matches_constructor_based_reference():
    """Each entry made canonical once equals the re-cleaned partial sums."""
    rng = random.Random(20240607)

    def rand_terms():
        terms = {}
        for _ in range(rng.randint(0, 3)):
            e = (rng.randint(-2, 2), rng.randint(-2, 2))
            terms[e] = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        return terms

    def rand_rows(n):
        return [[rand_terms() for _ in range(n)] for _ in range(n)]

    def cancelling_rows(a):
        # column j of b is t_j * (a[i][1], -a[i][0], 0, ...) for a fixed
        # row i, so entry (i, j) of a*b cancels to zero term by term
        n = len(a)
        i = rng.randrange(n)
        b = rand_rows(n)
        for j in range(n):
            t = {(rng.randint(-1, 1), 0): Fraction(rng.randint(1, 4), 3)}
            b[0][j] = ref_mul(a[i][1], t)
            b[1][j] = ref_neg(ref_mul(a[i][0], t))
            for k in range(2, n):
                b[k][j] = {}
        return b, i

    def check_canonical(p):
        assert list(p.terms) == sorted(p.terms)
        for e, c in p.terms.items():
            assert type(e[0]) is int and type(e[1]) is int
            assert type(c) is Fraction and c != 0

    def matrix(rows):
        return LaurentMatrix([[LaurentPoly(t) for t in row] for row in rows])

    cancelled = 0
    for trial in range(60):
        n = 2 if trial % 2 else 3
        a = rand_rows(n)
        b, row = cancelling_rows(a) if trial % 3 == 0 else (rand_rows(n), None)
        got = mat_mul(matrix(a), matrix(b))
        want = ref_mat_mul(a, b)
        for i in range(n):
            for j in range(n):
                check_canonical(got.entry(i, j))
                assert got.entry(i, j).terms == want[i][j]
        if row is not None:
            assert all(got.entry(row, j).is_zero() for j in range(n))
            cancelled += all(ref_clean(a[row][k]) for k in range(2))
        for _ in range(3):
            p, q = LaurentPoly(rand_terms()), LaurentPoly(rand_terms())
            k = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            for result, expected in [
                    (p + q, ref_add(p.terms, q.terms)),
                    (p - q, ref_add(p.terms, ref_neg(q.terms))),
                    (-p, ref_neg(p.terms)),
                    (p * q, ref_mul(p.terms, q.terms)),
                    (p * k, ref_mul(p.terms, k)),
                    (k * p, ref_mul(p.terms, k)),
                    (p + (-p), {}),
                    (p * q - q * p, {})]:
                check_canonical(result)
                assert result.terms == expected
    assert cancelled > 0


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
    unipotent = LaurentMatrix([[1, 0], [mono(t1, (1, 0)), 1]])
    assert not unipotent.is_identity()
    assert mat_mul(unipotent, monomial_inverse(unipotent)).is_identity()
    swap = LaurentMatrix([[0, mono(t1 * t2, (0, 1))],
                          [mono(-1 / t2, (1, -1)), 0]])
    inverse = monomial_inverse(swap)
    assert mat_mul(swap, inverse).is_identity()
    assert mat_mul(inverse, swap).is_identity()
    v = [Fraction(2), Fraction(-5, 3)]
    assert evaluate(mat_mul(swap, unipotent), v) == \
        mat_mul(evaluate(swap, v), evaluate(unipotent, v))
    assert mono(2, (1, 1)) * t1 == mono(2 * t1, (1, 1))


def test_evaluation_is_canonical():
    # a coefficient that vanishes at the point drops its term; the result
    # equals the matrix built from the evaluated entries directly
    t1, t2 = TPoly.symbols(2)
    p = mono(1 + t1 * (1 / t2), (1, 0)) + mono(t2, (0, 0)) + mono(3, (-1, 2))
    m = LaurentMatrix([[p, 0], [mono(t1 - 1, (0, 1)), 1]])
    got = evaluate(m, [-1, 1])
    assert got == LaurentMatrix([[LaurentPoly({(-1, 2): 3, (0, 0): 1}), 0],
                                 [LaurentPoly({(0, 1): -2}), 1]])
    assert list(got.entry(0, 0).terms) == [(-1, 2), (0, 0)]
    assert all(type(c) is Fraction for row in got.rows for q in row
               for c in q.terms.values())
    assert evaluate(m, [2, 2]) == LaurentMatrix(
        [[LaurentPoly({(1, 0): 2, (0, 0): 2, (-1, 2): 3}), 0],
         [LaurentPoly({(0, 1): 1}), 1]])
