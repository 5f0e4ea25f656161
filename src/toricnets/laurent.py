"""Exact Laurent-polynomial matrices with exponents in Z^2.

Coefficients come from one exact ring: the rationals (``Fraction``), or
Q[t_1^±, ..., t_c^±] (``TPoly``) when the holonomies of a local system
are left as symbols.  The code never calls anything float-specific.
Matrices are tuples of tuples of polynomials; products, determinants
(cofactor expansion) and adjugates are exact.

Canonical form, which every ``LaurentPoly`` keeps: the ``terms`` dict has
sorted exponent keys that are pairs of ``int`` and nonzero coefficients,
each a ``Fraction`` or a ``TPoly``, and nothing mutates it after
construction.  Only the public constructor ``LaurentPoly(terms)``
validates its input to get there: it casts exponents to ``int``, turns
coefficients into ``Fraction`` and sums repeated exponents (``monomial``
and a scalar factor are converted by ``coefficient``, which keeps a
``TPoly`` as it is).  Arithmetic relies on its operands being canonical:
it collects the terms of each result in one dict, puts that dict in
canonical form once (``_canonical``) and wraps it with ``_poly``, which
checks nothing.

The coefficient-ring invariant: a ``TPoly`` is never t-free.  Every
``TPoly`` operation whose result does not involve t returns a plain
``Fraction`` instead, so a coefficient is zero exactly when it is falsy
and equals 1 exactly when ``== 1`` holds; ``_canonical`` and
``is_identity`` rely on both.  The Z^2 kernel ``_collect_product`` only
adds and multiplies coefficients, so it serves both rings unchanged.

``LaurentMatrix`` keeps the same kind of invariant: ``rows`` is a square
tuple of tuples of ``LaurentPoly``.  The public ``LaurentMatrix(rows)``
converts scalar entries and checks the shape; ``mat_mul`` builds its
product from canonical polynomials in square tuples, so it wraps them with
``_matrix``, which checks nothing.
"""
from __future__ import annotations

from fractions import Fraction
from operator import add

from .errors import NotRegular, SizeMismatch


def _tpoly(terms):
    """A TPoly around ``terms``, which must already be canonical."""
    p = object.__new__(TPoly)
    p.terms = terms
    return p


def _tcanonical(acc):
    """Canonical coefficient from collected sums: zeros dropped, keys
    sorted, and a t-free result returned as a Fraction."""
    terms = {e: acc[e] for e in sorted(acc) if acc[e]}
    if not terms:
        return Fraction(0)
    if len(terms) == 1:
        ((e, c),) = terms.items()
        if not any(e):
            return c
    return _tpoly(terms)


class TPoly:
    """A Laurent polynomial sum of c * t^(e) with e in Z^c, c in Q.

    ``terms`` maps exponent tuples, all of one length c, to nonzero
    ``Fraction`` coefficients, in sorted key order, and holds at least one
    nonzero exponent: t-free values are plain ``Fraction``s (see the
    module docstring).  Supports +, -, *, == with other TPolys and with
    rationals, and ``x / m`` for a monomial m, the only units of the ring.
    """

    __slots__ = ("terms",)

    @staticmethod
    def symbols(c):
        """The generators t_1, ..., t_c."""
        return [_tpoly({tuple(int(i == k) for i in range(c)): Fraction(1)})
                for k in range(c)]

    def _terms_of(self, other):
        """Terms of a TPoly or rational operand; None for anything else."""
        if isinstance(other, TPoly):
            return other.terms
        if isinstance(other, (int, Fraction)):
            zero = (0,) * len(next(iter(self.terms)))
            return {zero: Fraction(other)} if other else {}
        return None

    def __add__(self, other):
        terms = self._terms_of(other)
        if terms is None:
            return NotImplemented
        acc = dict(self.terms)
        for e, c in terms.items():
            acc[e] = acc[e] + c if e in acc else c
        return _tcanonical(acc)

    __radd__ = __add__

    def __neg__(self):
        return _tpoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        terms = self._terms_of(other)
        if terms is None:
            return NotImplemented
        acc = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in terms.items():
                e = tuple(map(add, e1, e2))
                acc[e] = acc[e] + c1 * c2 if e in acc else c1 * c2
        return _tcanonical(acc)

    __rmul__ = __mul__

    def __rtruediv__(self, other):
        """``other / self``; only a monomial has an inverse."""
        if len(self.terms) != 1:
            raise NotRegular(f"{self!r} is not a unit of Q[t^±]")
        ((e, c),) = self.terms.items()
        return _tpoly({tuple(-x for x in e): 1 / c}) * other

    def __eq__(self, other):
        return isinstance(other, TPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(self.terms.items()))

    def __bool__(self):
        return True

    def __repr__(self):
        return "(" + " + ".join(f"{c}*t^{e}"
                                for e, c in self.terms.items()) + ")"


def coefficient(x):
    """``x`` as an exact coefficient: a TPoly as it is, else a Fraction."""
    return x if isinstance(x, TPoly) else Fraction(x)


def _poly(terms):
    """A LaurentPoly around ``terms``, which must already be canonical."""
    p = object.__new__(LaurentPoly)
    p.terms = terms
    return p


def _canonical(acc):
    """Canonical LaurentPoly from collected sums: zeros dropped, keys sorted."""
    return _poly({e: acc[e] for e in sorted(acc) if acc[e]})


def _collect_product(acc, terms1, terms2):
    """Add every term product of two canonical term dicts into ``acc``."""
    for (x1, y1), c1 in terms1.items():
        for (x2, y2), c2 in terms2.items():
            e = (x1 + x2, y1 + y2)
            acc[e] = acc[e] + c1 * c2 if e in acc else c1 * c2


class LaurentPoly:
    """A Laurent polynomial sum of c * z^(e) with e in Z^2; each c is a
    Fraction or a TPoly."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # outside input: mapping (ex, ey) -> coefficient
        acc = {}
        if terms:
            for e, c in terms.items():
                e = (int(e[0]), int(e[1]))
                c = Fraction(c)
                acc[e] = acc[e] + c if e in acc else c
        self.terms = {e: acc[e] for e in sorted(acc) if acc[e]}

    @staticmethod
    def zero():
        return _poly({})

    @staticmethod
    def one():
        return _poly({(0, 0): Fraction(1)})

    @staticmethod
    def monomial(coeff, exponent):
        c = coefficient(coeff)
        return _poly({(int(exponent[0]), int(exponent[1])): c} if c else {})

    def is_zero(self):
        return not self.terms

    def is_monomial(self):
        return len(self.terms) == 1

    def monomial_parts(self):
        """(coeff, exponent) of a single-term polynomial."""
        if not self.is_monomial():
            raise NotRegular(f"{self!r} is not a monomial")
        ((e, c),) = self.terms.items()
        return c, e

    def __add__(self, other):
        acc = dict(self.terms)
        for e, c in other.terms.items():
            acc[e] = acc[e] + c if e in acc else c
        return _canonical(acc)

    def __neg__(self):
        return _poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            acc = {}
            _collect_product(acc, self.terms, other.terms)
            return _canonical(acc)
        k = coefficient(other)
        return _poly({e: c * k for e, c in self.terms.items()} if k else {})

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.terms.items():
            bits.append(f"{c}*z^{e}")
        return " + ".join(bits)


def _as_poly(x):
    if isinstance(x, LaurentPoly):
        return x
    return LaurentPoly.monomial(x, (0, 0))


def _matrix(rows):
    """A LaurentMatrix around ``rows``: a square tuple of tuples of
    LaurentPoly, which must already be canonical."""
    m = object.__new__(LaurentMatrix)
    m.size = len(rows)
    m.rows = rows
    return m


class LaurentMatrix:
    """Square matrix of Laurent polynomials."""

    __slots__ = ("size", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(_as_poly(x) for x in row) for row in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise SizeMismatch("matrix must be square")
        self.size = n
        self.rows = rows

    @staticmethod
    def identity(n):
        return LaurentMatrix(
            [[LaurentPoly.one() if i == j else LaurentPoly.zero()
              for j in range(n)] for i in range(n)])

    def entry(self, i, j):
        return self.rows[i][j]

    def with_entry(self, i, j, value):
        rows = [list(r) for r in self.rows]
        rows[i][j] = _as_poly(value)
        return LaurentMatrix(rows)

    def __eq__(self, other):
        return (isinstance(other, LaurentMatrix)
                and self.size == other.size and self.rows == other.rows)

    def __repr__(self):
        return "LaurentMatrix(" + ", ".join(
            "[" + ", ".join(repr(x) for x in row) + "]" for row in self.rows) + ")"

    def __mul__(self, other):
        return mat_mul(self, other)

    def is_identity(self):
        """True iff every diagonal entry is 1 and every other entry is 0."""
        return all(p.terms == {(0, 0): 1} if i == j else not p.terms
                   for i, row in enumerate(self.rows)
                   for j, p in enumerate(row))

    def transpose(self):
        return LaurentMatrix(list(zip(*self.rows)))

    def det(self):
        """Determinant by cofactor expansion (desk-scale sizes)."""
        n = self.size
        if n == 1:
            return self.rows[0][0]
        if n == 2:
            a, b = self.rows[0]
            c, d = self.rows[1]
            return a * d - b * c
        total = LaurentPoly.zero()
        for j in range(n):
            if self.rows[0][j].is_zero():
                continue
            minor = LaurentMatrix(
                [[self.rows[i][k] for k in range(n) if k != j]
                 for i in range(1, n)])
            term = self.rows[0][j] * minor.det()
            total = total + (term if j % 2 == 0 else -term)
        return total

    def adjugate(self):
        n = self.size
        if n == 1:
            return LaurentMatrix([[LaurentPoly.one()]])
        cof = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                minor = LaurentMatrix(
                    [[self.rows[r][c] for c in range(n) if c != j]
                     for r in range(n) if r != i])
                m = minor.det()
                cof[i][j] = m if (i + j) % 2 == 0 else -m
        return LaurentMatrix(cof).transpose()


def mat_mul(a: LaurentMatrix, b: LaurentMatrix) -> LaurentMatrix:
    if a.size != b.size:
        raise SizeMismatch(f"sizes {a.size} and {b.size} differ")
    cols = list(zip(*b.rows))
    out = []
    for arow in a.rows:
        row = []
        for bcol in cols:
            # every term product of the entry in one dict, made canonical once
            acc = {}
            for p, q in zip(arow, bcol):
                if p.terms and q.terms:
                    _collect_product(acc, p.terms, q.terms)
            row.append(_canonical(acc))
        out.append(tuple(row))
    return _matrix(tuple(out))


def poly_regular_on(p: LaurentPoly, generators) -> bool:
    """True iff every exponent pairs >= 0 with every cone generator."""
    for e in p.terms:
        for v in generators:
            if e[0] * v[0] + e[1] * v[1] < 0:
                return False
    return True


def regular_on(a: LaurentMatrix, fan, cone) -> bool:
    """True iff every entry is regular on the affine chart of the cone."""
    gens = fan.cone_generators(cone)
    return all(poly_regular_on(a.rows[i][j], gens)
               for i in range(a.size) for j in range(a.size))


def is_invertible_on(a: LaurentMatrix, fan, cone) -> bool:
    """True iff a is a unit of GL_r over the chart's coordinate ring.

    Requires regularity; the determinant must be a single term c*z^m with
    both m and -m in the dual cone, i.e. <m, v> == 0 for every generator,
    and with c a unit of the coefficient ring: a nonzero rational, or a
    one-term ``TPoly`` (a sum such as 1 + t has no inverse in Q[t^±]).
    """
    if not regular_on(a, fan, cone):
        raise NotRegular("matrix is not regular on the given cone")
    d = a.det()
    if not d.is_monomial():
        return False
    c, e = d.monomial_parts()
    if isinstance(c, TPoly) and len(c.terms) != 1:
        return False
    for v in fan.cone_generators(cone):
        if e[0] * v[0] + e[1] * v[1] != 0:
            return False
    return True


def monomial_inverse(a: LaurentMatrix) -> LaurentMatrix:
    """Exact inverse of a matrix with monomial determinant."""
    d = a.det()
    c, e = d.monomial_parts()
    inv_det = LaurentPoly.monomial(Fraction(1) / c, (-e[0], -e[1]))
    adj = a.adjugate()
    return LaurentMatrix([[inv_det * adj.rows[i][j] for j in range(a.size)]
                          for i in range(a.size)])


def cocycle_check(g31: LaurentMatrix, g23: LaurentMatrix,
                  g12: LaurentMatrix) -> bool:
    """True iff g31 * g23 * g12 is exactly the identity."""
    if not (g31.size == g23.size == g12.size):
        raise SizeMismatch("cocycle factors must share a size")
    return mat_mul(mat_mul(g31, g23), g12).is_identity()
