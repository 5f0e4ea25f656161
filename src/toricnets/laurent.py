"""Exact constant matrices, and the Laurent form of a matrix between frames.

Coefficients come from one exact ring: the rationals (``Fraction``), or
Q[t_1^±, ..., t_c^±] (``TPoly``) when the holonomies of a local system
are left as symbols.  The code never calls anything float-specific.

A constant matrix is a square tuple of tuples of coefficients.
``mat_mul`` is the one product; ``det`` expands by cofactors and
``inverse`` divides the adjugate by a unit determinant.  ``substitute`` is
the one substitution of rational holonomies for t.

The coefficient-ring invariant: a ``TPoly`` is never t-free.  Every
``TPoly`` operation whose result does not involve t returns a plain
``Fraction`` instead, so a coefficient is zero exactly when it is falsy
and equals 1 exactly when ``== 1`` holds; ``mat_mul`` skips zeros and
``is_identity`` compares with 1 on that basis, and two canonical
constants are equal exactly when their tuples are.

The z-twist of a toric bundle never enters a product: the construction
holds every factor as a constant between two torus frames (see
``nonabelian``).  ``LaurentPoly`` and ``LaurentMatrix`` are the written and
verified form of such a factor, D_target C D_source^-1, whose entries are
Laurent polynomials sum c * z^e with e in Z^2 (``LaurentMatrix.framed``).
Canonical form, which every ``LaurentPoly`` keeps: the ``terms`` dict has
sorted exponent keys that are pairs of ``int`` and nonzero coefficients.
The public constructor ``LaurentPoly(terms)`` validates outside input to
get there; ``framed`` builds canonical monomials and wraps them with
``_poly`` and ``_matrix``, which check nothing.
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


def is_unit(c) -> bool:
    """True iff the coefficient c has an inverse: a nonzero rational, or a
    one-term ``TPoly`` (a sum such as 1 + t has none in Q[t^±])."""
    return len(c.terms) == 1 if isinstance(c, TPoly) else c != 0


# -- constant matrices ---------------------------------------------------------

_ZERO, _ONE = Fraction(0), Fraction(1)


def identity(r):
    """The r x r identity constant."""
    return tuple(tuple(_ONE if i == j else _ZERO for j in range(r))
                 for i in range(r))


def is_identity(a) -> bool:
    """True iff every diagonal entry is 1 and every other entry is 0."""
    return all(c == int(i == j)
               for i, row in enumerate(a) for j, c in enumerate(row))


def mat_mul(a, b):
    """The product a b of two constant matrices of one size."""
    if len(a) != len(b):
        raise SizeMismatch(f"sizes {len(a)} and {len(b)} differ")
    cols = tuple(zip(*b))
    out = []
    for row in a:
        entries = []
        for col in cols:
            # a sum of the nonzero products, not started from a zero
            total = _ZERO
            for x, y in zip(row, col):
                if x and y:
                    total = x * y if total is _ZERO else total + x * y
            entries.append(total)
        out.append(tuple(entries))
    return tuple(out)


def _minor(a, i, j):
    """``a`` without row i and column j."""
    return tuple(row[:j] + row[j + 1:] for k, row in enumerate(a) if k != i)


def det(a):
    """Determinant by cofactor expansion along the first row."""
    if len(a) == 1:
        return a[0][0]
    total = _ZERO
    for j, x in enumerate(a[0]):
        if x:
            term = x * det(_minor(a, 0, j))
            total = total - term if j % 2 else total + term
    return total


def inverse(a):
    """Exact inverse, the adjugate over the determinant.

    NotRegular unless the determinant is a unit of the coefficient ring.
    """
    d = det(a)
    if not is_unit(d):
        raise NotRegular(f"determinant {d!r} is not a unit")
    u = 1 / d
    if len(a) == 1:
        return ((u,),)
    return tuple(tuple((-u if (i + j) % 2 else u) * det(_minor(a, j, i))
                       for j in range(len(a)))
                 for i in range(len(a)))


def _substitute(c, values):
    """A coefficient with t_k replaced by ``values[k - 1]``: a Fraction."""
    if not isinstance(c, TPoly):
        return c
    total = Fraction(0)
    for exponents, a in c.terms.items():
        for v, k in zip(values, exponents):
            a *= v ** k
        total += a
    return total


def substitute(a, values):
    """The constant with t_k replaced by ``values[k - 1]`` in every entry:
    the substitution homomorphism Q[t^±] -> Q at nonzero rationals."""
    values = [Fraction(v) for v in values]
    return tuple(tuple(_substitute(c, values) for c in row) for row in a)


# -- the written form -----------------------------------------------------------

def _poly(terms):
    """A LaurentPoly around ``terms``, which must already be canonical."""
    p = object.__new__(LaurentPoly)
    p.terms = terms
    return p


class LaurentPoly:
    """A Laurent polynomial sum of c * z^(e) with e in Z^2; each c is a
    Fraction or a TPoly."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # outside input: mapping (ex, ey) -> coefficient
        acc = {}
        for e, c in (terms or {}).items():
            e = (int(e[0]), int(e[1]))
            c = coefficient(c)
            acc[e] = acc[e] + c if e in acc else c
        self.terms = {e: acc[e] for e in sorted(acc) if acc[e]}

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*z^{e}" for e, c in self.terms.items())


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
        rows = tuple(tuple(x if isinstance(x, LaurentPoly)
                           else LaurentPoly({(0, 0): x}) for x in row)
                     for row in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise SizeMismatch("matrix must be square")
        self.size = n
        self.rows = rows

    @staticmethod
    def framed(const, source, target):
        """D_target const D_source^-1 for the frames D = diag(z^m_s).

        ``source`` and ``target`` list one exponent m_s per sheet; entry
        (row, col) is const[row][col] z^(target[row] - source[col]), one
        monomial per nonzero entry of the constant.
        """
        return _matrix(tuple(
            tuple(_poly({(t[0] - s[0], t[1] - s[1]): c} if c else {})
                  for c, s in zip(row, source))
            for row, t in zip(const, target)))

    def entry(self, i, j):
        return self.rows[i][j]

    def __eq__(self, other):
        return (isinstance(other, LaurentMatrix)
                and self.size == other.size and self.rows == other.rows)

    def __repr__(self):
        return "LaurentMatrix(" + ", ".join(
            "[" + ", ".join(repr(x) for x in row) + "]" for row in self.rows) + ")"
