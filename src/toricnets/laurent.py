"""Exact constant matrices over Q or Q[t^±], as ints over one denominator.

Coefficients come from one exact ring: the rationals, or Q[t_1^±, ...,
t_c^±] (``TPoly``) when the holonomies of a local system are left as
symbols.  The code never calls anything float-specific.

A constant matrix is a ``Constant(rows, den)``: the square matrix
rows / den, with integer rows.  Its canonical form: den is a positive int,
coprime to the entries together, and every t-free integral entry is an
``int``.  A numeric constant has ``int`` entries only; a constant with a
``TPoly`` entry has den 1 (its t-free entries may then be non-integral
``Fraction``s).  ``constant`` brings exact rows to that form, scaling
rational rows once by the lcm of their denominators.  So two constants
are equal exactly when their tuples are, and ``is_identity`` is one tuple
comparison.

A cover has one or two sheets, so ``mat_mul``, ``det`` and ``inverse``
are closed forms for 1 x 1 and 2 x 2 constants and raise ``NotSupported``
on any other size.  ``mat_mul`` is the one product: on int rows the
integer products, one multiply of the denominators and one gcd reduction,
skipped when the denominator is 1; with a ``TPoly`` entry each entry is
one ``_dot``, which collects its terms once.  ``det`` of [[p, q], [r, s]]
is ps - qr, ``inverse`` is den times the adjugate [[s, -q], [-r, p]] over
a unit determinant, and ``substitute`` is the one substitution of
rational holonomies for t.

The coefficient-ring invariant: a ``TPoly`` is never t-free.  Every
``TPoly`` operation whose result does not involve t returns a plain
``Fraction`` instead, so a coefficient is zero exactly when it is falsy;
``constant`` writes such a result as an ``int`` when it is integral.
Inside a ``TPoly`` an integral coefficient is an ``int`` too, and only a
non-integral one a ``Fraction``: the symbolic constants of a local system
lie in Z[t^±], so their products run on ints.

The z-twist of a toric bundle never enters a product: the construction
holds every factor as a constant between two torus frames (see
``nonabelian``).  No Laurent matrix in z is ever formed.  The one written
form of a transition matrix D_j P D_i^-1 is its ``cocycle.json`` term
list, one monomial per nonzero entry of P, which
``nonabelian.KaneyamaCocycle.written`` builds from the constant and the
frames and ``nonabelian.verify_bundle`` certifies.
"""
from __future__ import annotations

import functools
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add
from typing import NamedTuple

from .errors import NotRegular, NotSupported, SizeMismatch


def _entry(x):
    """A t-free integral coefficient as an ``int``, any other as it is."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def _tpoly(terms):
    """A TPoly around ``terms``, which must already be canonical."""
    p = object.__new__(TPoly)
    p.terms = terms
    return p


def _collected(acc):
    """Canonical coefficient from collected sums: zeros dropped, keys
    sorted and integral coefficients as ints; a t-free result is the
    rational itself, an ``int`` when it is integral."""
    terms = {e: _entry(acc[e]) for e in sorted(acc) if acc[e]}
    if len(terms) == 1:
        ((e, c),) = terms.items()
        if not any(e):
            return c
    return _tpoly(terms) if terms else 0


def _tcanonical(c):
    """A canonical coefficient, with a t-free one as a Fraction."""
    return c if type(c) is TPoly else Fraction(c)


class TPoly:
    """A Laurent polynomial sum of c * t^(e) with e in Z^c, c in Q.

    ``terms`` maps exponent tuples, all of one length c, to nonzero
    coefficients, in sorted key order: an ``int`` when it is integral, else
    a ``Fraction``.  It holds at least one nonzero exponent: t-free values
    are plain ``Fraction``s (see the module docstring).  Supports +, -, *,
    == with other TPolys and with rationals, and ``x / m`` for a monomial
    m, the only units of the ring.  A matrix product does not chain these
    operators: ``mat_mul`` collects each entry's terms once (``_dot``).
    """

    __slots__ = ("terms",)

    @staticmethod
    def symbols(c):
        """The generators t_1, ..., t_c."""
        return [_tpoly({tuple(int(i == k) for i in range(c)): 1})
                for k in range(c)]

    def __add__(self, other):
        if not isinstance(other, (TPoly, int, Fraction)):
            return NotImplemented
        return _tcanonical(_dot(self, 1, other, 1))

    __radd__ = __add__

    def __neg__(self):
        return _tpoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is TPoly:
            return _tcanonical(_dot(self, other, 0, 0))
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        # a nonzero rational scales the coefficients; the keys stay sorted
        return _tpoly({e: _entry(c * other) for e, c in self.terms.items()}
                      ) if other else Fraction(0)

    __rmul__ = __mul__

    def __rtruediv__(self, other):
        """``other / self``; only a monomial has an inverse."""
        if len(self.terms) != 1:
            raise NotRegular(f"{self!r} is not a unit of Q[t^±]")
        ((e, c),) = self.terms.items()
        return _tpoly({tuple(-x for x in e): Fraction(1, c)}) * other

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
    """``x`` as an exact coefficient: a TPoly or a Fraction as it is, else
    a Fraction."""
    return x if isinstance(x, (TPoly, Fraction)) else Fraction(x)


def is_unit(c) -> bool:
    """True iff the coefficient c has an inverse: a nonzero rational, or a
    one-term ``TPoly`` (a sum such as 1 + t has none in Q[t^±])."""
    return len(c.terms) == 1 if isinstance(c, TPoly) else c != 0


# -- constant matrices ---------------------------------------------------------

class Constant(NamedTuple):
    """rows / den, in the canonical form of the module docstring."""
    rows: tuple      # r x r tuple of tuples of coefficients
    den: int         # positive common denominator


def _numeric(rows):
    """True iff every entry is an ``int``."""
    for row in rows:
        for x in row:
            if type(x) is not int:
                return False
    return True


def _reduced(rows, den):
    """The constant of int rows (a tuple of tuples) over a positive den:
    one gcd reduction, skipped when den is 1."""
    g = 1 if den == 1 else gcd(den, *chain.from_iterable(rows))
    if g != 1:
        rows = tuple([tuple([x // g for x in row]) for row in rows])
    return Constant(rows, den // g)


def constant(rows, den=1):
    """The canonical constant rows / den, for rows of exact coefficients
    (``int``, ``Fraction`` or ``TPoly``) and a positive int den.

    Rational rows are multiplied to ints once, by the lcm of their
    denominators; rows with a ``TPoly`` entry are divided through by den.
    """
    r = len(rows)
    flat = [x for row in rows for x in row]
    if TPoly in map(type, flat):
        if den != 1:
            q = Fraction(1, den)
            flat = [x * q for x in flat]
        flat, den = list(map(_entry, flat)), 1
    else:
        ratios = [x.as_integer_ratio() for x in flat]
        scale = lcm(*[d for _, d in ratios])
        flat, den = [n * (scale // d) for n, d in ratios], den * scale
    return _reduced(tuple([tuple(flat[k:k + r]) for k in range(0, r * r, r)]),
                    den)


@functools.cache
def identity(r):
    """The r x r identity constant."""
    return Constant(tuple(tuple(int(i == j) for j in range(r))
                          for i in range(r)), 1)


def is_identity(a) -> bool:
    """True iff a is the identity: a comparison of canonical tuples."""
    return a == identity(len(a.rows))


def _dot(x1, y1, x2, y2):
    """x1 y1 + x2 y2 of exact coefficients, canonical: a rational factor
    scales a ``TPoly``'s terms, and every term goes into one dict, brought
    to canonical form once (``_collected``)."""
    acc, scalar = {}, 0
    for x, y in ((x1, y1), (x2, y2)):
        if type(y) is TPoly:
            x, y = y, x         # x is a TPoly if either factor is
        if type(x) is not TPoly:
            scalar += x * y
        elif type(y) is TPoly:
            for e1, c1 in x.terms.items():
                for e2, c2 in y.terms.items():
                    e = tuple(map(add, e1, e2))
                    acc[e] = acc.get(e, 0) + c1 * c2
        elif y:
            for e, c in x.terms.items():
                acc[e] = acc.get(e, 0) + c * y
    if not acc:
        return _entry(scalar)
    if scalar:
        zero = (0,) * len(next(iter(acc)))
        acc[zero] = acc.get(zero, 0) + scalar
    return _collected(acc)


def mat_mul(a, b):
    """The product a b of two constants of one size, 1 or 2.

    On 2 x 2 int rows: the integer products, one multiply of the
    denominators and one gcd reduction.  Otherwise each entry is one
    ``_dot``; rows that hold a ``TPoly`` over den 1 are then canonical as
    they are, and any others go through ``constant``.
    """
    if len(a.rows) != len(b.rows):
        raise SizeMismatch(f"sizes {len(a.rows)} and {len(b.rows)} differ")
    den = a.den * b.den
    if len(a.rows) == 2:
        (p, q), (r, s) = a.rows
        (w, x), (y, z) = b.rows
        if type(p) is type(q) is type(r) is type(s) is type(w) is type(x) \
                is type(y) is type(z) is int:
            return _reduced(((p * w + q * y, p * x + q * z),
                             (r * w + s * y, r * x + s * z)), den)
        rows = ((_dot(p, w, q, y), _dot(p, x, q, z)),
                (_dot(r, w, s, y), _dot(r, x, s, z)))
    elif len(a.rows) == 1:
        rows = ((_dot(a.rows[0][0], b.rows[0][0], 0, 0),),)
    else:
        raise _unsupported(a.rows)
    if den == 1 and TPoly in map(type, chain.from_iterable(rows)):
        return Constant(rows, 1)
    return constant(rows, den)


def _unsupported(rows):
    return NotSupported(f"{len(rows)} x {len(rows)} constant: a cover has "
                        "one or two sheets")


def _adjugate(rows):
    """(adjugate, determinant) of the rows: ([[s, -q], [-r, p]], ps - qr)
    for [[p, q], [r, s]], and ([[1]], p) for [[p]]."""
    if len(rows) == 2:
        (p, q), (r, s) = rows
        return ((s, -q), (-r, p)), _dot(p, s, -q, r)
    if len(rows) == 1:
        return ((1,),), rows[0][0]
    raise _unsupported(rows)


def det(a):
    """The determinant of a constant: an exact coefficient, an ``int``
    when it is t-free and integral."""
    d = _adjugate(a.rows)[1]
    return _entry(d if a.den == 1 else Fraction(d, a.den ** len(a.rows)))


def inverse(a):
    """Exact inverse: den times the adjugate of the rows, over their
    determinant.

    NotRegular unless the determinant is a unit of the coefficient ring.
    """
    adjugate, d = _adjugate(a.rows)
    if not is_unit(d):
        raise NotRegular(f"determinant {det(a)!r} is not a unit")
    if _numeric(a.rows):
        u, d = (a.den, d) if d > 0 else (-a.den, -d)
    else:
        u, d = Fraction(a.den) / d, 1
    return constant([[x * u for x in row] for row in adjugate], d)


def _substitute(c, values):
    """A coefficient with t_k replaced by ``values[k - 1]``: a rational."""
    if not isinstance(c, TPoly):
        return c
    total = Fraction(0)
    for exponents, a in c.terms.items():
        for v, k in zip(values, exponents):
            if k:
                a *= v ** k
        total += a
    return total


def substitute(a, values):
    """The constant with t_k replaced by ``values[k - 1]`` in every entry:
    the substitution homomorphism Q[t^±] -> Q at nonzero rationals."""
    if _numeric(a.rows):
        return a
    values = [Fraction(v) for v in values]
    return constant([[_substitute(c, values) for c in row] for row in a.rows],
                    a.den)
