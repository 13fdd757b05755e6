"""Scalar backends: exact Gaussian-rational arithmetic and tolerance-based floats.

Exact scalars are ``int``, ``fractions.Fraction``, or :class:`GaussianRational`
(complex numbers whose real and imaginary parts are both rational).  A
GaussianRational holds (a + b i) / d as one reduced triple of ints, d > 0 and
gcd(a, b, d) = 1: the form is canonical, so equality compares triples, and
each operation is a few integer products and one gcd.  Its ``re`` and ``im``
read as Fractions.  Floating scalars are plain ``float``/``complex``;
equality on that side always goes through :func:`approx_eq` with a
magnitude-scaled tolerance.

Exact determinants and linear solves share one fraction-free (Bareiss)
elimination over Gaussian integers held as pairs of Python ints.  Each row is
first multiplied by the lcm of its denominators.  :func:`det_exact` divides
its last pivot once by the product of these row scales; :func:`solve_exact`
needs no such division, since row scales leave the solution unchanged.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd, lcm

DEFAULT_TOL = 1e-9


class Backend(Enum):
    """Scalar domain tag used by matrix I/O and the CLI."""

    EXACT = "exact-gaussian-rational"
    FLOAT = "complex-double"


class GaussianRational:
    """Complex scalar with exact rational real and imaginary parts.

    The value (a + b i) / d is held as three ints with d > 0 and
    gcd(a, b, d) = 1, so equal values have equal triples; arithmetic works on
    the ints with one gcd per result.  ``re`` and ``im`` are Fractions: the
    ones given to the constructor, else built on access.
    """

    __slots__ = ("_t", "_parts")

    def __init__(self, re=Fraction(0), im=Fraction(0)):
        # parts that are already Fractions are kept as they are
        re = re if type(re) is Fraction else Fraction(re)
        im = im if type(im) is Fraction else Fraction(im)
        q, s = re.denominator, im.denominator
        d = lcm(q, s)
        # both parts are reduced, so over the lcm of their denominators gcd(a, b, d) = 1
        self._t = (re.numerator * (d // q), im.numerator * (d // s), d)
        self._parts = (re, im)

    @property
    def re(self) -> Fraction:
        return self._parts[0] if self._parts else Fraction(self._t[0], self._t[2])

    @property
    def im(self) -> Fraction:
        return self._parts[1] if self._parts else Fraction(self._t[1], self._t[2])

    def __add__(self, other):
        t = _triple(other)
        if t is None:
            return NotImplemented
        (a, b, d), (c, e, f) = self._t, t
        return _reduced(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        t = _triple(other)
        if t is None:
            return NotImplemented
        (a, b, d), (c, e, f) = self._t, t
        return _reduced(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other):
        t = _triple(other)
        if t is None:
            return NotImplemented
        (a, b, d), (c, e, f) = self._t, t
        return _reduced(c * d - a * f, e * d - b * f, d * f)

    def __mul__(self, other):
        t = _triple(other)
        if t is None:
            return NotImplemented
        (a, b, d), (c, e, f) = self._t, t
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        t = _triple(other)
        if t is None:
            return NotImplemented
        (a, b, d), (c, e, f) = self._t, t
        # (a + bi)/d over (c + ei)/f is (a + bi)(c - ei) f / (d (c^2 + e^2))
        norm = c * c + e * e
        if not norm:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, d * norm)

    def __rtruediv__(self, other):
        t = _triple(other)
        if t is None:
            return NotImplemented
        return _from_triple(*t) / self

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return _from_triple(1, 0, 1) / self ** (-exponent)
        # binary ladder from the leading bit: no product with 1, no spare square
        result = self if exponent else _from_triple(1, 0, 1)
        for bit in bin(exponent)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __neg__(self):
        a, b, d = self._t
        return _from_triple(-a, -b, d)

    def __eq__(self, other):
        # triples are canonical, and so are those of ints and Fractions
        t = _triple(other)
        return NotImplemented if t is None else self._t == t

    def __hash__(self):
        # equal to an int or Fraction of the same value, so hash as that value
        re, im = self.re, self.im
        return hash((re, im)) if im else hash(re)

    def __bool__(self):
        return bool(self._t[0] or self._t[1])

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def conjugate(self) -> "GaussianRational":
        a, b, d = self._t
        return _from_triple(a, -b, d)

    def abs2(self) -> Fraction:
        """Squared modulus, exact."""
        a, b, d = self._t
        return Fraction(a * a + b * b, d * d)

    def __complex__(self) -> complex:
        a, b, d = self._t
        # int true division rounds correctly, as float() of a Fraction does
        return complex(a / d, b / d)

    def __str__(self) -> str:
        if not self._t[1]:
            return str(self.re)
        sign = "+" if self._t[1] >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


_new = object.__new__


def _from_triple(a: int, b: int, d: int) -> GaussianRational:
    """The GaussianRational (a + b i) / d of a canonical triple: d > 0, gcd(a, b, d) = 1."""
    z = _new(GaussianRational)
    z._t = (a, b, d)
    z._parts = None
    return z


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b i) / d for d > 0, divided by gcd(a, b, d)."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _from_triple(a, b, d)


def _triple(value):
    """(a, b, d) with value = (a + b i) / d canonical, or None for a non-exact value."""
    if isinstance(value, GaussianRational):
        return value._t
    if isinstance(value, int):
        return value, 0, 1
    if isinstance(value, Fraction):
        return value.numerator, 0, value.denominator
    return None


EXACT_TYPES = (int, Fraction, GaussianRational)


def is_exact(value) -> bool:
    return isinstance(value, EXACT_TYPES)


def all_exact(values) -> bool:
    return all(is_exact(v) for v in values)


def approx_eq(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Magnitude-scaled comparison for floating scalars."""
    fa, fb = complex(a), complex(b)
    return abs(fa - fb) <= tol * max(1.0, abs(fa), abs(fb))


def _square(rows) -> list:
    m = [list(row) for row in rows]
    if any(len(row) != len(m) for row in m):
        raise ValueError("square matrix required")
    return m


def _gaussian_integer_rows(m):
    """Rows of exact scalars as Gaussian integers, each row times its scale.

    A row's scale is the lcm of the denominators of its entries.  Returns the
    real parts, the imaginary parts, the product of the row scales and
    whether any entry is a GaussianRational (the type the result takes).
    """
    re, im, scale, gaussian = [], [], 1, False
    for row in m:
        triples = [_triple(v) for v in row]
        if None in triples:
            bad = row[triples.index(None)]
            raise TypeError(f"exact backend scalar required, got {type(bad).__name__}")
        gaussian = gaussian or any(isinstance(v, GaussianRational) for v in row)
        d = lcm(*(t[2] for t in triples))
        re.append([a * (d // e) for a, _, e in triples])
        im.append([b * (d // e) for _, b, e in triples])
        scale *= d
    return re, im, scale, gaussian


def _quotient(a, b, c, d) -> tuple:
    """(a + bi) / (c + di) for Gaussian integers whose quotient is one."""
    if not d:
        return a // c, b // c
    norm = c * c + d * d
    return (a * c + b * d) // norm, (b * c - a * d) // norm


def _rational(a, b, c, d, gaussian: bool):
    """(a + bi) / (c + di) for Gaussian integers, as a GaussianRational when
    gaussian, else as a Fraction (b and d are then 0)."""
    if d:
        a, b, c = a * c + b * d, b * c - a * d, c * c + d * d
    if not gaussian:
        return Fraction(a, c)
    if c < 0:
        a, b, c = -a, -b, -c
    return _reduced(a, b, c)


def _eliminate(re, im) -> int:
    """Fraction-free (Bareiss 1968) forward pass over Gaussian integers, in place.

    re and im hold the real and imaginary parts of n rows of width >= n.
    Pivots come from the first n columns; every division is an exact
    Gaussian-integer quotient.  Returns the sign of the row swaps, or 0 when
    one of the first n - 1 pivot columns is zero.
    """
    n = len(re)
    sign = 1
    qr, qi = 1, 0  # the previous pivot
    for k in range(n - 1):
        if not (re[k][k] or im[k][k]):
            i = next((i for i in range(k + 1, n) if re[i][k] or im[i][k]), None)
            if i is None:
                return 0
            re[k], re[i] = re[i], re[k]
            im[k], im[i] = im[i], im[k]
            sign = -sign
        kr, ki = re[k], im[k]
        pr, pi = kr[k], ki[k]
        # dividing by the previous pivot q: times conj(q), then // |q|^2 (// q when real)
        cr, ci, norm = (qr, qi, qr * qr + qi * qi) if qi else (1, 0, qr)
        for rr, ri in zip(re[k + 1 :], im[k + 1 :]):
            ar, ai = rr[k], ri[k]
            for j in range(k + 1, len(rr)):
                xr = rr[j] * pr - ri[j] * pi - ar * kr[j] + ai * ki[j]
                xi = rr[j] * pi + ri[j] * pr - ar * ki[j] - ai * kr[j]
                rr[j] = (xr * cr + xi * ci) // norm
                ri[j] = (xi * cr - xr * ci) // norm
        qr, qi = pr, pi
    return sign


def det_exact(rows):
    """Determinant of exact scalars (ints, Fractions, Gaussian rationals).

    Each row is scaled to Gaussian integers and eliminated fraction-free; the
    last pivot divided once by the product of the row scales is the result.
    It is a GaussianRational when any entry is one, else a Fraction; a zero
    pivot column before the last gives the Fraction 0.
    """
    m = _square(rows)
    if not m:
        return Fraction(1)
    re, im, scale, gaussian = _gaussian_integer_rows(m)
    sign = _eliminate(re, im)
    if not sign:
        return Fraction(0)
    return _rational(sign * re[-1][-1], sign * im[-1][-1], scale, 0, gaussian)


def solve_exact(rows, rhs):
    """Exact solve of A x = b by eliminating [A | b], then back substitution.

    Row scales leave the solution unchanged, so none is divided out.  With P
    the last pivot, each P x_i is a Gaussian integer; back substitution finds
    them by exact quotients and each x_i is one division by P.  Entries are
    GaussianRationals when any entry of A or b is one, else Fractions.
    Raises ValueError on singular A or when len(rhs) differs from the size of A.
    """
    m = _square(rows)
    n = len(m)
    if len(rhs) != n:
        raise ValueError(f"right-hand side of length {len(rhs)} for a {n}x{n} matrix")
    if not n:
        return []
    for row, b in zip(m, rhs):
        row.append(b)
    re, im, _, gaussian = _gaussian_integer_rows(m)
    if _eliminate(re, im) == 0 or not (re[n - 1][n - 1] or im[n - 1][n - 1]):
        raise ValueError("singular matrix")
    pr, pi = re[n - 1][n - 1], im[n - 1][n - 1]
    yr, yi = [0] * n, [0] * n
    for i in reversed(range(n)):
        rr, ri = re[i], im[i]
        ar = pr * rr[n] - pi * ri[n]
        ai = pr * ri[n] + pi * rr[n]
        for j in range(i + 1, n):
            ar -= rr[j] * yr[j] - ri[j] * yi[j]
            ai -= rr[j] * yi[j] + ri[j] * yr[j]
        yr[i], yi[i] = _quotient(ar, ai, rr[i], ri[i])
    return [_rational(a, b, pr, pi, gaussian) for a, b in zip(yr, yi)]
