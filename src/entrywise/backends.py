"""Scalar backends: exact Gaussian-rational arithmetic and tolerance-based floats.

Exact scalars are ``int``, ``fractions.Fraction``, or :class:`GaussianRational`
(complex numbers whose real and imaginary parts are both rational).  Floating
scalars are plain ``float``/``complex``; equality on that side always goes
through :func:`approx_eq` with a magnitude-scaled tolerance.

Exact determinants and linear solves share one fraction-free (Bareiss)
elimination over Gaussian integers held as pairs of Python ints.  Each row is
first multiplied by the lcm of its denominators.  :func:`det_exact` divides
its last pivot once by the product of these row scales; :func:`solve_exact`
needs no such division, since row scales leave the solution unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm

DEFAULT_TOL = 1e-9


class Backend(Enum):
    """Scalar domain tag used by matrix I/O and the CLI."""

    EXACT = "exact-gaussian-rational"
    FLOAT = "complex-double"


@dataclass(frozen=True, eq=False, slots=True)
class GaussianRational:
    """Complex scalar with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __init__(self, re=Fraction(0), im=Fraction(0)):
        # parts that are already Fractions (every arithmetic result) are kept as they are
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            a, b, c, d = self.re, self.im, other.re, other.im
            return GaussianRational(a * c - b * d, a * d + b * c)
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GaussianRational):
            a, b, c, d = self.re, self.im, other.re, other.im
            norm = c * c + d * d
            if not norm:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return GaussianRational((a * c + b * d) / norm, (b * c - a * d) / norm)
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return GaussianRational(self.re / other, self.im / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other) / self
        return NotImplemented

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return GaussianRational(Fraction(1)) / self ** (-exponent)
        # binary ladder from the leading bit: no product with 1, no spare square
        result = self if exponent else GaussianRational(Fraction(1))
        for bit in bin(exponent)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        # equal to an int or Fraction of the same value, so hash as that value
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus, exact."""
        return self.re * self.re + self.im * self.im

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


EXACT_TYPES = (int, Fraction, GaussianRational)


def is_exact(value) -> bool:
    return isinstance(value, EXACT_TYPES)


def all_exact(values) -> bool:
    return all(is_exact(v) for v in values)


def approx_eq(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Magnitude-scaled comparison for floating scalars."""
    fa, fb = complex(a), complex(b)
    return abs(fa - fb) <= tol * max(1.0, abs(fa), abs(fb))


def _re_im(value) -> tuple:
    """(re, im) of an exact scalar, each an int or a Fraction."""
    if isinstance(value, GaussianRational):
        return value.re, value.im
    if isinstance(value, (int, Fraction)):
        return value, 0
    raise TypeError(f"exact backend scalar required, got {type(value).__name__}")


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
        parts = [_re_im(v) for v in row]
        gaussian = gaussian or any(isinstance(v, GaussianRational) for v in row)
        d = lcm(*(x.denominator for pair in parts for x in pair))
        re.append([a.numerator * (d // a.denominator) for a, _ in parts])
        im.append([b.numerator * (d // b.denominator) for _, b in parts])
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
    if gaussian:
        return GaussianRational(Fraction(a, c), Fraction(b, c))
    return Fraction(a, c)


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
