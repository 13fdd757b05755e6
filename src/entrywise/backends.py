"""Scalar backends: exact Gaussian-rational arithmetic and tolerance-based floats.

Exact scalars are ``int``, ``fractions.Fraction``, or :class:`GaussianRational`
(complex numbers whose real and imaginary parts are both rational).  Floating
scalars are plain ``float``/``complex``; equality on that side always goes
through :func:`approx_eq` with a magnitude-scaled tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

DEFAULT_TOL = 1e-9


class Backend(Enum):
    """Scalar domain tag used by matrix I/O and the CLI."""

    EXACT = "exact-gaussian-rational"
    FLOAT = "complex-double"


@dataclass(frozen=True, eq=False)
class GaussianRational:
    """Complex scalar with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    @staticmethod
    def _coerce(value):
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(Fraction(value))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        norm = other.abs2()
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        num = self * other.conjugate()
        return GaussianRational(num.re / norm, num.im / norm)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return GaussianRational(Fraction(1)) / self ** (-exponent)
        result = GaussianRational(Fraction(1))
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self.re == coerced.re and self.im == coerced.im

    def __hash__(self):
        return hash((self.re, self.im))

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


def _coerce_exact(value):
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (Fraction, GaussianRational)):
        return value
    raise TypeError(f"exact backend scalar required, got {type(value).__name__}")


def det_exact(rows):
    """Determinant by fraction-free (Bareiss) elimination over exact scalars.

    Intermediate divisions are exact, which keeps entry growth polynomial
    instead of exponential; input entries may mix ints, Fractions, and
    Gaussian rationals.
    """
    m = [[_coerce_exact(v) for v in row] for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("square matrix required")
    if n == 0:
        return Fraction(1)
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = Fraction(0)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def solve_exact(rows, rhs):
    """Exact linear solve via Cramer's rule; raises ValueError on singular input."""
    n = len(rows)
    d = det_exact(rows)
    if d == 0:
        raise ValueError("singular matrix")
    solution = []
    for col in range(n):
        replaced = [list(row) for row in rows]
        for i in range(n):
            replaced[i][col] = rhs[i]
        solution.append(det_exact(replaced) / d)
    return solution
