"""GaussianRational on reduced integer triples against the Fraction-pair form.

``PairGaussianRational`` below is the earlier representation, frozen: two
Fractions, each operation done part by part in Fraction arithmetic.  The
current class holds (a + b i) / d as three ints in lowest terms.  Every
operator, with GaussianRational, int and Fraction on either side, must give
the same type and repr as the reference; so must ``**`` with negative
exponents, division by zero (exception and message), hashing, ``str``,
``complex``, ``bool``, ``conjugate``, ``abs2`` and pickling.  The exact
linear algebra and Schur evaluations built on the scalars must give
``==``-equal values of the same type as the same computations over the
reference scalars.
"""

import copy
import operator
import pickle
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from entrywise.backends import GaussianRational, det_exact, solve_exact
from entrywise.partitions import hook_partition
from entrywise.schur import hook_values, schur_eval


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class PairGaussianRational:
    """The Fraction-pair GaussianRational, as it was before the integer triple."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __init__(self, re=Fraction(0), im=Fraction(0)):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __repr__(self):
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def __add__(self, other):
        if isinstance(other, PairGaussianRational):
            return PairGaussianRational(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return PairGaussianRational(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, PairGaussianRational):
            return PairGaussianRational(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Fraction)):
            return PairGaussianRational(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return PairGaussianRational(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, PairGaussianRational):
            a, b, c, d = self.re, self.im, other.re, other.im
            return PairGaussianRational(a * c - b * d, a * d + b * c)
        if isinstance(other, (int, Fraction)):
            return PairGaussianRational(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, PairGaussianRational):
            a, b, c, d = self.re, self.im, other.re, other.im
            norm = c * c + d * d
            if not norm:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return PairGaussianRational((a * c + b * d) / norm, (b * c - a * d) / norm)
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return PairGaussianRational(self.re / other, self.im / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return PairGaussianRational(other) / self
        return NotImplemented

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return PairGaussianRational(Fraction(1)) / self ** (-exponent)
        result = self if exponent else PairGaussianRational(Fraction(1))
        for bit in bin(exponent)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __neg__(self):
        return PairGaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, PairGaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def conjugate(self):
        return PairGaussianRational(self.re, -self.im)

    def abs2(self):
        return self.re * self.re + self.im * self.im

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __str__(self):
        if not self.im:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def _ref(value):
    """The reference counterpart of an exact scalar (ints and Fractions are shared)."""
    if isinstance(value, GaussianRational):
        return PairGaussianRational(value.re, value.im)
    if isinstance(value, list):
        return [_ref(v) for v in value]
    return value


def _type_name(value) -> str:
    if isinstance(value, GaussianRational):
        # the triple is canonical: it equals the one built from the parts
        assert value == GaussianRational(value.re, value.im)
    if isinstance(value, (GaussianRational, PairGaussianRational)):
        return "GaussianRational"
    return type(value).__name__


def _same(got, want) -> bool:
    """Same type (the reference class read as GaussianRational) and same repr."""
    return (_type_name(got), repr(got)) == (_type_name(want), repr(want))


def _exact_key(value):
    """(type, re, im) of an exact value: == with the same type."""
    if isinstance(value, (GaussianRational, PairGaussianRational)):
        return _type_name(value), value.re, value.im
    return type(value).__name__, value, 0


def _gaussian(rng):
    """A random GaussianRational: zero, pure real, pure imaginary or general,
    with negative parts and shared or distinct denominators."""
    kind = rng.choice(("zero", "real", "imaginary", "general", "general", "common"))
    re = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
    im = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
    if kind == "zero":
        re = im = Fraction(0)
    elif kind == "real":
        im = Fraction(0)
    elif kind == "imaginary":
        re = Fraction(0)
    elif kind == "common":
        den = rng.randint(1, 12)
        re, im = Fraction(rng.randint(-30, 30), den), Fraction(rng.randint(-30, 30), den)
    return GaussianRational(re, rng.choice((im, int(im)) if im.denominator == 1 else (im,)))


def _operand(rng):
    kind = rng.choice(("gaussian", "gaussian", "int", "fraction"))
    if kind == "int":
        return rng.choice((0, 1, -1, rng.randint(-20, 20)))
    if kind == "fraction":
        return rng.choice((Fraction(0), Fraction(rng.randint(-20, 20), rng.randint(1, 15))))
    return _gaussian(rng)


def _outcome(op, x, y):
    try:
        return op(x, y)
    except ZeroDivisionError as exc:
        return ("ZeroDivisionError", str(exc))


OPERATORS = (operator.add, operator.sub, operator.mul, operator.truediv)


@pytest.mark.parametrize("seed", range(4))
def test_operators_match_reference(seed):
    rng = random.Random(seed)
    for _ in range(600):
        x, y = _operand(rng), _operand(rng)
        if not isinstance(x, GaussianRational) and not isinstance(y, GaussianRational):
            x = _gaussian(rng)
        for op in OPERATORS:
            got, want = _outcome(op, x, y), _outcome(op, _ref(x), _ref(y))
            assert _same(got, want), (op.__name__, x, y)
        assert (x == y) is (_ref(x) == _ref(y))
        assert (x != y) is (_ref(x) != _ref(y))


def test_division_by_zero_matches_reference():
    zeros = (0, Fraction(0), GaussianRational(), GaussianRational(0, 0))
    for x in (GaussianRational(Fraction(3, 4), -2), GaussianRational(), 5, Fraction(-1, 3)):
        for zero in zeros:
            if not isinstance(x, GaussianRational) and not isinstance(zero, GaussianRational):
                continue
            with pytest.raises(ZeroDivisionError) as got:
                x / zero
            with pytest.raises(ZeroDivisionError) as want:
                _ref(x) / _ref(zero)
            assert str(got.value) == str(want.value) == "division by zero Gaussian rational"
    for k in (-1, -4):
        with pytest.raises(ZeroDivisionError, match="division by zero Gaussian rational"):
            GaussianRational() ** k


@pytest.mark.parametrize("seed", range(3))
def test_powers_match_reference(seed):
    rng = random.Random(seed)
    for _ in range(80):
        x = _gaussian(rng)
        for k in range(-5, 9):
            if k < 0 and not x:
                continue
            assert _same(x**k, _ref(x) ** k), (x, k)


@pytest.mark.parametrize("seed", range(3))
def test_unary_and_conversions_match_reference(seed):
    rng = random.Random(seed)
    for _ in range(400):
        x = _gaussian(rng)
        r = _ref(x)
        assert _same(x, r)
        assert _same(-x, -r)
        assert _same(x.conjugate(), r.conjugate())
        assert _same(x.abs2(), r.abs2())
        assert str(x) == str(r)
        got, want = complex(x), complex(r)
        assert (repr(got.real), repr(got.imag)) == (repr(want.real), repr(want.imag))
        assert bool(x) is bool(r)
        assert hash(x) == hash(r)
        assert (type(x.re), type(x.im)) == (Fraction, Fraction)
        assert (x.re, x.im) == (r.re, r.im)
        for y in (x, x * 1):
            assert _same(pickle.loads(pickle.dumps(y)), r) and _same(copy.deepcopy(y), r)


def test_arithmetic_results_read_as_fractions():
    x = GaussianRational(Fraction(1, 6), Fraction(-1, 4)) * 6
    r = PairGaussianRational(Fraction(1, 6), Fraction(-1, 4)) * 6
    assert (type(x.re), type(x.im)) == (Fraction, Fraction)
    assert (x.re, x.im) == (r.re, r.im) == (Fraction(1), Fraction(-3, 2))
    assert _same(x, r)


def test_hash_matches_equal_ints_and_fractions():
    rng = random.Random(11)
    for _ in range(300):
        value = rng.choice((rng.randint(-50, 50), Fraction(rng.randint(-50, 50), rng.randint(1, 20))))
        one_i = GaussianRational(0, 1)
        for z in (GaussianRational(value), GaussianRational(value) * 3 / 3, GaussianRational(value, 1) - one_i):
            assert z == value and value == z
            assert hash(z) == hash(value) == hash(_ref(z))
            assert len({z, value}) == 1


# --- exact linear algebra and Schur values over the reference scalars --------


def reference_det(rows):
    """Bareiss determinant in the scalars' own arithmetic (ints read as Fractions)."""
    m = [[Fraction(v) if isinstance(v, int) else v for v in row] for row in rows]
    n = len(m)
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


def reference_solve(rows, rhs):
    """Cramer's rule over reference_det."""
    d = reference_det(rows)
    if d == 0:
        raise ValueError("singular matrix")
    solution = []
    for col in range(len(rows)):
        replaced = [list(row) for row in rows]
        for i, b in enumerate(rhs):
            replaced[i][col] = b
        solution.append(reference_det(replaced) / d)
    return solution


def reference_schur(parts, x):
    """Jacobi-Trudi determinant of h values in the point's own arithmetic."""
    n = len(x)
    if n == 0 or parts[0] == 0:
        return 1
    kmax = parts[0] + n - 1
    h = [1] + [0] * kmax  # h_k(x_1..x_m) = h_k(x_1..x_{m-1}) + x_m h_{k-1}(x_1..x_m)
    for xi in x:
        for k in range(1, kmax + 1):
            h[k] = h[k] + xi * h[k - 1]
    rows = [[h[parts[i] - i + j] if parts[i] - i + j >= 0 else 0 for j in range(n)] for i in range(n)]
    return reference_det(rows)


def _scalar(rng, kind):
    if kind == "mixed":
        kind = rng.choice(("int", "fraction", "gaussian"))
    if kind == "int":
        return rng.randint(-6, 6)
    if kind == "fraction":
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return _gaussian(rng)


@pytest.mark.parametrize("kind", ("int", "fraction", "gaussian", "mixed"))
def test_det_and_solve_match_reference_scalars(kind):
    rng = random.Random(kind)
    singular = 0
    for n in range(7):
        for _ in range(10):
            A = [[_scalar(rng, kind) for _ in range(n)] for _ in range(n)]
            if n >= 2 and rng.random() < 0.25:
                A[-1] = list(A[0])
            b = [_scalar(rng, kind) for _ in range(n)]
            assert _exact_key(det_exact(A)) == _exact_key(reference_det(_ref(A)))
            try:
                want = reference_solve(_ref(A), _ref(b))
            except ValueError:
                singular += 1
                with pytest.raises(ValueError):
                    solve_exact(A, b)
                continue
            assert [_exact_key(v) for v in solve_exact(A, b)] == [_exact_key(v) for v in want]
    assert singular > 0


@pytest.mark.parametrize("kind", ("int", "fraction", "gaussian", "mixed"))
def test_schur_values_match_reference_scalars(kind):
    rng = random.Random(kind)
    for N in range(1, 5):
        for M in range(N, N + 4):
            for _ in range(3):
                x = [_scalar(rng, kind) for _ in range(N)]
                if N >= 2 and rng.random() < 0.25:
                    x[-1] = x[0]  # a repeated coordinate
                hooks = [hook_partition(M, N, j) for j in range(N)]
                want = [_exact_key(reference_schur(tuple(lam), _ref(x))) for lam in hooks]
                assert [_exact_key(v) for v in hook_values(M, [x])[0]] == want, (x, M)
                assert [_exact_key(schur_eval(lam, x)) for lam in hooks] == want, (x, M)
