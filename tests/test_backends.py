"""Exact arithmetic core: Gaussian rationals and one Bareiss elimination.

``det_exact`` and ``solve_exact`` share one fraction-free elimination.  Two
independent references below check them: the previous stand-alone Bareiss
determinant (repr-identical results required) and Cramer's rule (``==`` with
the same type for every entry).
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrywise.backends import (
    GaussianRational,
    approx_eq,
    det_exact,
    is_exact,
    solve_exact,
)


def reference_det(rows):
    """The stand-alone Bareiss determinant that ``det_exact`` replaced."""
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


def cramer_solve(rows, rhs):
    """Cramer's rule: x_j = det(A with column j replaced by b) / det(A)."""
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


def _scalar(rng, kind):
    """A random exact scalar of the given kind, zero one time in four."""
    if kind == "mixed":
        kind = rng.choice(("int", "fraction", "gaussian"))
    zero = rng.random() < 0.25
    if kind == "int":
        return 0 if zero else rng.randint(-5, 5)
    re, im = (Fraction(0) if zero else Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(2))
    return re if kind == "fraction" else GaussianRational(re, im)


def _systems(seed):
    """(kind, A, b) over n = 0..8, a third of them singular by construction:
    a repeated row, an early zero pivot column or a zero last pivot."""
    rng = random.Random(seed)
    for kind in ("int", "fraction", "gaussian", "mixed"):
        for n in range(9):
            for _ in range(6 if n <= 6 else 2):
                A = [[_scalar(rng, kind) for _ in range(n)] for _ in range(n)]
                shape = rng.choice(("random", "random", "random", "repeated", "early", "last"))
                if n >= 2 and shape == "repeated":
                    A[-1] = list(A[0])
                elif n >= 3 and shape == "early":
                    # column 1 a multiple of column 0: the second pivot column is zero
                    for row in A:
                        row[1] = 2 * row[0]
                elif n >= 2 and shape == "last":
                    # last column the sum of the first two: only the last pivot is zero
                    for row in A:
                        row[-1] = row[0] + row[1 % (n - 1)]
                yield kind, A, [_scalar(rng, kind) for _ in range(n)]


def _same(xs, ys):
    return [(type(x), x) for x in xs] == [(type(y), y) for y in ys]


fracs = st.fractions(min_value=-9, max_value=9, max_denominator=9)
gaussians = st.builds(GaussianRational, fracs, fracs)
scalars = st.one_of(st.integers(-5, 5), fracs, gaussians)
systems = st.integers(0, 5).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(scalars, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(scalars, min_size=n, max_size=n),
    )
)


@given(gaussians, gaussians)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(gaussians, gaussians, gaussians)
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(gaussians)
def test_multiplicative_inverse(a):
    if a:
        assert a * (GaussianRational(Fraction(1), Fraction(0)) / a) == 1


@given(gaussians)
def test_conjugate_abs2(a):
    assert a * a.conjugate() == a.abs2()


@given(gaussians)
def test_pow_matches_repeated_product(a):
    p = a * a * a
    assert a**3 == p
    if a:
        assert a**-2 == 1 / (a * a)


def test_pow_multiplication_count(monkeypatch):
    # left-to-right ladder from the leading bit: no multiplication by 1 and
    # no squaring after the last bit
    calls = []
    mul = GaussianRational.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(GaussianRational, "__mul__", counting)
    x = GaussianRational(Fraction(2, 3), Fraction(-1, 5))
    for k, needed in ((1, 0), (2, 1), (3, 2), (8, 3), (9, 4), (15, 6)):
        calls.clear()
        x**k
        assert len(calls) == needed, k


def test_pow_repr_matches_repeated_product():
    one = GaussianRational(Fraction(1))
    for x in (GaussianRational(Fraction(2, 3), Fraction(-1, 5)), GaussianRational(Fraction(-7, 2)), GaussianRational()):
        for k in range(-3, 10):
            if k < 0 and not x:
                with pytest.raises(ZeroDivisionError):
                    x**k
                continue
            product = one
            for _ in range(abs(k)):
                product = product * x
            want = product if k >= 0 else one / product
            assert x**k == want and repr(x**k) == repr(want)


def test_hash_agrees_with_eq():
    for value in (0, 2, -3, Fraction(1, 2), Fraction(-7, 3)):
        z = GaussianRational(value)
        assert z == value and hash(z) == hash(value)
        assert len({z, value}) == 1
    z = GaussianRational(Fraction(1, 2), Fraction(1))
    assert hash(z) == hash(GaussianRational(Fraction(2, 4), 1))
    assert len({z, Fraction(1, 2)}) == 2


def test_scalar_keeps_fraction_parts():
    half = Fraction(1, 2)
    z = GaussianRational(half, 3)
    assert z.re is half
    assert type(z.im) is Fraction and z.im == 3
    assert repr(z) == "GaussianRational(re=Fraction(1, 2), im=Fraction(3, 1))"
    assert not hasattr(z, "__dict__")
    with pytest.raises(AttributeError):
        z.re = Fraction(1)


def test_mixed_coercion():
    z = GaussianRational(Fraction(1, 2), Fraction(3))
    assert z + 1 == GaussianRational(Fraction(3, 2), Fraction(3))
    assert 2 * z == GaussianRational(Fraction(1), Fraction(6))
    assert z - Fraction(1, 2) == GaussianRational(Fraction(0), Fraction(3))
    assert complex(z) == 0.5 + 3j


def test_det_small_cases():
    assert det_exact([]) == 1
    assert det_exact([[Fraction(7)]]) == 7
    m = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert det_exact(m) == -2
    # matrix is not mutated
    assert m[0][0] == 1


def test_det_singular_and_swap():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert det_exact(rows) == 0
    swapped = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert det_exact(swapped) == -1


def test_det_against_float_oracle():
    rng = random.Random(0)
    for n in range(1, 6):
        for _ in range(10):
            m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
            exact = det_exact(m)
            approx = np.linalg.det(np.array(m, dtype=float))
            assert approx_eq(float(exact), approx, 1e-8)


def test_det_gaussian_rational_matches_complex_oracle():
    rng = random.Random(1)
    for _ in range(10):
        m = [
            [
                GaussianRational(
                    Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
                )
                for _ in range(3)
            ]
            for _ in range(3)
        ]
        exact = det_exact(m)
        approx = np.linalg.det(np.array([[complex(x) for x in r] for r in m]))
        assert abs(complex(exact) - approx) <= 1e-8 * max(1.0, abs(approx))


@pytest.mark.parametrize("seed", range(3))
def test_det_matches_reference_repr(seed):
    for _, A, _ in _systems(seed):
        assert repr(det_exact(A)) == repr(reference_det(A))


def test_det_singular_gaussian_keeps_zero_type():
    # a zero last pivot is returned as computed (a Gaussian-rational zero);
    # an earlier zero pivot column gives the Fraction 0
    g = GaussianRational(Fraction(1), Fraction(1))
    late = [[g, g], [g, g]]
    early = [[GaussianRational(), g], [GaussianRational(), g]]
    for A in (late, early):
        assert repr(det_exact(A)) == repr(reference_det(A))
    assert isinstance(det_exact(late), GaussianRational)
    assert type(det_exact(early)) is Fraction


@pytest.mark.parametrize("seed", range(3))
def test_solve_matches_cramer(seed):
    singular = 0
    for _, A, b in _systems(seed):
        try:
            want = cramer_solve(A, b)
        except ValueError:
            singular += 1
            with pytest.raises(ValueError):
                solve_exact(A, b)
            continue
        assert _same(solve_exact(A, b), want)
    assert singular > 0


@settings(max_examples=60, deadline=None)
@given(systems)
def test_det_and_solve_match_references(system):
    A, b = system
    assert repr(det_exact(A)) == repr(reference_det(A))
    try:
        want = cramer_solve(A, b)
    except ValueError:
        with pytest.raises(ValueError):
            solve_exact(A, b)
        return
    assert _same(solve_exact(A, b), want)


def test_solve_matches_cramer_on_vandermonde_moments():
    rng = random.Random(7)
    for N in range(1, 7):
        for M in range(N, N + 3):
            u = [GaussianRational(Fraction(k + 1, 3), Fraction(rng.randint(-4, 4), 5)) for k in range(N)]
            V = [[x**k for k in range(N)] for x in u]
            target = [x**M for x in u]
            assert _same(solve_exact(V, target), cramer_solve(V, target))


def test_solve_fraction_matrix_gaussian_rhs():
    # Cramer divides the Fraction 0 of a minor with a zero pivot column by a
    # Fraction determinant; the elimination carries the Gaussian-rational
    # right-hand side through, so entries agree by value
    A = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    b = [GaussianRational(Fraction(1), Fraction(2)), GaussianRational(), GaussianRational()]
    assert solve_exact(A, b) == cramer_solve(A, b) == b


def test_solve_rhs_length_must_match():
    identity = [[1, 0], [0, 1]]
    assert solve_exact(identity, [1, 2]) == [1, 2]
    for rhs in ([1], [1, 2, 3]):
        with pytest.raises(ValueError, match="right-hand side"):
            solve_exact(identity, rhs)
    assert solve_exact([], []) == []
    with pytest.raises(ValueError):
        solve_exact([], [1])


def test_solve_exact_roundtrip():
    rng = random.Random(2)
    for n in range(1, 5):
        a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
        if det_exact(a) == 0:
            continue
        b = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
        x = solve_exact(a, b)
        for i in range(n):
            assert sum(a[i][j] * x[j] for j in range(n)) == b[i]


def test_solve_exact_singular_raises():
    with pytest.raises(ValueError):
        solve_exact([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], [Fraction(1), Fraction(1)])


def test_is_exact():
    assert is_exact(Fraction(1, 3))
    assert is_exact(GaussianRational(Fraction(0), Fraction(1)))
    assert is_exact(4)
    assert not is_exact(0.5)
    assert not is_exact(1j)
