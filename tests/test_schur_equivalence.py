"""The stacked Jacobi-Trudi kernel against the one-determinant-per-value routes.

`schur._jacobi_trudi` evaluates many shapes at many points at once: float
points share one stacked determinant over a table of h values, and exact
points are eliminated over Gaussian integers.  The references below are the
routes it replaced, evaluating one shape at one point:

- float: h_0..h_k by `complete_homogeneous` at the point, then one
  `np.linalg.det` of the complex Jacobi-Trudi matrix, whose real part is
  returned unless a coordinate is complex;
- exact: `det_exact` of the Jacobi-Trudi matrix built from h values in the
  point's own (int, Fraction, GaussianRational) arithmetic.

Float hook values (`hook_values`) take no determinant: their reference is
the branching recurrence run one point at a time on Python complex numbers.

Float values must agree by type and repr (the same bits), exact values by
`==` and type.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from entrywise.backends import GaussianRational, all_exact, det_exact
from entrywise.hadamard import cauchy_binet_rhs
from entrywise.partitions import Partition, StrictTuple, hook_partition, staircase_complement
from entrywise.schur import _jacobi_trudi, hook_values, schur_eval, vandermonde_det
from test_schur import assert_within_hook_bound


def complete_homogeneous(x, kmax: int):
    """Values h_0(x), ..., h_kmax(x) by the one-variable-at-a-time recurrence.

    h_k over the first m variables satisfies
    h_k(x_1..x_m) = h_k(x_1..x_{m-1}) + x_m * h_{k-1}(x_1..x_m),
    so a single in-place ascending sweep per variable suffices.  Exact over
    rationals; numerically stable for floats (no alternating sums).
    """
    h = [1] + [0] * kmax
    for xi in x:
        for k in range(1, kmax + 1):
            h[k] = h[k] + xi * h[k - 1]
    return h


def ref_schur_eval(lam, x):
    parts = tuple(int(p) for p in lam)
    xs = list(x)
    n = len(xs)
    if len(parts) != n:
        raise ValueError(f"partition length {len(parts)} != point length {n}")
    if n == 0 or parts[0] == 0:
        return 1
    h = complete_homogeneous(xs, parts[0] + n - 1)
    rows = [
        [h[parts[i] - i + j] if parts[i] - i + j >= 0 else 0 for j in range(n)]
        for i in range(n)
    ]
    if all_exact(xs):
        return det_exact(rows)
    value = np.linalg.det(np.asarray(rows, dtype=complex))
    has_complex = any(isinstance(v, complex) or np.iscomplexobj(v) for v in xs)
    return value if has_complex else value.real


def ref_cauchy_binet_rhs(coeffs_by_exponent, u, v):
    exponents = sorted(coeffs_by_exponent)
    n = len(u)
    if len(exponents) < n:
        return 0
    total = 0
    for subset in combinations(exponents, n):
        lam = staircase_complement(StrictTuple(tuple(sorted(subset, reverse=True))))
        prod_c = math.prod(coeffs_by_exponent[e] for e in subset)
        total = total + ref_schur_eval(lam, u) * ref_schur_eval(lam, v) * prod_c
    return vandermonde_det(u) * vandermonde_det(v) * total


def ref_float_hooks(M, x):
    """The hook values at one float point by the branching rule
    T'[a][b] = T[a][b] + z (T[a][b-1] + T'[a-1][b]) on Python complex
    numbers; real parts unless a coordinate is complex."""
    N = len(x)
    arm = M - N + 1
    T = [[1] + [0] * (N - 1)] + [[0] * N for _ in range(arm)]
    for z in map(complex, x):
        for a in range(1, arm + 1):
            for b in range(N - 1, -1, -1):
                w = T[a][b - 1] + T[a - 1][b] if b else T[a - 1][b]
                T[a][b] = T[a][b] + z * w
    row = T[arm][::-1]
    complex_point = any(isinstance(v, complex) or np.iscomplexobj(v) for v in x)
    return row if complex_point else [v.real for v in row]


def _same_float(a, b) -> bool:
    return type(a) is type(b) and repr(a) == repr(b)


def _float_point(rng, N):
    """One point of a random kind: real, complex, numpy scalars, a repeated
    or zero coordinate, ints mixed with floats, or (rarely) all ints."""
    kind = rng.choice(("real", "complex", "numpy", "repeated", "zero", "int-float", "int"))
    if kind == "int":
        return [rng.randint(-3, 3) for _ in range(N)]
    if kind == "complex":
        x = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(N)]
        if rng.random() < 0.5:  # a real coordinate among complex ones
            x[rng.randrange(N)] = rng.uniform(-2, 2)
        return x
    if kind == "numpy":
        arr = np.array([rng.uniform(-2, 2) for _ in range(N)])
        if rng.random() < 0.5:
            arr = arr + 1j * np.array([rng.uniform(-1, 1) for _ in range(N)])
        return list(arr)
    x = [rng.uniform(-2, 2) for _ in range(N)]
    if kind == "repeated" and N > 1:
        x[rng.randrange(1, N)] = x[0]
    elif kind == "zero":
        x[rng.randrange(N)] = rng.choice((0.0, 0, -0.0))
    elif kind == "int-float":
        for i in rng.sample(range(N), rng.randint(1, N - 1) if N > 1 else 0):
            x[i] = rng.randint(-3, 3)
    return x


def _shapes(rng, M, N):
    """A few partitions with N parts and first part at most M, a zero shape among them."""
    shapes = [Partition((0,) * N)] if rng.random() < 0.2 else []
    for _ in range(rng.randint(1, 4)):
        shapes.append(Partition(tuple(sorted((rng.randint(0, M) for _ in range(N)), reverse=True))))
    return shapes


def test_float_hook_values_and_shapes_match_one_determinant_per_value():
    rng = random.Random(2016)
    calls = mismatches = 0
    for _ in range(1600):
        N = rng.randint(1, 5)
        M = rng.randint(N, N + 7)
        points = [_float_point(rng, N) for _ in range(rng.randint(1, 5))]
        hooks = [hook_partition(M, N, j) for j in range(N)]
        rows = hook_values(M, points)
        for x, row in zip(points, rows):
            if all_exact(x):
                ref = [ref_schur_eval(mu, x) for mu in hooks]
                assert row == ref and [type(v) for v in row] == [type(v) for v in ref]
            else:
                mismatches += sum(not _same_float(a, b) for a, b in zip(row, ref_float_hooks(M, x)))
                assert_within_hook_bound(M, [x], [row])
        shapes = _shapes(rng, M, N)
        grid = _jacobi_trudi(shapes, points)
        for x, row in zip(points, grid):
            for lam, value in zip(shapes, row):
                ref = ref_schur_eval(lam, x)
                if all_exact(x):
                    assert value == ref and type(value) is type(ref)
                else:
                    mismatches += not _same_float(value, ref)
        x = points[0]
        mismatches += not _same_float(schur_eval(shapes[-1], x), ref_schur_eval(shapes[-1], x))
        calls += 3
    assert calls >= 3000
    assert mismatches == 0


def test_float_cauchy_binet_rhs_matches_per_subset_determinants():
    rng = random.Random(1504)
    for _ in range(300):
        N = rng.randint(1, 4)
        exponents = rng.sample(range(N + 6), rng.randint(N, N + 3))
        coeffs = {e: rng.choice((1, 2.5, -0.75, Fraction(1, 3))) for e in exponents}
        u, v = _float_point(rng, N), _float_point(rng, N)
        got, ref = cauchy_binet_rhs(coeffs, u, v), ref_cauchy_binet_rhs(coeffs, u, v)
        if all_exact(u) and all_exact(v) and all_exact(coeffs.values()):
            assert got == ref and type(got) is type(ref)
        else:
            assert _same_float(got, ref)


def _exact_point(rng, kind, N):
    """An exact point of one kind, sometimes with repeated or zero coordinates."""

    def part():
        return rng.choice((Fraction(0), Fraction(rng.randint(-5, 5), rng.randint(1, 6))))

    def scalar():
        k = rng.choice(("int", "fraction", "gaussian")) if kind == "mixed" else kind
        if k == "int":
            return rng.randint(-3, 3)
        return part() if k == "fraction" else GaussianRational(part(), part())

    x = [scalar() for _ in range(N)]
    if N > 1 and rng.random() < 0.3:
        x[rng.randrange(1, N)] = x[0]
    if rng.random() < 0.2:
        x[rng.randrange(N)] = 0
    return x


@pytest.mark.parametrize("kind", ["int", "fraction", "gaussian", "mixed"])
def test_exact_schur_values_match_det_exact(kind):
    rng = random.Random(kind)
    for _ in range(80):
        N = rng.randint(1, 5)
        M = rng.randint(N, N + 4)
        points = [_exact_point(rng, kind, N) for _ in range(rng.randint(1, 3))]
        shapes = _shapes(rng, M, N)
        for x, row in zip(points, _jacobi_trudi(shapes, points)):
            for lam, value in zip(shapes, row):
                ref = ref_schur_eval(lam, x)
                assert value == ref and type(value) is type(ref), (lam, x)
        coeffs = {e: rng.choice((1, Fraction(2, 3), GaussianRational(1, 1))) for e in range(N + 2)}
        u, v = points[0], _exact_point(rng, kind, N)
        got, ref = cauchy_binet_rhs(coeffs, u, v), ref_cauchy_binet_rhs(coeffs, u, v)
        assert got == ref and type(got) is type(ref)


def test_exact_zero_pivot_shapes_give_the_fraction_zero():
    # all coordinates equal: s_(1,1) = e_2 and the JT matrix [[h1, h2], [1, h1]]
    # keeps its pivots; at the zero point every h_k (k >= 1) vanishes, so the
    # first pivot is zero and det_exact's rule gives the Fraction 0
    zero = GaussianRational()
    for x in ([0, 0], [Fraction(0), Fraction(0)], [zero, zero], [zero, 0]):
        for lam in (Partition((1, 1)), Partition((2, 1)), Partition((3, 0))):
            (value,), = _jacobi_trudi([lam], [x])
            ref = ref_schur_eval(lam, x)
            assert value == ref and type(value) is type(ref)
    ((value,),) = _jacobi_trudi([Partition((1, 1))], [[0, 0]])
    assert value == 0 and type(value) is Fraction
    # a point mixing exact and float calls keeps each point's own route
    rows = _jacobi_trudi([Partition((2, 1))], [[1, 2], [1.0, 2.0], [GaussianRational(0, 1), 1]])
    assert type(rows[0][0]) is Fraction and rows[0][0] == 6
    assert type(rows[1][0]) is np.float64
    assert type(rows[2][0]) is GaussianRational


def test_ragged_points_raise():
    with pytest.raises(ValueError, match="partition length 2 != point length 1"):
        hook_values(3, [[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError, match="partition length 2 != point length 3"):
        hook_values(3, [[1, 2], [1, 2, 3]])
    with pytest.raises(ValueError, match="partition length 2 != point length 3"):
        _jacobi_trudi([Partition((2, 1))], [[1.0, 2.0], [1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        schur_eval(Partition((2, 1)), [0.5])
