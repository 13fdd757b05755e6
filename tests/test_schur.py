"""Schur evaluation: Jacobi-Trudi route against the SSYT enumeration oracle.

Hook values come from the branching recurrence.  At exact points
``jacobi_trudi_hooks`` keeps the Jacobi-Trudi route as a reference
(repr-identical results required); float hook values are held to the
forward error bound 4 (N + M) u s_mu(|x|) against the exact values at the
same points, u the unit roundoff.
"""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entrywise import schur
from entrywise.backends import GaussianRational
from entrywise.partitions import Partition, hook_partition
from entrywise.samplers import near_corner_path, random_gaussian_rational_vector
from entrywise.schur import (
    EnumerationBudgetError,
    _hook_table,
    hook_values,
    principal_specialization,
    schur_eval,
    schur_eval_ssyt_oracle,
    ssyt_count,
    vandermonde_det,
)


def jacobi_trudi_hooks(M, points):
    """Hook values as one Jacobi-Trudi determinant per hook."""
    return [[schur_eval(hook_partition(M, len(x), j), x) for j in range(len(x))] for x in points]


U = Fraction(1, 2**53)  # unit roundoff of a double


def _pair(v):
    """(real, imaginary) parts of a float, complex or exact scalar, as Fractions."""
    if isinstance(v, GaussianRational):
        return v.re, v.im
    v = complex(v)
    return Fraction(v.real), Fraction(v.imag)


def assert_within_hook_bound(M, points, rows):
    """Each float hook value within 4 (N + M) u s_mu(|x|) of the exact value
    at the same point, compared exactly (in squares)."""
    for x, row in zip(points, rows):
        N = len(x)
        (exact,) = hook_values(M, [[GaussianRational(*_pair(v)) for v in x]])
        (scale,) = hook_values(M, [[Fraction(abs(complex(v))) for v in x]])
        for got, want, s in zip(row, exact, scale):
            (a, b), (c, d) = _pair(got), _pair(want)
            assert (a - c) ** 2 + (b - d) ** 2 <= (4 * (N + M) * U * s) ** 2, (M, x, got, want)


def _exact_points(rng, kind, N):
    """Points of one kind: random, one repeated coordinate, all equal, all zero."""

    def part():
        return rng.choice((Fraction(0), Fraction(rng.randint(-4, 4), rng.randint(1, 4))))

    def scalar():
        k = rng.choice(("int", "fraction", "gaussian")) if kind == "mixed" else kind
        if k == "int":
            return rng.choice((0, rng.randint(-3, 3)))
        return part() if k == "fraction" else GaussianRational(part(), part())

    x = [scalar() for _ in range(N)]
    repeated = [x[0]] + x[:-1]
    zero = {"int": 0, "fraction": Fraction(0)}.get(kind, GaussianRational())
    return [x, repeated, [x[-1]] * N, [zero] * N]


small_parts = st.lists(st.integers(0, 4), min_size=1, max_size=3).map(
    lambda xs: Partition(tuple(sorted(xs, reverse=True)))
)


def test_frozen_values():
    assert schur_eval(Partition((2, 1)), [1, 1]) == 2
    assert schur_eval(Partition((1, 1)), [2, 3]) == 6  # e_2 = x1 x2
    assert schur_eval(Partition((2, 0)), [2, 3]) == 19  # h_2 = 4 + 6 + 9
    assert schur_eval(Partition(()), []) == 1
    assert schur_eval(Partition((0, 0)), [5, 7]) == 1


def test_complete_homogeneous_recurrence():
    # column 0 of the branching table holds h_0..h_3 at (2, 3), and
    # Jacobi-Trudi reads its h values from there
    h = [1, 5, 19, 65]
    real, imag = _hook_table([2, 3], [0, 0], 3, 0)
    assert [row[0] for row in real] == h and [row[0] for row in imag] == [0] * 4
    assert [schur_eval(Partition((k, 0)), [Fraction(2), Fraction(3)]) for k in range(4)] == h


def test_vandermonde():
    assert vandermonde_det([Fraction(3), Fraction(1)]) == 2
    assert vandermonde_det([1]) == 1


def test_length_mismatch():
    with pytest.raises(ValueError):
        schur_eval(Partition((2, 1)), [1, 2, 3])


@given(small_parts, st.permutations([Fraction(1), Fraction(2), Fraction(5)]))
def test_symmetry_under_permutation(lam, xs):
    lam3 = Partition(tuple(lam.parts) + (0,) * (3 - len(lam.parts)))
    base = schur_eval(lam3, [Fraction(1), Fraction(2), Fraction(5)])
    assert schur_eval(lam3, list(xs)) == base


def test_jacobi_trudi_vs_ssyt_exact():
    """Dual route: determinant evaluation against direct tableau enumeration."""
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 3)
        parts = tuple(sorted((rng.randint(0, 4) for _ in range(n)), reverse=True))
        lam = Partition(parts)
        xs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        assert schur_eval(lam, xs) == schur_eval_ssyt_oracle(lam, xs)


def test_jacobi_trudi_vs_ssyt_complex():
    rng = np.random.default_rng(11)
    for _ in range(10):
        lam = Partition((3, 1, 0))
        xs = list(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        a = schur_eval(lam, xs)
        b = schur_eval_ssyt_oracle(lam, xs)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


def test_hook_schur_at_ones_is_dimension():
    from entrywise.partitions import hook_dimension

    for M in range(2, 7):
        for N in range(1, min(M, 4) + 1):
            for j in range(N):
                lam = hook_partition(M, N, j)
                assert schur_eval(lam, [1] * N) == hook_dimension(M, N, j)


def test_ssyt_count_matches_enumeration():
    for parts in [(2, 1), (3, 0), (2, 2), (4, 2, 1)]:
        lam = Partition(parts)
        n = len(parts)
        count = schur_eval_ssyt_oracle(lam, [1] * n)
        assert ssyt_count(lam, n) == count


def test_ssyt_count_more_rows_than_variables():
    assert ssyt_count(Partition((2, 1, 1)), 2) == 0
    # third variable zero kills every filling that uses all three rows
    assert schur_eval(Partition((2, 1, 1)), [1, 1, 0]) == 0


def test_budget_guard():
    with pytest.raises(EnumerationBudgetError):
        schur_eval_ssyt_oracle(Partition((40, 30, 20, 10)), [1, 1, 1, 1], budget=1000)


def test_principal_specialization_at_one():
    for parts in [(2, 1), (3, 1, 0), (2, 2)]:
        lam = Partition(parts)
        n = len(parts)
        assert principal_specialization(lam, 1, n) == ssyt_count(lam, n)


def test_principal_specialization_dual_route():
    """q-product formula against direct evaluation at (1, q, q^2, ...)."""
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 3)
        parts = tuple(sorted((rng.randint(0, 3) for _ in range(n)), reverse=True))
        lam = Partition(parts)
        q = Fraction(rng.randint(2, 7), rng.randint(1, 3))
        if q == 1:
            continue
        direct = schur_eval(lam, [q**k for k in range(n)])
        assert principal_specialization(lam, q, n) == direct


def test_principal_specialization_vanishing_denominator():
    # z = -1 makes z^3 - z^1 vanish once three variables are in play
    with pytest.raises(ValueError):
        principal_specialization(Partition((1, 0, 0)), -1, 3)


def test_hook_values_match_tableau_oracle():
    rng = random.Random(11)
    for N in range(1, 5):
        for M in range(N, N + 4):
            points = [random_gaussian_rational_vector(rng, N) for _ in range(3)]
            rows = hook_values(M, points)
            assert len(rows) == len(points)
            for x, row in zip(points, rows):
                assert row == [
                    schur_eval_ssyt_oracle(hook_partition(M, N, j), x) for j in range(N)
                ]
                # one point at a time gives the same row
                assert hook_values(M, [x]) == [row]


def test_hook_values_float_rows_match_one_point_calls():
    points = np.random.default_rng(3).uniform(0.1, 1.0, size=(5, 3)).tolist()
    rows = hook_values(5, points)
    assert rows == [hook_values(5, [x])[0] for x in points]
    assert_within_hook_bound(5, points[2:3], rows[2:3])
    assert hook_values(5, []) == []


def test_hook_values_make_no_jacobi_trudi_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("hook_values reached _jacobi_trudi")

    monkeypatch.setattr(schur, "_jacobi_trudi", refuse)
    points = [[0.5, 0.25, 0.125], [1, Fraction(1, 2), 3], [0.5j, 1.0, 2.0]]
    assert len(hook_values(6, points)) == 3
    assert len(hook_values(6, points[:1])) == 1


@pytest.mark.parametrize("N", range(3, 25))
def test_float_hooks_on_the_near_corner_ladder_are_accurate(N):
    # Jacobi-Trudi lost every digit here from N = 24 on (relative error 1e-7
    # at N = 12); the branching recurrence subtracts nothing at positive points
    points = near_corner_path(N, 1.0, [2.0 ** (-k) for k in range(1, 49)]).tolist()
    for M in (N, N + 6):
        exact = hook_values(M, [[Fraction(v) for v in x] for x in points])
        for x, row, want in zip(points, hook_values(M, points), exact):
            for a, b in zip(row, want):
                assert abs(Fraction(a) - b) <= 4 * (N + M) * U * b, (N, M, x)


@given(
    st.integers(1, 14).flatmap(
        lambda N: st.tuples(
            st.integers(N, N + 8),
            st.lists(
                # radii away from the subnormal range, where no relative bound holds
                st.tuples(st.floats(1e-3, 1.0), st.floats(-math.pi, math.pi)),
                min_size=N, max_size=N,
            ),
        )
    )
)
def test_complex_hooks_in_the_unit_disc_are_within_the_forward_bound(case):
    M, polar = case
    points = [[cmath.rect(r, t) for r, t in polar]]
    assert_within_hook_bound(M, points, hook_values(M, points))


@pytest.mark.parametrize("kind", ["int", "fraction", "gaussian", "mixed"])
def test_exact_hook_values_match_jacobi_trudi_and_tableaux(kind):
    rng = random.Random(kind)
    for N in range(1, 6):
        for M in range(N, N + 5):
            points = _exact_points(rng, kind, N) + _exact_points(rng, kind, N)
            rows = hook_values(M, points)
            assert repr(rows) == repr(jacobi_trudi_hooks(M, points))
            for x, row in zip(points[:4], rows):
                assert row == [schur_eval_ssyt_oracle(hook_partition(M, N, j), x) for j in range(N)]


def test_exact_hook_value_types():
    # Fractions for rational points, Gaussian rationals otherwise, except a
    # vanishing hook with a zero part: the Fraction 0, as Jacobi-Trudi gives it
    assert hook_values(3, [[1, 2]]) == [[Fraction(6), Fraction(7)]]  # x1^2 x2 + x1 x2^2, h_2
    assert all(type(v) is Fraction for v in hook_values(3, [[1, 2]])[0])
    one, minus_one = GaussianRational(1), GaussianRational(-1)
    (row,) = hook_values(2, [[one, minus_one]])  # s_(1,1) = x1 x2, s_(1) = x1 + x2
    assert repr(row) == repr([GaussianRational(-1), Fraction(0)])
    zero = GaussianRational()
    assert repr(hook_values(3, [[zero, zero]])) == repr([[zero, Fraction(0)]])
