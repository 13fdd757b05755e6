"""Hadamard power identities, all checked two ways over exact arithmetic."""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from entrywise.backends import GaussianRational, det_exact, solve_exact
from entrywise.hadamard import (
    PencilSpec,
    cauchy_binet_lhs,
    cauchy_binet_rhs,
    decomposition_residual,
    entrywise_poly,
    h_matrix,
    hadamard_decomposition,
    hadamard_power,
    pencil_det_closed_form,
    pencil_det_direct,
    pencil_matrix,
    rank_one_outer,
    vandermonde_matrix,
    vandermonde_solve_moments,
)
from entrywise.samplers import (
    random_fraction,
    random_gaussian_rational_vector,
    random_positive_fraction,
)


def test_hadamard_power_zero_is_ones():
    A = np.array([[2.0, 3.0], [3.0, 5.0]])
    assert np.array_equal(hadamard_power(A, 0), np.ones((2, 2)))
    rows = [[Fraction(2), Fraction(3)], [Fraction(3), Fraction(5)]]
    assert hadamard_power(rows, 0) == [[1, 1], [1, 1]]


def test_hadamard_power_negative_raises():
    with pytest.raises(ValueError):
        hadamard_power(np.eye(2), -1)


def test_entrywise_poly_horner_oracle():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    coeffs = {0: 1.5, 2: -0.5, 5: 2.0}
    F = entrywise_poly(coeffs, A)
    for i in range(3):
        for j in range(3):
            z = A[i, j]
            want = 1.5 - 0.5 * z**2 + 2.0 * z**5
            assert abs(F[i, j] - want) < 1e-12


def _exact_poly_entry(coeffs, z):
    """sum_k c_k z^k in exact (re, im) Fractions of the float data."""
    a, b = Fraction(z.real), Fraction(z.imag)
    re, im = Fraction(0), Fraction(0)
    pr, pi, at = Fraction(1), Fraction(0), 0
    for k in sorted(coeffs):
        for _ in range(k - at):
            pr, pi = pr * a - pi * b, pr * b + pi * a
        at = k
        re, im = re + Fraction(coeffs[k]) * pr, im + Fraction(coeffs[k]) * pi
    return re, im


@pytest.mark.parametrize("kind", ["float", "complex"])
def test_entrywise_poly_float_within_rounding_bound_of_exact(kind):
    # every entry within 2 (k_max + 1) 2^-52 sum_k |c_k| |x|^k of the exact
    # value of the polynomial at the float data, signed coefficients included
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(75):
        N = int(rng.integers(1, 5))
        A = rng.standard_normal((N, N)) * rng.choice([0.5, 1.0, 1.5])
        if kind == "complex":
            A = A + 1j * rng.standard_normal((N, N))
        exps = rng.choice(16, size=int(rng.integers(1, 17)), replace=False)
        coeffs = {int(k): float(rng.uniform(-2, 2)) for k in exps}
        F = entrywise_poly(coeffs, A)
        assert np.iscomplexobj(F) == (kind == "complex")
        unit = 2 * (max(coeffs) + 1) * 2.0**-52
        for (i, j), z in np.ndenumerate(A):
            re, im = _exact_poly_entry(coeffs, complex(z))
            got = complex(F[i, j])
            err = abs(complex(float(Fraction(got.real) - re), float(Fraction(got.imag) - im)))
            scale = sum(abs(c) * abs(z) ** k for k, c in coeffs.items())
            worst = max(worst, err / (unit * scale))
    assert worst <= 1.0, worst


@pytest.mark.parametrize("kind", ["float", "complex"])
def test_h_matrix_horner_within_rounding_bound_of_exact(kind):
    # Horner's rule on dense signed coefficients: every entry within the same
    # 2 (d + 1) 2^-52 sum_k |c_k| |x|^k of the exact value as the ascending sum
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(75):
        N = int(rng.integers(1, 5))
        A = rng.standard_normal((N, N)) * rng.choice([0.5, 1.0, 1.5])
        if kind == "complex":
            A = A + 1j * rng.standard_normal((N, N))
        cs = [float(x) for x in rng.uniform(-2, 2, int(rng.integers(1, 17)))]
        F = h_matrix(cs, A)
        assert np.iscomplexobj(F) == (kind == "complex")
        unit = 2 * len(cs) * 2.0**-52
        for (i, j), z in np.ndenumerate(A):
            re, im = _exact_poly_entry(dict(enumerate(cs)), complex(z))
            got = complex(F[i, j])
            err = abs(complex(float(Fraction(got.real) - re), float(Fraction(got.imag) - im)))
            scale = sum(abs(c) * abs(z) ** k for k, c in enumerate(cs))
            worst = max(worst, err / (unit * scale))
    assert worst <= 1.0, worst


def test_h_matrix_traced_peak_stays_a_few_matrices():
    # Horner's one running array: no list of all N powers
    N = 80
    rng = np.random.default_rng(4)
    A = (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))) / 4
    coeffs = (1.0,) * N
    h_matrix(coeffs, A)
    tracemalloc.start()
    try:
        h_matrix(coeffs, A)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * A.nbytes, (peak, A.nbytes)


def test_entrywise_poly_exact_sum_starts_from_first_term(monkeypatch):
    # a k-term polynomial costs k - 1 Gaussian-rational additions per entry
    calls = []
    add = GaussianRational.__add__

    def counting_add(self, other):
        calls.append(1)
        return add(self, other)

    monkeypatch.setattr(GaussianRational, "__add__", counting_add)
    monkeypatch.setattr(GaussianRational, "__radd__", counting_add)
    rng = random.Random(3)
    rows = [random_gaussian_rational_vector(rng, 3) for _ in range(3)]
    for coeffs in ({2: Fraction(1, 2)}, {0: Fraction(1), 1: Fraction(-2), 4: Fraction(3)}):
        calls.clear()
        entrywise_poly(coeffs, rows)
        assert len(calls) == 9 * (len(coeffs) - 1)


def test_h_matrix_real_input_stays_real():
    A = np.array([[1.0, 0.5], [0.5, 1.0]])
    H = h_matrix((1.0, 2.0, 3.0), A)
    assert not np.iscomplexobj(H)


def test_pencil_n1_hand_value():
    # 1x1 pencil: t c_0 - (u v)^M
    spec = PencilSpec(Fraction(3), (Fraction(2),), 4)
    u = [Fraction(1, 2)]
    v = [Fraction(3)]
    want = Fraction(3) * 2 - Fraction(3, 2) ** 4
    assert pencil_det_direct(spec, u, v) == want
    assert pencil_det_closed_form(spec, u, v) == want


def test_pencil_identity_exact_sweep():
    rng = random.Random(5)
    for N in (1, 2, 3):
        for M in range(N, N + 4):
            for _ in range(8):
                u = random_gaussian_rational_vector(rng, N)
                v = random_gaussian_rational_vector(rng, N)
                coeffs = tuple(random_positive_fraction(rng) for _ in range(N))
                spec = PencilSpec(random_fraction(rng), coeffs, M)
                assert pencil_det_direct(spec, u, v) == pencil_det_closed_form(spec, u, v)


def test_pencil_repeated_coordinates_still_agree():
    # closed form goes through the hook recurrence, which is polynomial in u, v
    spec = PencilSpec(Fraction(2), (Fraction(1), Fraction(1)), 3)
    u = [Fraction(1), Fraction(1)]
    v = [Fraction(2), Fraction(1)]
    assert pencil_det_direct(spec, u, v) == pencil_det_closed_form(spec, u, v)


def test_pencil_matrix_entries():
    spec = PencilSpec(Fraction(1), (Fraction(1), Fraction(1)), 2)
    u = [Fraction(1), Fraction(2)]
    v = [Fraction(1), Fraction(3)]
    P = pencil_matrix(spec, u, v)
    a = rank_one_outer(u, v)
    for i in range(2):
        for j in range(2):
            z = a[i][j]
            assert P[i][j] == 1 + z - z**2


def test_cauchy_binet_exact_sweep():
    rng = random.Random(6)
    for N in (1, 2, 3):
        for _ in range(12):
            m = rng.randint(1, 5)
            exponents = rng.sample(range(0, 9), m)
            coeffs = {n: random_fraction(rng, nonzero=True) for n in exponents}
            u = random_gaussian_rational_vector(rng, N)
            v = random_gaussian_rational_vector(rng, N)
            assert cauchy_binet_lhs(coeffs, u, v) == cauchy_binet_rhs(coeffs, u, v)


def test_cauchy_binet_fewer_terms_than_dimension():
    u = [Fraction(1), Fraction(2), Fraction(3)]
    coeffs = {0: Fraction(1), 4: Fraction(2)}
    assert cauchy_binet_rhs(coeffs, u, u) == 0
    assert cauchy_binet_lhs(coeffs, u, u) == 0


def test_decomposition_zero_residual_sweep():
    rng = random.Random(7)
    for N in (1, 2, 3, 4):
        for M in range(0, 7):
            rows = [random_gaussian_rational_vector(rng, N) for _ in range(N)]
            res = decomposition_residual(rows, M)
            assert all(x == 0 for row in res for x in row)


def test_decomposition_repeated_rows():
    rows = [
        [Fraction(1), Fraction(2)],
        [Fraction(1), Fraction(2)],
    ]
    res = decomposition_residual(rows, 5)
    assert all(x == 0 for row in res for x in row)


def test_decomposition_small_power_is_selector():
    rows = [[Fraction(i + j) for j in range(3)] for i in range(3)]
    mats = hadamard_decomposition(rows, 1)
    # M < N: D_1 = I and everything else zero
    for j, D in enumerate(mats):
        for a in range(3):
            for b in range(3):
                want = 1 if (j == 1 and a == b) else 0
                assert D[a][b] == want


def test_decomposition_float_backend():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((3, 3))
    res = np.asarray(decomposition_residual(A, 5), dtype=complex)
    assert np.max(np.abs(res)) < 1e-9


def test_moments_closed_form_vs_cramer():
    rng = random.Random(8)
    for N in (1, 2, 3, 4):
        for M in range(N, N + 4):
            u = random_gaussian_rational_vector(rng, N, distinct=True)
            closed = vandermonde_solve_moments(u, M)
            direct = solve_exact(vandermonde_matrix(u), [x**M for x in u])
            assert list(closed) == list(direct)


def test_moments_requires_distinct():
    with pytest.raises(ValueError):
        vandermonde_solve_moments([Fraction(1), Fraction(1)], 3)


def test_vandermonde_matrix_shape():
    V = vandermonde_matrix([Fraction(2), Fraction(3)])
    assert V[0] == [1, 2] and V[1] == [1, 3]


def test_pencil_det_closed_form_rejects_bad_sizes():
    spec = PencilSpec(Fraction(1), (Fraction(1), Fraction(1)), 1)
    with pytest.raises(ValueError):
        pencil_det_closed_form(spec, [Fraction(1), Fraction(2)], [Fraction(1), Fraction(2)])
