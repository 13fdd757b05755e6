"""PSD utilities and the three routes to the extreme critical value."""

import warnings

import numpy as np
import pytest

from entrywise.psd import (
    discontinuity_probe,
    moore_penrose_sqrt,
    psd_check,
    rayleigh_constant,
    rayleigh_rank_one,
    rayleigh_variational,
)
from entrywise.samplers import psd_disc_samples, random_separated_complex
from entrywise.strata import GroupTag, IndexPartition, generate_in_stratum
from entrywise.threshold import threshold_constant


def test_psd_check_basic():
    assert psd_check(np.eye(3))
    assert psd_check(np.zeros((2, 2)))
    assert not psd_check(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError):
        psd_check(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian


def test_moore_penrose_sqrt_squares_to_pinv():
    rng = np.random.default_rng(0)
    B = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    A = B @ B.conj().T  # rank 2
    S = moore_penrose_sqrt(A)
    P = np.linalg.pinv(A, hermitian=True)
    assert np.max(np.abs(S @ S - P)) < 1e-10
    # S is Hermitian PSD
    assert psd_check(S)


def test_moore_penrose_sqrt_zero_matrix():
    S = moore_penrose_sqrt(np.zeros((3, 3)))
    assert np.max(np.abs(S)) == 0.0


def test_moore_penrose_sqrt_rejects_indefinite():
    with pytest.raises(ValueError):
        moore_penrose_sqrt(np.diag([1.0, -1.0]))


def test_rayleigh_rank_one_warns_once():
    # every pair of coordinates coincides, but the warning is one event
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rayleigh_rank_one((1, 1, 1), 3, (0.5, 0.5, 0.5))
    assert len(caught) == 1


@pytest.mark.parametrize(
    "A",
    [np.eye(3), np.array([[2, 1 + 0.5j, 0.25], [1 - 0.5j, 3, -0.5 + 1j], [0.25, -0.5 - 1j, 2]])],
)
def test_rayleigh_variational_rejects_nonpositive_coefficients(A):
    with pytest.raises(ValueError, match="coefficients must be positive"):
        rayleigh_variational((1, -1, 1), 3, A)


def test_rayleigh_rank_one_m_less_than_n():
    # M < N: value is exactly 1/c_M regardless of u
    u = np.array([0.9, 0.5, 0.2])
    assert rayleigh_rank_one((1.0, 4.0, 1.0), 1, u) == 0.25


def test_rayleigh_three_way_agreement():
    rng = np.random.default_rng(1)
    for _ in range(25):
        N = int(rng.integers(1, 6))
        M = int(rng.integers(N, 10))
        c = tuple(float(x) for x in rng.uniform(0.3, 3.0, size=N))
        u = random_separated_complex(N, rng)
        A = np.outer(u, np.conj(u))
        r1 = rayleigh_constant(c, M, A).value
        r2 = rayleigh_variational(c, M, A).value
        r3 = rayleigh_rank_one(c, M, u)
        lo, hi = min(r1, r2, r3), max(r1, r2, r3)
        assert (hi - lo) <= 1e-8 * max(1.0, hi)


def test_rayleigh_maximizer_attains_value():
    rng = np.random.default_rng(2)
    u = random_separated_complex(3, rng)
    A = np.outer(u, np.conj(u))
    c = (1.0, 1.0, 1.0)
    res = rayleigh_constant(c, 4, A)
    x = res.maximizer
    from entrywise.hadamard import h_matrix, hadamard_power

    num = float(np.real(x.conj() @ hadamard_power(A, 4) @ x))
    den = float(np.real(x.conj() @ h_matrix(c, A) @ x))
    assert abs(num / den - res.value) <= 1e-8 * max(1.0, res.value)


def test_rayleigh_bounded_by_threshold():
    rng = np.random.default_rng(3)
    c = (1.0, 1.0, 1.0)
    C = float(threshold_constant(c, 4, 3, 1.0))
    for A in psd_disc_samples(3, 1.0, 80, rng):
        val = rayleigh_constant(c, 4, A).value
        assert val <= C * (1 + 1e-9) + 1e-9


def test_rayleigh_zero_matrix_rejected():
    with pytest.raises(ValueError):
        rayleigh_constant((1.0, 1.0), 2, np.zeros((2, 2)))


def test_rayleigh_scalar_case():
    # N = 1: value is a^M / h_c(a)
    A = np.array([[0.49]])
    got = rayleigh_constant((2.0,), 3, A).value
    assert abs(got - 0.49**3 / (2.0)) < 1e-12


def test_variational_handles_kernel():
    # repeated-block matrix: quotient must be computed on the kernel complement
    pi = IndexPartition(((0, 1), (2, 3)))
    A = generate_in_stratum(pi, GroupTag.TRIVIAL, seed=9)
    c = (1.0, 0.5, 1.0, 2.0)
    v1 = rayleigh_constant(c, 5, A).value
    v2 = rayleigh_variational(c, 5, A).value
    assert abs(v1 - v2) <= 1e-8 * max(1.0, abs(v1))


def test_rank_one_warns_on_coincident_coordinates():
    with pytest.warns(UserWarning):
        rayleigh_rank_one((1.0, 1.0), 3, np.array([0.7, 0.7]))


def test_discontinuity_probe_values():
    probe = discontinuity_probe((1.0, 1.0), 2, 2, 1.0, (0.3, 0.1, 0.03, 0.01, 0.003, 0.001))
    assert abs(probe.on_point_value - 0.5) < 1e-9
    # path values increase toward the threshold constant 5
    vals = [v for _, v in probe.rows]
    assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))
    assert abs(probe.limit_estimate - 5.0) < 2e-2
    gap = abs(probe.limit_estimate - probe.on_point_value) / probe.limit_estimate
    assert gap > 0.1


def test_discontinuity_probe_validates_epsilons():
    with pytest.raises(ValueError):
        discontinuity_probe((1.0, 1.0), 2, 2, 1.0, (0.1, 0.3))
    with pytest.raises(ValueError):
        discontinuity_probe((1.0, 1.0), 2, 2, 1.0, ())
