"""PSD utilities and the three routes to the extreme critical value."""

import warnings

import numpy as np
import pytest

from entrywise import psd, spectral
from entrywise.psd import (
    discontinuity_probe,
    moore_penrose_sqrt,
    psd_check,
    rayleigh_constant,
    rayleigh_rank_one,
    rayleigh_variational,
)
from entrywise.samplers import near_corner_path, psd_disc_samples, random_separated_complex
from entrywise.strata import (
    GroupTag,
    IndexPartition,
    generate_in_stratum,
    simultaneous_kernel,
    stratify,
)
from entrywise.threshold import CoefficientTuple, empirical_sharpness, threshold_constant


def test_psd_check_basic():
    assert psd_check(np.eye(3))
    assert psd_check(np.zeros((2, 2)))
    assert not psd_check(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError):
        psd_check(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "route",
    [
        psd_check,
        lambda A: stratify(A, GroupTag.TRIVIAL),
        lambda A: rayleigh_constant((1.0, 1.0), 2, A),
    ],
    ids=["psd_check", "stratify", "rayleigh_constant"],
)
def test_non_finite_entries_rejected(route, bad):
    # a NaN makes every tolerance comparison False, so it must be caught first
    with pytest.raises(ValueError, match="non-finite"):
        route(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_huge_finite_entries_accepted():
    # (A + A^H) / 2 used to overflow above about 9e307: psd_check was False
    # and stratify raised "eigenvalue nan" where the halved matrix passed
    A = np.full((2, 2), 1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        assert psd_check(A) and psd_check(A / 2)
        assert stratify(A, GroupTag.TRIVIAL) == IndexPartition(((0, 1),))
        assert simultaneous_kernel(A).dim == 1
        bad = spectral.psd_failures(np.stack([A, -A, np.eye(2)]), 1e-9)[2]
    assert bad.tolist() == [False, True, False]


def test_spectrum_beyond_the_float_range():
    # finite entries whose eigenvalues or singular values overflow: the
    # eigenvalue test compared -inf with -tol * inf and passed, and a rank-two
    # block with an infinite largest singular value verified as rank one
    for n, a in ((2, -0.9e308), (3, -7e307), (20, -1e307)):
        assert not psd_check(np.full((n, n), a))
        message = "^matrix is not positive semidefinite: eigenvalue -inf$"
        with pytest.raises(ValueError, match=message):
            stratify(np.full((n, n), a), GroupTag.TRIVIAL)
    assert psd_check(np.full((20, 20), 1e307))
    B = np.array([[1e308, 0.9e308], [0.9e308, 1e308]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert stratify(B, GroupTag.NONZERO_COMPLEX) == IndexPartition(((0,), (1,)))


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


@pytest.mark.parametrize(
    "A, message",
    [
        (np.ones((2, 3)), "square matrix required"),
        (np.diag([1.0, np.nan, 1.0]), "matrix has a non-finite entry"),
        (np.diag([1.0, np.inf, 1.0]), "matrix has a non-finite entry"),
        (np.triu(np.ones((3, 3))), "matrix is not Hermitian within tolerance"),
        (np.diag([1.0, 1.0, -1.0]), "matrix is not positive semidefinite: eigenvalue -1"),
        (np.zeros((3, 3)), "zero matrix has no Rayleigh constant"),
    ],
)
def test_rayleigh_variational_input_errors(A, message):
    with pytest.raises(ValueError) as err:
        rayleigh_variational((1, 1, 1), 3, A)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "call",
    [
        lambda A: spectral.require_psd(A, 1e-9),
        psd_check,
        moore_penrose_sqrt,
        lambda A: stratify(A, GroupTag.TRIVIAL),
        simultaneous_kernel,
        lambda A: rayleigh_constant((1,), 1, A),
        lambda A: rayleigh_variational((1,), 1, A),
    ],
)
def test_empty_matrix_is_not_square(call):
    # a 0 x 0 matrix used to reach a reduction with no identity inside numpy
    with pytest.raises(ValueError, match="^square matrix required$"):
        call(np.zeros((0, 0)))


def test_rayleigh_variational_validates_once(monkeypatch):
    from entrywise import spectral

    calls = []
    require_hermitian = spectral.require_hermitian
    monkeypatch.setattr(
        spectral, "require_hermitian", lambda A, tol: calls.append(tol) or require_hermitian(A, tol)
    )
    A = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.5], [0.0, 0.5, 1.0]])
    rayleigh_variational((1, 1, 1), 3, A)
    assert calls == [1e-9]


def test_rayleigh_rank_one_m_less_than_n():
    # M < N: value is exactly 1/c_M regardless of u
    u = np.array([0.9, 0.5, 0.2])
    assert rayleigh_rank_one((1.0, 4.0, 1.0), 1, u) == 0.25


def test_rank_one_m_less_than_n_never_warns():
    # the value 1/c_M is exact at every point, coincident coordinates included
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rayleigh_rank_one((1.0, 4.0, 1.0), 1, (0.5, 0.5, 0.5)) == 0.25
        probe = discontinuity_probe((1.0, 4.0, 1.0), 2, 3, 1.0, (1e-9, 1e-12))
    assert [v for _, v in probe.rows] == [1.0, 1.0]


@pytest.mark.parametrize("call", [
    lambda: rayleigh_rank_one((1.0, -1.0), 3, (0.7, 0.7)),
    lambda: discontinuity_probe((1.0, -1.0), 3, 2, 1.0, (1e-9,)),
])
def test_rank_one_bad_coefficients_raise_before_warning(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^coefficients must be positive$"):
            call()


@pytest.mark.parametrize("call", [
    lambda: rayleigh_rank_one((1, 1), -1, (0.3, 0.5)),
    lambda: discontinuity_probe((1, 1), -1, 2, 1.0, (1e-3,)),
    lambda: empirical_sharpness((1, 1), -1, 2, 1, 10),
])
def test_rank_one_sum_rejects_negative_exponent(call):
    # a negative M would otherwise read a coefficient from the end: c_{N+M}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^exponent must be non-negative$"):
            call()


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


SINGULAR_FORM_SIZES = (3, 7, 13, 13, 13, 13, 14, 4)


def _stratum(sizes, group, seed):
    """A matrix of the stratum with consecutive blocks of the given sizes,
    divided by its largest entry modulus."""
    starts = np.cumsum((0,) + tuple(sizes[:-1]))
    pi = IndexPartition(tuple(tuple(range(s, s + n)) for s, n in zip(starts, sizes)))
    A = generate_in_stratum(pi, group, seed=seed)
    return A / np.max(np.abs(A))


def test_variational_on_unit_circle_stratum_with_singular_block_form():
    # the trivial-group blocks of a unit-circle stratum leave the compressed
    # h_c form singular at N = 80; the solve used to raise LinAlgError here
    A = _stratum(SINGULAR_FORM_SIZES, GroupTag.UNIT_CIRCLE, seed=9)
    c = (1.0,) * 80
    v1 = rayleigh_constant(c, 82, A).value
    v2 = rayleigh_variational(c, 82, A).value
    assert abs(v1 - v2) <= 1e-5 * abs(v1)


def _pair_solves(monkeypatch, c, M, A):
    """The pairs rayleigh_variational(c, M, A) hands to psd._pair_eigh, in
    order, each as (Ap, Bp, (w, W)), or (Ap, Bp, None) where it raised
    LinAlgError."""
    solve, calls = psd._pair_eigh, []

    def recording(Ap, Bp):
        try:
            got = solve(Ap, Bp)
        except np.linalg.LinAlgError:
            calls.append((Ap, Bp, None))
            raise
        calls.append((Ap, Bp, got))
        return got

    monkeypatch.setattr(psd, "_pair_eigh", recording)
    rayleigh_variational(c, M, A)
    return calls


def _assert_scipy_eigh_bits(calls):
    import scipy.linalg

    for Ap, Bp, got in calls:
        try:
            want = scipy.linalg.eigh(Ap, Bp)
        except np.linalg.LinAlgError:
            want = None
        assert (got is None) == (want is None)
        if got is not None:
            for x, y in zip(got, want):
                assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("group", list(GroupTag))
@pytest.mark.parametrize("N", [3, 5, 8, 13, 24, 48, 80])
def test_pair_eigh_is_scipy_eigh_bit_for_bit(monkeypatch, group, N):
    sizes = []
    while sum(sizes) < N:  # blocks of sizes 1, 2, 3, 4, 1, 2, ...: several indicators
        sizes.append(min(1 + len(sizes) % 4, N - sum(sizes)))
    A = _stratum(sizes, group, seed=N)
    calls = _pair_solves(monkeypatch, (1.0,) * N, N + 2, A)
    assert calls and calls[-1][2] is not None
    _assert_scipy_eigh_bits(calls)


def test_pair_eigh_restricted_pair_is_scipy_eigh_bit_for_bit(monkeypatch):
    A = _stratum(SINGULAR_FORM_SIZES, GroupTag.UNIT_CIRCLE, seed=9)
    calls = _pair_solves(monkeypatch, (1.0,) * 80, 82, A)
    # the compressed h_c form is singular, so the pair is solved again on its range
    assert [got is None for *_, got in calls] == [True, False]
    assert calls[1][0].shape[0] < calls[0][0].shape[0]
    _assert_scipy_eigh_bits(calls)


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


def test_discontinuity_probe_rows_are_rank_one_values():
    # one hook_values call for the whole path gives each point's own value,
    # and the near-coincidence warning still comes once per such point
    c, M, N, eps = (1.0, 2.0, 0.5), 5, 3, (0.3, 0.01, 1e-9, 1e-10)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        probe = discontinuity_probe(c, M, N, 0.8, eps)
        assert len(caught) == 2
        path = near_corner_path(N, 0.8, eps).tolist()
        rows = tuple((e, rayleigh_rank_one(c, M, u)) for e, u in zip(eps, path))
    assert repr(probe.rows) == repr(rows)


def test_discontinuity_probe_validates_epsilons():
    with pytest.raises(ValueError):
        discontinuity_probe((1.0, 1.0), 2, 2, 1.0, (0.1, 0.3))
    with pytest.raises(ValueError):
        discontinuity_probe((1.0, 1.0), 2, 2, 1.0, ())


def test_coefficient_tuple_accepted_by_every_route():
    plain = (1.0, 2.0, 0.5)
    ct = CoefficientTuple(plain, cprime=-0.1)
    A = np.array([[2, 1 + 0.5j, 0.25], [1 - 0.5j, 3, -0.5 + 1j], [0.25, -0.5 - 1j, 2]])
    u = [0.9, 0.5, 0.2]
    for M in (1, 4):
        a, b = rayleigh_constant(ct, M, A), rayleigh_constant(plain, M, A)
        assert a.value == b.value and np.array_equal(a.maximizer, b.maximizer)
        a, b = rayleigh_variational(ct, M, A), rayleigh_variational(plain, M, A)
        assert a.value == b.value and np.array_equal(a.maximizer, b.maximizer)
        assert rayleigh_rank_one(ct, M, u) == rayleigh_rank_one(plain, M, u)
    probe = discontinuity_probe(ct, 4, 3, 1.0, (0.1, 0.01))
    assert probe == discontinuity_probe(plain, 4, 3, 1.0, (0.1, 0.01))
