"""Threshold constants, admissibility, chains, and positivity search."""

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entrywise.hadamard import coefficients
from entrywise.samplers import near_corner_path, psd_disc_samples
from entrywise.schur import hook_values
from entrywise.threshold import (
    CoefficientTuple,
    _loewner_inputs,
    admissible,
    admissible_verdict,
    cross_dim_inequality_check,
    empirical_sharpness,
    horn_necessity_witness,
    lmi_check,
    partial_constants,
    pd_refinement_check,
    preserves_positivity_check,
    threshold_constant,
)

ONE = Fraction(1)


def test_frozen_constant_values():
    assert threshold_constant((ONE, ONE), 2, 2, ONE) == 5
    assert threshold_constant((ONE,), 4, 1, 2) == 16
    assert threshold_constant((ONE, ONE), 1, 2, ONE) == 1  # M < N: 1/c_1
    assert threshold_constant((Fraction(2), Fraction(3)), 0, 2, 7) == Fraction(1, 2)


def test_constant_term_structure():
    # each summand is (hook dimension)^2 rho^(M-j) / c_j
    from entrywise.partitions import hook_dimension

    c = (Fraction(2), Fraction(1, 3), Fraction(5))
    M, N, rho = 7, 3, Fraction(3, 2)
    want = sum(
        Fraction(hook_dimension(M, N, j) ** 2) * rho ** (M - j) / c[j]
        for j in range(N)
    )
    assert threshold_constant(c, M, N, rho) == want


def test_m_less_than_n_exact():
    rng = random.Random(0)
    for _ in range(40):
        N = rng.randint(2, 6)
        M = rng.randint(0, N - 1)
        c = tuple(Fraction(rng.randint(1, 20), rng.randint(1, 9)) for _ in range(N))
        rho = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        assert threshold_constant(c, M, N, rho) == 1 / c[M]


def _generalized_binomial(n, k):
    """binom(n, k) by falling factorial, valid for negative n."""
    num = 1
    for i in range(k):
        num *= n - i
    return num // math.factorial(k)


def _threshold_constant_oracle(c, M, N, rho):
    """The constant as one generalized-binomial sum over j < N, valid for every M >= 0."""
    total = 0
    for j in range(N):
        b = _generalized_binomial(M, j) * _generalized_binomial(M - j - 1, N - j - 1)
        if b:
            total = total + b * b * rho ** (M - j) / c[j]
    return total


@pytest.mark.parametrize("kind", [int, Fraction, float])
@pytest.mark.parametrize("rho", [2, Fraction(3, 2), 0.75])
def test_threshold_constant_matches_generalized_binomial_sum(kind, rho):
    # int and Fraction inputs give a Fraction, so the oracle sums them as Fractions
    exact = kind is not float and not isinstance(rho, float)
    for N in range(1, 6):
        c = tuple(kind(j + 2) for j in range(N))
        for M in range(12):
            got = threshold_constant(c, M, N, rho)
            if exact:
                want = _threshold_constant_oracle(tuple(map(Fraction, c)), M, N, Fraction(rho))
            else:
                want = _threshold_constant_oracle(c, M, N, rho)
            assert (type(got), repr(got)) == (type(want), repr(want)), (N, M)


def _reference_constant(c, M, N, rho):
    """The expression threshold_constant evaluated before it summed exact inputs
    as one integer over one denominator."""
    cs = coefficients(c, N)
    if M < N:
        return rho**0 / cs[M]
    from entrywise.partitions import hook_dimension

    return sum(hook_dimension(M, N, j) ** 2 * rho ** (M - j) / cs[j] for j in range(N))


def _random_coefficients(rng, N, kinds):
    values = []
    for _ in range(N):
        kind = rng.choice(kinds)
        if kind is int:
            values.append(rng.randint(1, 12))
        elif kind is Fraction:
            values.append(Fraction(rng.randint(1, 12), rng.randint(1, 9)))
        else:
            values.append(rng.randint(1, 120) / 8)
    return tuple(values)


@pytest.mark.parametrize("seed", range(3))
def test_exact_constant_matches_reference(seed):
    # == and the same type as the reference wherever it is exact (the reference
    # divides int by int, which is true division, so those entries are compared
    # with the reference on the same values as Fractions)
    rng = random.Random(seed)
    for N in range(1, 7):
        for M in range(N + 6):
            for kinds in ((Fraction,), (int, Fraction)):
                c = _random_coefficients(rng, N, kinds)
                for rho in (Fraction(rng.randint(1, 9), rng.randint(1, 5)), rng.randint(1, 4)):
                    got = threshold_constant(c, M, N, rho)
                    want = _reference_constant(tuple(map(Fraction, c)), M, N, Fraction(rho))
                    assert type(got) is Fraction and got == want, (c, M, N, rho)
                    raw = _reference_constant(c, M, N, rho)
                    if type(raw) is Fraction:
                        assert got == raw


@pytest.mark.parametrize("seed", range(3))
def test_float_constant_keeps_reference_bits(seed):
    rng = random.Random(seed)
    for N in range(1, 7):
        for M in range(N + 6):
            c = _random_coefficients(rng, N, (int, Fraction, float))
            for rho in (rng.randint(1, 40) / 16, Fraction(rng.randint(1, 9), rng.randint(1, 5))):
                if isinstance(rho, float) or any(isinstance(x, float) for x in c):
                    got, want = threshold_constant(c, M, N, rho), _reference_constant(c, M, N, rho)
                    assert (type(got), repr(got)) == (type(want), repr(want)), (c, M, N, rho)


def test_int_inputs_give_exact_constant():
    # int / int is true division; exact inputs must not fall back to floats
    # C = rho^2 + 4 rho for c = (1, 1), M = N = 2
    cases = (((Fraction(1), 1), 1, 5), ((1, 1), 1, 5), ((1, Fraction(1)), 2, 12), ((1, 1), 2, 12))
    for c, rho, want in cases:
        got = threshold_constant(c, 2, 2, rho)
        assert type(got) is Fraction and got == want
    got = threshold_constant((1, 2, 3), 1, 3, 1)  # M < N: 1/c_M
    assert type(got) is Fraction and got == Fraction(1, 2)
    assert type(threshold_constant((1,), 4, 1, 2)) is Fraction


def test_int_inputs_verdict_is_exact():
    # the bound -1/5 is exact, so a c' just above it is admissible, not boundary
    above = Fraction(-1, 5) + Fraction(1, 10**14)
    for c in ((1, 1), (Fraction(1), 1)):
        assert admissible_verdict(c, 2, 2, 1, above) == "admissible"
        assert admissible_verdict(c, 2, 2, 1, Fraction(-1, 5)) == "boundary"
        assert admissible_verdict(c, 2, 2, 1, Fraction(-1, 5) - Fraction(1, 10**14)) == "inadmissible"


def test_partial_chain_endpoints_and_monotonicity():
    rng = random.Random(1)
    for _ in range(40):
        N = rng.randint(1, 5)
        M = rng.randint(N, 10)
        c = tuple(Fraction(rng.randint(1, 20), rng.randint(1, 9)) for _ in range(N))
        rho = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        chain = partial_constants(c, M, N, rho)
        assert len(chain) == N
        assert chain[0] == rho ** (M - N + 1) / c[N - 1]
        assert chain[-1] == threshold_constant(c, M, N, rho)
        assert all(chain[i] < chain[i + 1] for i in range(N - 1))


def test_partial_constants_requires_m_ge_n():
    with pytest.raises(ValueError):
        partial_constants((ONE, ONE), 1, 2, 1)


def test_cross_dim_inequality():
    rng = random.Random(2)
    for _ in range(40):
        N = rng.randint(2, 5)
        M = rng.randint(N, 10)
        c = tuple(Fraction(rng.randint(1, 20), rng.randint(1, 9)) for _ in range(N))
        rho = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        assert cross_dim_inequality_check(c, M, N, rho)


def test_coefficient_tuple_validation():
    CoefficientTuple((ONE, Fraction(1, 2)))
    with pytest.raises(ValueError):
        CoefficientTuple((ONE, Fraction(0)))
    with pytest.raises(ValueError):
        CoefficientTuple((ONE, Fraction(-1)))
    with pytest.raises(ValueError):
        CoefficientTuple(())


def test_admissible_and_verdict():
    c = (ONE, ONE)
    assert admissible(c, 2, 2, 1, cprime=1.0)
    assert admissible(c, 2, 2, 1, cprime=-0.19)
    assert admissible(c, 2, 2, 1, cprime=Fraction(-1, 5))
    assert not admissible(c, 2, 2, 1, cprime=-0.21)
    assert admissible_verdict(c, 2, 2, 1, cprime=-0.1) == "admissible"
    assert admissible_verdict(c, 2, 2, 1, cprime=Fraction(-1, 5)) == "boundary"
    assert admissible_verdict(c, 2, 2, 1, cprime=-0.21) == "inadmissible"


def test_admissible_from_tuple_field():
    ct = CoefficientTuple((ONE, ONE), cprime=Fraction(-1, 6))
    assert admissible(ct, 2, 2, 1)
    with pytest.raises(ValueError):
        admissible(CoefficientTuple((ONE, ONE)), 2, 2, 1)


def test_verdict_without_cprime_is_value_error():
    assert admissible_verdict(CoefficientTuple((ONE, ONE), cprime=-0.1), 2, 2, 1) == "admissible"
    for c in ((1, 1), CoefficientTuple((ONE, ONE))):
        with pytest.raises(ValueError, match="cprime required"):
            admissible_verdict(c, 2, 2, 1)


def test_empirical_sharpness_desk_case():
    est = empirical_sharpness((1.0, 1.0), 2, 2, 1.0, grid=200)
    assert abs(est - 5.0) <= 1e-2
    assert est <= 5.0 + 1e-9  # approaches from below


@pytest.mark.parametrize("N, M", [(16, 20), (20, 22), (24, 30), (28, 30), (32, 40)])
def test_empirical_sharpness_stays_below_the_exact_constant(N, M):
    # float hook values by Jacobi-Trudi determinants overshot C here, by a
    # relative 1e-10 at N = 16 and 1.2e4 at N = 32
    C = threshold_constant((1,) * N, M, N, 1)
    assert type(C) is Fraction
    assert Fraction(empirical_sharpness((1,) * N, M, N, 1, 48)) <= C


def test_empirical_sharpness_m_less_than_n():
    # M = 1 < N = 3: exactly 1/c_1
    assert empirical_sharpness((1.0, 2.0, 4.0), 1, 3, 1.0, grid=10) == 0.5


def ref_empirical_sharpness(c, M, N, rho, grid):
    """The sharpness loop before it shared the rank-one sum of psd: its own
    hook_values loop, float coefficients and M < N shortcut."""
    cs = coefficients(c, N)
    if grid < 2:
        raise ValueError("grid must be at least 2")
    if M < N:
        return 1.0 / float(cs[M])
    deltas = [2.0 ** (-k) for k in range(1, min(grid, 48) + 1)]
    if N == 1:
        deltas.append(0.0)
    cf = [float(cj) for cj in cs]
    best = -np.inf
    for row in hook_values(M, near_corner_path(N, float(rho), deltas).tolist()):
        best = max(best, sum(float(s) ** 2 / cj for s, cj in zip(row, cf)))
    return float(best)


@pytest.mark.parametrize(
    "c, rho",
    [
        ((ONE, Fraction(1, 2), Fraction(7, 3), Fraction(5, 4)), Fraction(3, 7)),
        ((1, 2, 3, 5), 2),
        ((1.0, 0.25, 2.5, 3.0), 0.7),
    ],
    ids=["fraction", "int", "float"],
)
def test_empirical_sharpness_matches_reference(c, rho):
    # the ladder runs into the corner on purpose (grid 200 passes the 48 cap),
    # so the shared rank-one sum must stay silent there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for N in range(1, 5):
            for M in range(N + 5):
                for grid in (2, 40, 200):
                    got = empirical_sharpness(c[:N], M, N, rho, grid)
                    assert repr(got) == repr(ref_empirical_sharpness(c[:N], M, N, rho, grid))


def test_empirical_sharpness_error_order():
    # coefficients are checked before the grid, the grid before rho
    with pytest.raises(ValueError, match="^coefficients must be positive$"):
        empirical_sharpness((1, -1), 3, 2, -1, 1)
    with pytest.raises(ValueError, match="^grid must be at least 2$"):
        empirical_sharpness((1, 1), 3, 2, -1, 1)
    for rho in (0, -1.0, math.nan):
        with pytest.raises(ValueError, match="^rho must be positive$"):
            empirical_sharpness((1, 1), 3, 2, rho, 10)


def test_empirical_sharpness_rejects_infinite_rho():
    # every hook value on an infinite path is NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^rho must be finite$"):
            empirical_sharpness((1, 1), 3, 2, math.inf, 10)


@pytest.mark.parametrize(
    "N, rho, message",
    [
        (2, 0.0, "^rho must be positive$"),
        (2, -1.0, "^rho must be positive$"),
        (2, math.nan, "^rho must be positive$"),
        (2, math.inf, "^rho must be finite$"),
        (0, 1.0, "^N must be at least 1$"),
    ],
)
def test_disc_searches_reject_bad_radius_or_size(N, rho, message):
    # at rho = 0 the open cube is empty: uniform(0, 0) draws only zeros, so
    # the rejection loops would never end
    f = {0: 1.0, 1: 1.0, 2: -1.0}
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    calls = (
        lambda: preserves_positivity_check(f, N, rho, 20),
        lambda: horn_necessity_witness(f, N, rho, 200),
        lambda: horn_necessity_witness(f, N, rho, 0),
        lambda: next(psd_disc_samples(N, rho, 20, rng)),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()
    assert rng.bit_generator.state == state


def test_preserves_positivity_boundary_and_violation():
    f_ok = {0: 1.0, 1: 1.0, 2: -0.2}
    verdict = preserves_positivity_check(f_ok, 2, 1.0, samples=2000, seed=3)
    assert verdict.preserves
    assert verdict.witness is None

    f_bad = {0: 1.0, 1: 1.0, 2: -0.21}
    verdict = preserves_positivity_check(f_bad, 2, 1.0, samples=2000, seed=3)
    assert not verdict.preserves
    assert verdict.witness is not None
    # witness really violates
    from entrywise.hadamard import entrywise_poly

    F = np.asarray(entrywise_poly(f_bad, verdict.witness))
    w = np.linalg.eigvalsh((F + F.conj().T) / 2)
    assert w[0] < 0


def test_horn_witness_found_for_inadmissible():
    f = {0: 1.0, 1: 1.0, 2: -0.21}
    W = horn_necessity_witness(f, 2, 1.0, budget=5000)
    assert W is not None
    s = np.linalg.svd(W, compute_uv=False)
    assert s[1] <= 1e-10 * s[0]  # rank one


def test_horn_witness_none_for_admissible():
    f = {0: 1.0, 1: 1.0, 2: -0.1}
    assert horn_necessity_witness(f, 2, 1.0, budget=800) is None


def test_lmi_check_random_samples():
    from entrywise.samplers import psd_disc_samples

    rng = np.random.default_rng(4)
    c = (1.0, 1.0, 1.0)
    for A in psd_disc_samples(3, 1.0, 60, rng):
        assert lmi_check(c, 4, 1.0, A, tol=1e-8)


def test_lmi_check_fails_below_threshold():
    # replacing C by C/2 must break the inequality somewhere on the path
    from entrywise.hadamard import h_matrix, hadamard_power
    from entrywise.samplers import NEAR_CORNER_DELTAS, near_corner_path

    c = (1.0, 1.0)
    C = float(threshold_constant(c, 2, 2, 1.0))
    broke = False
    for u in near_corner_path(2, 1.0, NEAR_CORNER_DELTAS):
        A = np.outer(u, u)
        lhs = 0.5 * C * h_matrix(c, A) - hadamard_power(A, 2)
        w = np.linalg.eigvalsh((lhs + lhs.conj().T) / 2)
        if w[0] < -1e-9 * max(1.0, abs(w).max()):
            broke = True
    assert broke


def test_pd_refinement_strict():
    rng = np.random.default_rng(5)
    c = (1.0, 2.0, 1.0)
    for _ in range(25):
        u = rng.uniform(0.05, 0.98, size=3)
        while min(abs(u[0] - u[1]), abs(u[0] - u[2]), abs(u[1] - u[2])) < 1e-2:
            u = rng.uniform(0.05, 0.98, size=3)
        A = np.outer(u, u)
        assert pd_refinement_check(c, 5, 1.0, A)


def test_pd_refinement_needs_distinct_row():
    c = (1.0, 1.0)
    A = np.ones((2, 2))
    with pytest.raises(ValueError):
        pd_refinement_check(c, 2, 1.0, A)


@pytest.mark.parametrize("check", [lmi_check, pd_refinement_check])
@pytest.mark.parametrize(
    "A", [5.0, np.ones(3), np.ones((2, 3)), np.ones((2, 2, 2)), np.zeros((0, 0))]
)
def test_loewner_checks_need_a_square_matrix(check, A):
    # the shape is checked before its size is read, as psd_check checks it
    with pytest.raises(ValueError, match="^square matrix required$"):
        check((1, 1), 2, 1.0, A)


@pytest.mark.parametrize("c", [(1, -1), (1, 0)])
@pytest.mark.parametrize("M", [1, 3])
def test_empirical_sharpness_rejects_nonpositive_coefficients(c, M):
    # at M < N the value is 1/c_M, so the check must come before that shortcut
    with pytest.raises(ValueError, match="^coefficients must be positive$"):
        empirical_sharpness(c, M, 2, 1, 10)


def test_coefficient_tuple_iterates_over_c():
    ct = CoefficientTuple((ONE, Fraction(1, 2)), cprime=Fraction(-1, 9))
    assert tuple(ct) == (ONE, Fraction(1, 2))
    assert empirical_sharpness(ct, 3, 2, 1, 10) == empirical_sharpness(tuple(ct), 3, 2, 1, 10)
    assert partial_constants(ct, 3, 2, 1) == partial_constants(tuple(ct), 3, 2, 1)


def _dispatch_constant(c, M, N, rho):
    """threshold_constant as the formula reads, each term divided by c_j in
    the arithmetic of its operands (Fraction's own division for a Fraction);
    exact input is summed in Fractions."""
    from entrywise.partitions import hook_dimension

    if isinstance(rho, (int, Fraction)) and all(isinstance(x, (int, Fraction)) for x in c):
        rho = Fraction(rho)
    if M < N:
        return rho**0 / c[M]
    return sum(hook_dimension(M, N, j) ** 2 * rho ** (M - j) / c[j] for j in range(N))


_RHOS = st.sampled_from(
    [0.25, 1.0, 1.75, 3.0, 1e-3, np.float64(0.75), np.float64(2.5)]
    + [1, 3, Fraction(1, 4), Fraction(7, 3)]
)
_COEFFICIENTS = st.one_of(
    st.integers(1, 9),
    st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)),
    st.floats(0.05, 9.0),
)


@settings(max_examples=300)
@given(_RHOS, st.lists(_COEFFICIENTS, min_size=1, max_size=4), st.integers(0, 8))
@example(3, [Fraction(7, 6), 0.7], 2)  # an int rho sums an exact Fraction term, then floats
@example(np.float64(0.75), [Fraction(7, 6), 2, 0.7], 3)
def test_loewner_constant_matches_the_dispatch_formula(rho, c, M):
    # with a float rho the Loewner checks take the constant over float
    # coefficients; it must be the float of the formula's own value
    want = _dispatch_constant(c, M, len(c), rho)
    assert threshold_constant(c, M, len(c), rho) == want
    N = len(c)
    _, _, C = _loewner_inputs(c, M, rho, np.zeros((N, N)), 1e-9, refine=False)
    assert C == float(want)
