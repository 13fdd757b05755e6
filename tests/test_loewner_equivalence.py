"""The two Loewner checks against the routes they replaced.

``threshold.lmi_check`` and ``threshold.pd_refinement_check`` validate A
once and build their Loewner difference from its Hermitian part H, with h_c
by ``h_matrix``, which evaluates floats by Horner's rule; ``lmi_check`` then
decides the difference without a second validation.  The references below
are the earlier routes, copied verbatim (names prefixed ``ref_``): they
evaluated h_c on the raw A by the ascending sum that ``h_matrix`` was then
(``ref_h_matrix``) and, in ``lmi_check``, validated the difference through
``psd_check``.  The float bits of the difference differ, so only outcomes are
compared: the same boolean, or the same exception type and message.  The one
intended change is pinned at the end: the reference could raise "not
Hermitian within tolerance" about the difference when A was Hermitian only
within tol; the check now decides A's Hermitian part.
"""

import sys
from fractions import Fraction

import numpy as np
import pytest

from entrywise import spectral, threshold
from entrywise.hadamard import coefficients, entrywise_poly, hadamard_power
from entrywise.partitions import _require_m_ge_n
from entrywise.psd import psd_check
from entrywise.samplers import NEAR_CORNER_DELTAS, near_corner_path, psd_disc_samples
from entrywise.threshold import (
    _threshold_constant,
    lmi_check,
    pd_refinement_check,
    threshold_constant,
)

NS = (2, 3, 4, 5, 6)
RHOS = (0.25, 1.0, 2.0)
TOLS = (1e-9, 1e-12)
DRAWS = 60
# the sampler's ladder, then a nested geometric one down to 2^-48
LADDER = NEAR_CORNER_DELTAS + tuple(2.0 ** (-k) for k in range(1, 49))
U = float(np.finfo(float).eps) / 2
SHARP = _threshold_constant


# --- references ---------------------------------------------------------------


def ref_h_matrix(coeffs_ascending, A):
    """sum_j c_j A^(oj) for dense coefficients c_0..c_{d}."""
    return entrywise_poly(dict(enumerate(coeffs_ascending)), A)


def ref_loewner_inputs(c, M: int, rho, A: np.ndarray, tol: float, refine: bool):
    """(A, float coefficients, sharp constant C) of the two Loewner checks.

    Checks, in this order: A square, the coefficients, A PSD with entries in
    the closed disc of radius rho.  With ``refine`` it adds the hypotheses of
    pd_refinement_check: N > 1 before the coefficients, M >= N after them,
    and a row of pairwise distinct entries after the disc.
    """
    A = spectral.require_square(A)
    N = A.shape[0]
    if refine and N < 2:
        raise ValueError("need N >= 2")
    cs = coefficients(c, N)
    if refine:
        _require_m_ge_n(M, N)
    spectral.require_psd(A, tol)
    peak = float(np.max(np.abs(A)))
    if peak > float(rho) * (1.0 + 1e-9) + tol:
        raise ValueError(f"entries exceed the closed disc of radius {rho}")
    if refine:
        scale = max(1.0, peak)
        pairs = [(j, k) for j in range(N) for k in range(j + 1, N)]
        if not any(all(abs(row[j] - row[k]) > tol * scale for j, k in pairs) for row in A):
            raise ValueError("no row with pairwise distinct entries")
    # a float term over a Fraction c_j is float(term) / float(c_j) in Fraction's
    # own division, so with a float rho the float coefficients give the same constant
    fcs = [float(x) for x in cs]
    return A, fcs, float(_threshold_constant(fcs if isinstance(rho, float) else cs, M, N, rho))


def ref_lmi_check(c, M: int, rho, A: np.ndarray, tol: float = 1e-9) -> bool:
    """Loewner inequality A^(oM) <= C * sum_j c_j A^(oj) at the sharp constant."""
    A, cs, C = ref_loewner_inputs(c, M, rho, A, tol, refine=False)
    return psd_check(C * np.asarray(ref_h_matrix(cs, A)) - hadamard_power(A, M), tol)


def ref_pd_refinement_check(c, M: int, rho, A: np.ndarray, tol: float = 1e-9) -> bool:
    """Strict positive definiteness of (sum_j c_j A^(oj)) - (1/C) A^(oM).

    Requires N > 1 and some row of A with pairwise distinct entries (in
    particular A != rho * all-ones); under that hypothesis the boundary
    polynomial sends A to a positive definite matrix, not merely PSD.
    """
    A, cs, C = ref_loewner_inputs(c, M, rho, A, tol, refine=True)
    F = np.asarray(ref_h_matrix(cs, A)) - hadamard_power(A, M) / C
    w_min, scale, _ = spectral.psd_failures(F, tol)
    return bool(w_min > tol * scale)


# --- helpers ------------------------------------------------------------------


def _outcome(f, *args):
    """f(*args), or the type and message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _coefficient_sets(N, seed):
    """All ones, seeded floats in [0.5, 2) and seeded Fractions (as the benchmark draws)."""
    rng = np.random.default_rng([N, seed])
    floats = tuple(float(x) for x in rng.uniform(0.5, 2.0, N))
    fractions = tuple(Fraction(int(p), int(q)) for p, q in rng.integers(1, 10, size=(N, 2)))
    return ((1.0,) * N, floats, fractions)


def _assert_same(checks, c, M, rho, A, tol):
    for check, ref in checks:
        assert _outcome(check, c, M, rho, A, tol) == _outcome(ref, c, M, rho, A, tol)


BOTH = ((lmi_check, ref_lmi_check), (pd_refinement_check, ref_pd_refinement_check))
LMI = BOTH[:1]


# --- verdicts -----------------------------------------------------------------


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("rho", RHOS)
@pytest.mark.parametrize("N", NS)
def test_sampled_verdicts_match_the_references(N, rho, tol):
    samples = list(psd_disc_samples(N, rho, DRAWS, np.random.default_rng([N, int(4 * rho)])))
    for k, c in enumerate(_coefficient_sets(N, 0)):
        for M in (N, N + 1 + k):
            for A in samples:
                _assert_same(BOTH, c, M, rho, A, tol)
        # M < N: only lmi_check is defined there
        for A in samples[:: 3]:
            _assert_same(LMI, c, N - 1, rho, A, tol)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("rho", RHOS)
@pytest.mark.parametrize("N", NS)
def test_near_corner_verdicts_match_the_references(N, rho, tol):
    # the rank-one path along which the constant is sharp: the inequality is tight
    path = near_corner_path(N, rho, LADDER)
    for c in _coefficient_sets(N, 1):
        for M in (N, N + 2):
            for u in path:
                _assert_same(BOTH, c, M, rho, np.outer(u, u), tol)


# --- overflow -----------------------------------------------------------------


@pytest.mark.parametrize(
    "c,M,rho,A",
    [
        # C ~ 1e300: C c_1 overflows, but C h_c[A] peaks near 1e305
        ((1e-300, 1e10), 2, 1.0, 1e-5 * np.eye(2)),
        # ordinary coefficients at a large radius: C c_1 overflows, C h_c[A] does not
        ((1.0, 1000.0), 16, 1e19, 1e-3 * np.eye(2)),
    ],
)
def test_a_constant_that_overflows_a_coefficient_decides_as_the_reference(c, M, rho, A):
    C = float(threshold_constant(c, M, 2, rho))
    assert np.isinf(C * max(c)) and np.isfinite(C * ref_h_matrix(c, A)).all()
    assert _outcome(lmi_check, c, M, rho, A) == _outcome(ref_lmi_check, c, M, rho, A) == True


# --- the difference -----------------------------------------------------------


def _captured(monkeypatch, name):
    """The matrices that each later call of spectral.<name> receives."""
    seen, run = [], getattr(spectral, name)
    monkeypatch.setattr(spectral, name, lambda F, tol: seen.append(F) or run(F, tol))
    return seen


def test_the_difference_is_exactly_hermitian(monkeypatch):
    decided, failures = _captured(monkeypatch, "_decide"), _captured(monkeypatch, "psd_failures")
    rng = np.random.default_rng(11)
    for N in NS:
        c = (1.0, 0.5, 2.0, 1.0, 3.0, 0.25)[:N]
        for A in psd_disc_samples(N, 1.0, 20, rng):
            spectral.clear_memo()
            assert lmi_check(c, N + 1, 1.0, A)
            pd_refinement_check(c, N + 1, 1.0, A)
    # the validation of A decides its H too, which is Hermitian as well
    assert len(decided) >= 2 * len(failures) > 0
    for F in decided + failures:
        assert np.array_equal(F, F.conj().T)


def _scaled_constant(monkeypatch, factor):
    """Both routes at factor times the sharp constant."""
    scaled = lambda *args: factor * SHARP(*args)  # noqa: E731
    monkeypatch.setattr(threshold, "_threshold_constant", scaled)
    monkeypatch.setattr(sys.modules[__name__], "_threshold_constant", scaled)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("N", NS)
def test_a_smaller_constant_decides_alike_but_at_rounding_ties(monkeypatch, N, tol):
    # Below C the inequality breaks near the corner (test_threshold's C/2
    # construction), so the decision can fall anywhere.  The two differences
    # round differently, so where the reference's smallest eigenvalue lies
    # within rounding of the cut -tol * scale either verdict is right; the
    # decisions must agree everywhere else.
    for factor in (0.5, 0.9, 0.999, 1.0):
        _scaled_constant(monkeypatch, factor)
        for c in _coefficient_sets(N, 3):
            for rho in RHOS:
                for M in (N, N + 2):
                    for u in near_corner_path(N, rho, LADDER):
                        A = np.outer(u, u)
                        if lmi_check(c, M, rho, A, tol) != ref_lmi_check(c, M, rho, A, tol):
                            _, cs, C = ref_loewner_inputs(c, M, rho, A, tol, False)
                            R = C * ref_h_matrix(cs, A) - hadamard_power(A, M)
                            w = np.linalg.eigvalsh(spectral.hermitian_part(R))
                            scale = max(1.0, float(np.abs(w).max()))
                            tie = 16 * N * N * U * scale
                            assert abs(w[0] + tol * scale) <= tie


def test_half_the_constant_decides_as_the_reference(monkeypatch):
    # test_threshold's construction, strictly: at C/2 the inequality breaks on the path
    _scaled_constant(monkeypatch, 0.5)
    c = (1.0, 1.0)
    decisions = set()
    for u in near_corner_path(2, 1.0, NEAR_CORNER_DELTAS):
        A = np.outer(u, u)
        new = lmi_check(c, 2, 1.0, A)
        assert new == ref_lmi_check(c, 2, 1.0, A)
        decisions.add(new)
    assert decisions == {False, True}


# --- the one change -----------------------------------------------------------


def test_a_nearly_hermitian_matrix_is_decided_by_its_hermitian_part():
    # A is Hermitian within tol, but C h_c[A] - A^(o2) is not, on its own scale
    A = np.array([[1e-3, 5e-4], [5e-4 + 5e-10, 1e-3]])
    c = (1.0, 1e6)
    with pytest.raises(ValueError, match="^matrix is not Hermitian within tolerance$"):
        ref_lmi_check(c, 2, 1.0, A)
    H = spectral.hermitian_part(np.asarray(A, dtype=complex))
    assert lmi_check(c, 2, 1.0, A) is True
    assert lmi_check(c, 2, 1.0, H) is True
    assert ref_lmi_check(c, 2, 1.0, H) is True
