"""The Cholesky-certified PSD decision against the eigenvalue-only reference.

``spectral.psd_verdict`` (behind ``require_psd`` and ``psd_check``) accepts a
matrix of any order without an eigen-solve when tol >= 64 n^2 eps and a
factorisation of a slightly shifted copy succeeds.  The references below are
the eigenvalue-only code it replaced (0 x 0 input, now refused by
``require_square``, is tested in ``test_psd.py``).  On every input both must
agree exactly: the same returned array (values and dtype) and the same
verdict, or the same exception type and message.  The shifts reach both
sides of the certificate: with the largest diagonal entry at max(1, scale),
as on the unit-scale matrices here, an eigenvalue 0.45 tol * scale below
zero is certified and one 0.55 below is not, so the eigenvalues must still
accept it.
"""

import math

import numpy as np
import pytest

from entrywise import spectral
from entrywise.psd import psd_check
from entrywise.strata import GroupTag, IndexPartition, generate_in_stratum

TOLS = (0.0, 1e-15, 1e-9, 1e-3)
SHIFTS = (None, 0.1, 0.45, 0.55, 0.9, 1.1, 2.0)  # lambda_min = -k * tol * scale
SCALES = (1e-20, 1.0, 1e20)
ORDERS = (1, 2, 3, 4, 5, 8, 12, 15, 16, 17)


# --- references ---------------------------------------------------------------


def ref_require_hermitian(A, tol):
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("square matrix required")
    amax = float(np.abs(A).max()) if A.size else 0.0
    if not math.isfinite(amax):
        raise ValueError("matrix has a non-finite entry")
    if np.abs(A - A.conj().T).max() > tol * max(1.0, amax):
        raise ValueError("matrix is not Hermitian within tolerance")
    return (A + A.conj().T) / 2


def ref_require_psd(A, tol):
    H = ref_require_hermitian(A, tol)
    w = np.linalg.eigvalsh(H)
    w_min, scale = w[0], np.abs(w).max(initial=1.0)
    if not w_min >= -tol * scale:
        raise ValueError(f"matrix is not positive semidefinite: eigenvalue {w_min:.6g}")
    return H


def ref_psd_check(A, tol):
    w = np.linalg.eigvalsh(ref_require_hermitian(A, tol))
    return bool(w[0] >= -tol * np.abs(w).max(initial=1.0))


# --- inputs ---------------------------------------------------------------------


def _base(kind, n, complex_, rng):
    """Rank-one, rank-three or full-rank Wishart PSD matrix of largest eigenvalue ~1."""
    k = {"rank-one": 1, "low-rank": 3, "wishart": n + 2}[kind]
    G = rng.standard_normal((n, k))
    if complex_:
        G = G + 1j * rng.standard_normal((n, k))
    P = spectral.hermitian_part(G @ G.conj().T)
    return P / np.linalg.eigvalsh(P)[-1]


def _shifted(P, k, tol):
    """P moved along the identity so that its smallest eigenvalue is about
    -k * tol * max(1, largest eigenvalue)."""
    if k is None:
        return P
    w = np.linalg.eigvalsh(P)
    target = -k * tol * max(1.0, float(w[-1]))
    H = P.copy()
    H.flat[:: P.shape[0] + 1] += target - w[0]
    return H


def _stratum_matrix(N, group, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, N // 4, size=N)
    blocks = {}
    for i, label in enumerate(labels.tolist()):
        blocks.setdefault(label, []).append(i)
    return generate_in_stratum(IndexPartition(tuple(tuple(b) for b in blocks.values())), group, seed)


def _outcome(f, A, tol):
    try:
        return "value", f(A, tol)
    except ValueError as exc:
        return type(exc), str(exc)


def _assert_same(A, tol):
    got, want = _outcome(spectral.require_psd, A, tol), _outcome(ref_require_psd, A, tol)
    if got[0] == "value" and want[0] == "value":
        assert got[1].dtype == want[1].dtype and np.array_equal(got[1], want[1])
    else:
        assert got == want
    got, want = _outcome(psd_check, A, tol), _outcome(ref_psd_check, A, tol)
    assert got == want


class _Count:
    """Counts np.linalg.eigvalsh calls while installed."""

    def __init__(self, monkeypatch):
        self.calls = 0
        eigvalsh = np.linalg.eigvalsh

        def counted(H):
            self.calls += 1
            return eigvalsh(H)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)


# --- tests ----------------------------------------------------------------------


@pytest.mark.parametrize("seed, kind", enumerate(["rank-one", "low-rank", "wishart"]))
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_families_match_reference(seed, kind, complex_):
    rng = np.random.default_rng([seed, complex_])
    for n in ORDERS:
        P = _base(kind, n, complex_, rng)
        for scale in SCALES:
            for tol in TOLS:
                for k in SHIFTS:
                    _assert_same(_shifted(P * scale, k, tol), tol)


@pytest.mark.parametrize("group", tuple(GroupTag), ids=lambda g: g.value)
def test_strata_matrices_match_reference(group):
    for seed, N in enumerate((16, 24, 48, 80)):
        A = _stratum_matrix(N, group, seed)
        for tol in TOLS:
            for k in SHIFTS:
                _assert_same(_shifted(A, k, tol), tol)


@pytest.mark.parametrize(
    "A",
    [
        np.triu(np.ones((20, 20))),
        np.diag([1.0] * 19 + [np.nan]),
        np.diag([1.0] * 19 + [-1.0]),
        -np.eye(20),
        np.zeros((20, 20)),
        np.ones((16, 17)),
        np.diag([1.0, np.nan]),
        np.diag([1.0, -1.0]),
        np.triu(np.ones((3, 3))),
        -np.eye(1),
        np.zeros((2, 2)),
    ],
)
def test_invalid_inputs_match_reference(A):
    for tol in TOLS:
        _assert_same(A, tol)


@pytest.mark.parametrize("n", [4, 24])
def test_both_routes_are_taken(monkeypatch, n):
    # k = 0.45 leaves H + delta I positive definite, k = 0.55 does not; both
    # are PSD within tol, so only the route differs
    P = _base("wishart", n, True, np.random.default_rng(7))
    cases = [(_shifted(P, k, 1e-3), k < 1, solves) for k, solves in
             ((0.1, 0), (0.45, 0), (0.55, 1), (0.9, 1), (1.1, 1))]
    count = _Count(monkeypatch)
    for H, psd, solves in cases:
        before = count.calls
        assert psd_check(H, 1e-3) is psd
        assert count.calls - before == solves


def test_certified_stratum_matrix_needs_no_eigen_solve(monkeypatch):
    A = _stratum_matrix(80, GroupTag.UNIT_CIRCLE, 3)
    count = _Count(monkeypatch)
    assert np.array_equal(spectral.require_psd(A, 1e-9), spectral.hermitian_part(A))
    assert psd_check(A, 1e-9)
    assert count.calls == 0
    psd_check(A, 0.0)  # tol = 0 is below the guard: the eigenvalues decide
    assert count.calls == 1


@pytest.mark.parametrize("n", ORDERS)
def test_certificate_runs_at_every_order(monkeypatch, n):
    count = _Count(monkeypatch)
    assert psd_check(np.eye(n), 1e-9)
    assert count.calls == 0
    assert psd_check(np.eye(n), 0.0)  # below the guard: the eigenvalues decide
    assert count.calls == 1


@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_hermitian_validation_runs_once(monkeypatch, tol):
    calls = []
    require_hermitian = spectral.require_hermitian
    monkeypatch.setattr(
        spectral, "require_hermitian", lambda A, tol: calls.append(tol) or require_hermitian(A, tol)
    )
    spectral.require_psd(np.eye(40), tol)
    assert calls == [tol]
