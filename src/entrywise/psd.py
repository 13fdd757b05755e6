"""Hermitian spectral utilities and generalized Rayleigh quotients of Hadamard powers.

The extreme critical value of A (for coefficients c and exponent M) is

    sup { x* A^(oM) x / x* h_c[A] x : x orthogonal to K(A) },

where h_c[A] = sum_j c_j A^(oj) and K(A) is the simultaneous kernel of all
Hadamard powers.  Three independent evaluation routes live here: the
spectral-radius formula through the Moore-Penrose square root, the rank-one
closed form through hook Schur polynomials, and a direct variational solve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce
from typing import Optional, Sequence

import numpy as np

from . import spectral, strata
from .hadamard import _h_hermitian, _require_exponent, coefficients, hadamard_power
from .samplers import _disc_radius, near_corner_path
from .schur import hook_values

RANK_CUT = 1e-12


@dataclass
class RayleighResult:
    value: float
    maximizer: Optional[np.ndarray]
    method: str


@dataclass
class DiscontinuityProbe:
    """Rayleigh values along a rank-one path pinching into the all-ones corner."""

    rows: tuple  # (epsilon, value) pairs, epsilon descending
    on_point_value: float
    limit_estimate: float


def psd_check(A: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff A is Hermitian (validated) with min eigenvalue >= -tol * max(1, ||A||)."""
    return spectral.psd_verdict(A, tol)[1] is None


def moore_penrose_sqrt(A: np.ndarray, tol: float = RANK_CUT) -> np.ndarray:
    """Hermitian PSD pseudo-inverse square root A^(+/2).

    Eigenvalues at or below tol * lambda_max are treated as kernel directions
    and zeroed; the rest are replaced by their inverse square roots.
    """
    return _pinv_sqrt(spectral.require_hermitian(A, max(tol, 1e-9)), tol)


def _pinv_sqrt(H: np.ndarray, tol: float) -> np.ndarray:
    """moore_penrose_sqrt of the Hermitian H, unchecked: eigh reads its lower triangle."""
    w, V = np.linalg.eigh(H)
    if not np.isfinite(w).all():  # eigh returns NaN for a non-finite entry
        raise ValueError("matrix has a non-finite eigenvalue")
    wmax = float(w[-1])
    if wmax <= 0 and np.max(np.abs(w)) <= tol:
        return np.zeros_like(V)
    if wmax <= 0 or w[0] < -1e-9 * wmax:
        raise ValueError(f"matrix is not positive semidefinite: eigenvalue {w[0]:.6g}")
    cut = tol * wmax
    inv = np.where(w > cut, 1.0 / np.sqrt(np.maximum(w, cut)), 0.0)
    return (V * inv) @ V.conj().T


def _unit(x: np.ndarray) -> np.ndarray:
    """x scaled to unit Euclidean norm; a zero vector is returned unchanged."""
    norm = np.linalg.norm(x)
    return x / norm if norm > 0 else x


def rayleigh_constant(c: Sequence, M: int, A: np.ndarray, tol: float = 1e-9) -> RayleighResult:
    """Extreme critical value via the spectral radius of h_c[A]^(+/2) A^(oM) h_c[A]^(+/2).

    Valid for every nonzero PSD A; the pseudo-inverse square root projects out
    the simultaneous kernel automatically.
    """
    _, hc, AM = _rayleigh_inputs(c, M, A, tol)
    # h_c of the exactly Hermitian A is exactly Hermitian, so it needs no check
    S = _pinv_sqrt(hc, RANK_CUT)
    w, V = np.linalg.eigh(spectral.hermitian_part(S @ AM @ S))
    return RayleighResult(float(w[-1]), _unit(S @ V[:, -1]), "spectral-radius")


def _rayleigh_inputs(c: Sequence, M: int, A, tol: float):
    """(H, h_c[H], H^(oM)) for H = require_psd(A, tol): H nonzero, both
    finite; the two arrays are kept with H while H is the validation memo's
    matrix (spectral.derived), so a repeat call checks neither again."""
    H = spectral.require_psd(A, tol)
    if np.abs(H).max() == 0.0:
        raise ValueError("zero matrix has no Rayleigh constant")
    hc = _h(coefficients(c, H.shape[0]), H)
    AM = spectral.derived(H, ("power", M), _finite_power, H, M)
    return H, hc, AM


def _h(cs: tuple, H: np.ndarray) -> np.ndarray:
    """h_c[H] for the exactly Hermitian H, which must be finite (its
    eigenvalues would be NaN), kept with H while H is the validation memo's
    matrix (spectral.derived); keyed by the coefficients as h_matrix uses
    them."""
    return spectral.derived(H, ("h", tuple(complex(x) for x in cs)), _finite_h, cs, H)


def _finite_h(cs: tuple, H: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):  # an overflow leaves inf or NaN, rejected below
        hc = _h_hermitian(cs, H)
    if not np.isfinite(hc).all():
        raise ValueError("matrix has a non-finite eigenvalue")
    return hc


def _finite_power(H: np.ndarray, M: int) -> np.ndarray:
    with np.errstate(all="ignore"):  # an overflow leaves inf or NaN, rejected below
        AM = hadamard_power(H, M)
    if not np.isfinite(AM).all():
        raise ValueError("A^(oM) has a non-finite entry")
    return AM


def rayleigh_rank_one(c: Sequence, M: int, u: Sequence) -> float:
    """Closed form sum_j |s_hook(M,N,j)(u)|^2 / c_j for rank-one input u u*.

    Exact for pairwise distinct u; at (near-)coincident coordinates the value
    is still the hooks' branching-rule evaluation but no longer equals the
    spectral constant of u u* (the map is discontinuous there), so a warning
    is emitted.
    """
    u = list(u)
    cs = coefficients(c, len(u))  # a bad c raises before any warning
    _warn_near_coincident(M, len(u), [u])
    return _rank_one_values(cs, M, [u])[0]


def _warn_near_coincident(M: int, N: int, points) -> None:
    """Warn once per point, of length N, with near-coincident coordinates if M >= N."""
    if M < N:
        return
    for u in points:
        z = [complex(x) for x in u]
        scale = max(1.0, max(abs(x) for x in z))
        if any(abs(z[i] - z[j]) <= 1e-7 * scale for i in range(N) for j in range(i + 1, N)):
            warnings.warn("near-coincident coordinates: formal closed-form value", stacklevel=3)


def _rank_one_values(cs: tuple, M: int, points) -> list:
    """rayleigh_rank_one at each of the points, for checked coefficients cs
    (one per coordinate), from one hook_values call and without warnings."""
    _require_exponent(M)
    cf = [float(x) for x in cs]
    if M < len(cf):
        return [1.0 / cf[M] for _ in points]
    # coefficients are positive, so every term is >= 0 and the int start adds nothing
    rows = hook_values(M, points)
    return [sum(abs(complex(s)) ** 2 / cj for s, cj in zip(row, cf)) for row in rows]


def rayleigh_variational(c: Sequence, M: int, A: np.ndarray, tol: float = 1e-9) -> RayleighResult:
    """Extreme critical value by direct maximization over the kernel complement.

    The simultaneous kernel is taken from the stratification of A (block
    structure, not a borderline numerical rank decision); its orthogonal
    complement is spanned by normalized block indicators, and the quotient
    restricted there is a generalized Hermitian eigenproblem.  That pair
    (A^(oM) and h_c[A] compressed to the complement) is solved by LAPACK's
    ``zhegvd`` (:func:`_pair_eigh`) with the two checks of
    ``scipy.linalg.eigh``: a non-finite compressed form raises ValueError
    before LAPACK runs, and a failed solve raises LinAlgError (the first
    one is retried on the range of the compressed h_c[A]).

    In the generic case every trivial-group block is a singleton: the
    kernel is {0}, the indicators are the identity, and the pair is
    A^(oM) and h_c[A] themselves, solved with no compression (products
    with the identity are exact, so the bits are those of the compressed
    pair).
    """
    A, hc, AM = _rayleigh_inputs(c, M, A, tol)
    N = A.shape[0]
    pi = strata._stratify(A, strata.GroupTag.TRIVIAL, tol)
    if len(pi.blocks) == N:  # all singletons: the identity basis, left out
        basis = ()
        Ap, Hp = spectral.hermitian_part(AM), spectral.hermitian_part(hc)
    else:
        sizes = [len(block) for block in pi.blocks]
        cols = np.repeat(np.arange(len(sizes)), sizes)  # block of each listed index
        Q = np.zeros((N, len(sizes)), dtype=complex)
        Q[[i for block in pi.blocks for i in block], cols] = (1.0 / np.sqrt(sizes))[cols]
        basis = (Q,)
        with np.errstate(all="ignore"):  # an overflow leaves inf or NaN, which _pair_eigh rejects
            Ap = spectral.hermitian_part(Q.conj().T @ AM @ Q)
            Hp = spectral.hermitian_part(Q.conj().T @ hc @ Q)
    try:
        w, W = _pair_eigh(Ap, Hp)
    except np.linalg.LinAlgError:
        # On strata of the other groups the trivial-group block indicators
        # can span joint-kernel directions, which makes Hp singular: solve on
        # the range of Hp.
        wh, Vh = np.linalg.eigh(Hp)
        R = Vh[:, ~spectral.kernel_mask(wh, tol)]
        w, W = _pair_eigh(
            spectral.hermitian_part(R.conj().T @ Ap @ R),
            spectral.hermitian_part(R.conj().T @ Hp @ R),
        )
        # with no Q, R in the C order of the product Q R, as the layout
        # sets how BLAS sums R W[:, idx]
        basis += (R,) if basis else (np.ascontiguousarray(R),)
    idx = int(np.argmax(w))
    x = reduce(np.matmul, basis + (W[:, idx],))  # (Q R) W[:, idx], of the factors present
    return RayleighResult(float(w[idx]), _unit(x), "variational")


def _pair_eigh(Ap: np.ndarray, Bp: np.ndarray):
    """(w, W) of the Hermitian definite pair Ap x = w Bp x: the one
    ``zhegvd`` call (itype 1, jobz "V", lower triangle, inputs copied) that
    ``scipy.linalg.eigh(Ap, Bp)`` makes for complex input with its default
    driver, so the same bits, without the wrapper, which costs more than
    LAPACK on small pairs.  Its two checks stay: a non-finite entry, which
    LAPACK would turn into a silent value, raises ValueError, and a nonzero
    info (Bp not positive definite, or no convergence) LinAlgError.
    """
    from scipy.linalg import lapack  # here, so that importing the package leaves scipy unloaded

    if not (np.isfinite(Ap).all() and np.isfinite(Bp).all()):
        raise ValueError("compressed Rayleigh pair has a non-finite entry")
    w, W, info = lapack.zhegvd(Ap, Bp, uplo="L")
    if info:
        raise np.linalg.LinAlgError(f"generalized eigenproblem failed: zhegvd info {info}")
    return w, W


def discontinuity_probe(
    c: Sequence, M: int, N: int, rho, epsilons: Sequence[float]
) -> DiscontinuityProbe:
    """Evaluate the Rayleigh map along u_eps,k = sqrt(rho)(1 - eps k/N) and at the corner.

    Path values use the rank-one closed form (exact along the path, where the
    coordinates are pairwise distinct); the on-point value at rho * all-ones
    uses the spectral formula, which is the only route defined there.  The
    limit estimate is the value at the smallest epsilon.
    """
    eps = [float(e) for e in epsilons]
    if not eps or any(e <= 0 for e in eps):
        raise ValueError("epsilons must be positive")
    if any(eps[i] <= eps[i + 1] for i in range(len(eps) - 1)):
        raise ValueError("epsilons must be strictly decreasing")
    rho = _disc_radius(N, rho)
    path = near_corner_path(N, rho, eps).tolist()
    cs = coefficients(c, N)  # a bad c raises before any warning
    _warn_near_coincident(M, N, path)
    rows = list(zip(eps, _rank_one_values(cs, M, path)))
    corner = rho * np.ones((N, N))
    on_point = rayleigh_constant(c, M, corner).value
    return DiscontinuityProbe(tuple(rows), on_point, rows[-1][1])
