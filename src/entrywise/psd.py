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
from typing import Optional, Sequence

import numpy as np
import scipy.linalg

from . import spectral, strata
from .hadamard import h_matrix, hadamard_power
from .partitions import hook_partition
from .samplers import near_corner_path
from .schur import schur_eval

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


def _coefficients(c: Sequence, N: int) -> list:
    cs = [float(x) for x in c]
    if len(cs) != N:
        raise ValueError(f"need {N} coefficients, got {len(cs)}")
    if any(not (x > 0) for x in cs):
        raise ValueError("coefficients must be positive")
    return cs


def psd_check(A: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff A is Hermitian (validated) with min eigenvalue >= -tol * max(1, ||A||)."""
    w_min, scale = spectral.min_eigenvalue(spectral.require_hermitian(A, tol))
    return bool(w_min >= -tol * scale)


def moore_penrose_sqrt(A: np.ndarray, tol: float = RANK_CUT) -> np.ndarray:
    """Hermitian PSD pseudo-inverse square root A^(+/2).

    Eigenvalues at or below tol * lambda_max are treated as kernel directions
    and zeroed; the rest are replaced by their inverse square roots.
    """
    w, V = np.linalg.eigh(spectral.require_hermitian(A, max(tol, 1e-9)))
    wmax = float(w[-1]) if w.size else 0.0
    if wmax <= 0 and np.max(np.abs(w)) <= tol:
        return np.zeros_like(V)
    if wmax <= 0 or w[0] < -1e-9 * wmax:
        raise ValueError(f"matrix is not positive semidefinite: eigenvalue {w[0]:.6g}")
    cut = tol * wmax
    inv = np.where(w > cut, 1.0 / np.sqrt(np.maximum(w, cut)), 0.0)
    return (V * inv) @ V.conj().T


def rayleigh_constant(c: Sequence, M: int, A: np.ndarray, tol: float = 1e-9) -> RayleighResult:
    """Extreme critical value via the spectral radius of h_c[A]^(+/2) A^(oM) h_c[A]^(+/2).

    Valid for every nonzero PSD A; the pseudo-inverse square root projects out
    the simultaneous kernel automatically.
    """
    A = spectral.require_psd(A, tol)
    if np.max(np.abs(A)) == 0.0:
        raise ValueError("zero matrix has no Rayleigh constant")
    cs = _coefficients(c, A.shape[0])
    S = moore_penrose_sqrt(np.asarray(h_matrix(cs, A)))
    w, V = np.linalg.eigh(spectral.hermitian_part(S @ hadamard_power(A, M) @ S))
    value = float(w[-1])
    maximizer = S @ V[:, -1]
    norm = np.linalg.norm(maximizer)
    if norm > 0:
        maximizer = maximizer / norm
    return RayleighResult(value, maximizer, "spectral-radius")


def rayleigh_rank_one(c: Sequence, M: int, u: Sequence) -> float:
    """Closed form sum_j |s_hook(M,N,j)(u)|^2 / c_j for rank-one input u u*.

    Exact for pairwise distinct u; at (near-)coincident coordinates the value
    is still the stable Jacobi-Trudi evaluation but no longer equals the
    spectral constant of u u* (the map is discontinuous there), so a warning
    is emitted.
    """
    u = list(u)
    N = len(u)
    cs = _coefficients(c, N)
    if M < N:
        return 1.0 / cs[M]
    z = [complex(x) for x in u]
    scale = max(1.0, max(abs(x) for x in z))
    if any(abs(z[i] - z[j]) <= 1e-7 * scale for i in range(N) for j in range(i + 1, N)):
        warnings.warn("near-coincident coordinates: formal closed-form value", stacklevel=2)
    total = 0.0
    for j in range(N):
        s = schur_eval(hook_partition(M, N, j), u)
        total += abs(complex(s)) ** 2 / cs[j]
    return float(total)


def rayleigh_variational(c: Sequence, M: int, A: np.ndarray, tol: float = 1e-9) -> RayleighResult:
    """Extreme critical value by direct maximization over the kernel complement.

    The simultaneous kernel is taken from the stratification of A (block
    structure, not a borderline numerical rank decision); its orthogonal
    complement is spanned by normalized block indicators, and the quotient
    restricted there is a generalized Hermitian eigenproblem.
    """
    A = spectral.require_hermitian(A, tol)
    if np.max(np.abs(A)) == 0.0:
        raise ValueError("zero matrix has no Rayleigh constant")
    N = A.shape[0]
    cs = _coefficients(c, N)
    pi = strata.stratify(A, strata.GroupTag.TRIVIAL, tol)
    Q = np.zeros((N, len(pi.blocks)), dtype=complex)
    for col, block in enumerate(pi.blocks):
        Q[list(block), col] = 1.0 / np.sqrt(len(block))
    Ap = spectral.hermitian_part(Q.conj().T @ hadamard_power(A, M) @ Q)
    Hp = spectral.hermitian_part(Q.conj().T @ np.asarray(h_matrix(cs, A)) @ Q)
    w, W = scipy.linalg.eigh(Ap, Hp)
    idx = int(np.argmax(w))
    maximizer = Q @ W[:, idx]
    norm = np.linalg.norm(maximizer)
    if norm > 0:
        maximizer = maximizer / norm
    return RayleighResult(float(w[idx]), maximizer, "variational")


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
    path = near_corner_path(N, float(rho) ** 0.5, eps).tolist()
    rows = [(e, rayleigh_rank_one(c, M, u)) for e, u in zip(eps, path)]
    corner = float(rho) * np.ones((N, N))
    on_point = rayleigh_constant(c, M, corner).value
    return DiscontinuityProbe(tuple(rows), on_point, rows[-1][1])
