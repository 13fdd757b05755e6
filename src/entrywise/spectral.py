"""Hermitian parts, PSD validation and scale-relative eigenvalue tests.

Every positivity decision in the package has one meaning: the smallest
eigenvalue of a Hermitian part, compared on the scale max(1, spectral
radius).  This module holds that test once.  Code that needs the spectrum
(``psd_spectrum``, ``min_eigenvalue`` on a stack) runs an eigen-solve; the
yes/no decision of :func:`psd_verdict` behind ``require_psd`` and
``psd.psd_check`` first tries, from order 16 on, a Cholesky certificate
that accepts only what the eigenvalue test accepts, and solves when the
certificate is not tried or fails.  It
imports numpy only, so every other module (``strata`` included, which
``psd`` imports) can use it.  ``hermitian_part`` and ``min_eigenvalue``
take one matrix or a stack ``(k, N, N)``.  Eigen-solves and factorisations
are looked up on ``np.linalg`` at call time.
"""

from __future__ import annotations

import math

import numpy as np

# Smallest order at which the Cholesky certificate is tried: below it the
# factorisation saves at most a few microseconds over the eigen-solve (3 us
# at n = 8, 11 us at n = 16 on a 2-core Xeon with one BLAS thread).
CERTIFY_MIN_N = 16
# K of the guard tol >= K n^2 eps under which a factorisation certifies;
# see psd_verdict for the bound it must meet.
CERTIFY_GUARD = 64
_EPS = float(np.finfo(float).eps)


def hermitian_part(X: np.ndarray) -> np.ndarray:
    """(X + X^H) / 2 over the last two axes."""
    return (X + X.conj().swapaxes(-1, -2)) / 2


def require_square(A) -> np.ndarray:
    """A as a complex array, which must be a non-empty square matrix;
    raises ValueError otherwise."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise ValueError("square matrix required")
    return A


def require_hermitian(A, tol: float) -> np.ndarray:
    """Hermitian part of the square matrix A, which must be finite and
    Hermitian within tol * max(1, max|a_ij|); raises ValueError otherwise."""
    A = require_square(A)
    amax = float(np.abs(A).max())
    if not math.isfinite(amax):  # a NaN would pass every tolerance test below
        raise ValueError("matrix has a non-finite entry")
    scale = max(1.0, amax)
    if np.abs(A - A.conj().T).max() > tol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return hermitian_part(A)


def min_eigenvalue(H: np.ndarray):
    """(w_min, scale) of the Hermitian matrix H, per matrix of a stack: its
    smallest eigenvalue and max(1, largest eigenvalue modulus).

    Only the lower triangle of H is read, so a matrix that is Hermitian only
    up to rounding goes in as its :func:`hermitian_part`.
    """
    return _extremes(np.linalg.eigvalsh(H))


def _extremes(w: np.ndarray):
    """(w_min, max(1, max|w|)) of ascending eigenvalues, per row of a stack."""
    return w[..., 0], np.abs(w).max(axis=-1, initial=1.0)


def _not_psd(w_min) -> ValueError:
    return ValueError(f"matrix is not positive semidefinite: eigenvalue {w_min:.6g}")


def psd_spectrum(A, tol: float):
    """(H, w): the Hermitian part H of A, which must be Hermitian and PSD
    within tol (smallest eigenvalue >= -tol * scale), and the ascending
    eigenvalues w of H; raises ValueError otherwise."""
    H = require_hermitian(A, tol)
    w = np.linalg.eigvalsh(H)
    w_min, scale = _extremes(w)
    if not w_min >= -tol * scale:
        raise _not_psd(w_min)
    return H, w


def psd_verdict(A, tol: float):
    """(H, w_min): the Hermitian part H of A, which must be Hermitian within
    tol (:func:`require_hermitian`), and None if H is PSD within tol (smallest
    eigenvalue >= -tol * scale, as in :func:`psd_spectrum`), else the
    smallest eigenvalue that fails that test.

    From order CERTIFY_MIN_N on, and when tol >= K n^2 eps with
    K = CERTIFY_GUARD, H is first accepted with no eigen-solve if the
    Cholesky factorisation of H + delta I succeeds, for
    delta = tol * max(1, max_i H_ii) / 2.  In every other case, a failed
    factorisation included, the eigenvalues decide.

    The certificate accepts only what the eigenvalue test accepts.  Write
    u = eps / 2 and s = max(1, ||H||_2), and take both routines' classical
    backward-error bounds with the constant c n^2 u, c = K / 4 = 16 (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., Thm 10.5,
    gives about 2 n^2 u for Cholesky; LAPACK's Hermitian eigensolvers are
    bounded by p(n) u ||H|| with a modestly growing p(n), which the LAPACK
    Users' Guide, sec. 4.7, approximates by 1):

    - a factorisation that runs to completion on fl(H + delta I) gives
      R* R = H + delta I + E with ||E|| <= c n^2 u (s + delta), the
      rounding of the shift included (Demmel, "On floating point errors in
      Cholesky", LAPACK Working Note 14); R* R >= 0, so
      lambda_min(H) >= -delta - ||E||;
    - ``eigvalsh`` returns the eigenvalues w of H + F, ||F|| <= c n^2 u s,
      so by Weyl w_min >= lambda_min(H) - ||F|| and its scale
      max(1, max|w|) >= s - ||F||;
    - each H_ii is a Rayleigh quotient of H, so delta <= tol s / 2.

    Hence w_min + tol (s - ||F||) >= tol s / 2 - ||E|| - (1 + tol) ||F||
    >= tol s / 2 - c n^2 u s (2 + 1.5 tol).  With 6 c n^2 u <= 1 (n below
    10^6) this is >= tol s / 4 - 2 c n^2 u s, which the guard
    tol >= 4 c n^2 eps = 8 c n^2 u makes >= 0: the eigenvalue test passes.
    """
    H = require_hermitian(A, tol)
    n = H.shape[0]
    if n >= CERTIFY_MIN_N and tol >= CERTIFY_GUARD * n * n * _EPS:
        G = H.copy()
        G.flat[:: n + 1] += tol * max(1.0, float(H.diagonal().real.max())) / 2
        try:
            np.linalg.cholesky(G)
            return H, None
        except np.linalg.LinAlgError:
            pass
    w_min, scale = min_eigenvalue(H)
    return H, None if w_min >= -tol * scale else w_min


def require_psd(A, tol: float) -> np.ndarray:
    """Hermitian part of A, which must be Hermitian and PSD within tol;
    raises ValueError otherwise (see :func:`psd_verdict`)."""
    H, w_min = psd_verdict(A, tol)
    if w_min is not None:
        raise _not_psd(w_min)
    return H


def kernel_mask(w: np.ndarray, tol: float) -> np.ndarray:
    """Which of the ascending eigenvalues w lie in the numerical kernel:
    those at or below tol * max(1, largest)."""
    return w <= tol * max(float(w[-1]), 1.0)
