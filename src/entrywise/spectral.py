"""Hermitian parts, PSD validation and scale-relative eigenvalue tests.

Every positivity decision in the package is one numerical step: the
smallest eigenvalue of a Hermitian part, compared on the scale
max(1, spectral radius).  This module holds that step once.  It imports
numpy only, so every other module (``strata`` included, which ``psd``
imports) can use it.  ``hermitian_part`` and ``min_eigenvalue`` take one
matrix or a stack ``(k, N, N)``.  Eigen-solves are looked up on
``np.linalg`` at call time.
"""

from __future__ import annotations

import numpy as np


def hermitian_part(X: np.ndarray) -> np.ndarray:
    """(X + X^H) / 2 over the last two axes."""
    return (X + X.conj().swapaxes(-1, -2)) / 2


def require_hermitian(A, tol: float) -> np.ndarray:
    """Hermitian part of the square matrix A, which must be Hermitian within
    tol * max(1, max|a_ij|); raises ValueError otherwise."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("square matrix required")
    scale = max(1.0, float(np.abs(A).max()) if A.size else 0.0)
    if np.abs(A - A.conj().T).max() > tol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return hermitian_part(A)


def min_eigenvalue(H: np.ndarray):
    """(w_min, scale) of the Hermitian matrix H, per matrix of a stack: its
    smallest eigenvalue and max(1, largest eigenvalue modulus).

    Only the lower triangle of H is read, so a matrix that is Hermitian only
    up to rounding goes in as its :func:`hermitian_part`.
    """
    w = np.linalg.eigvalsh(H)
    return w[..., 0], np.abs(w).max(axis=-1, initial=1.0)


def require_psd(A, tol: float) -> np.ndarray:
    """Hermitian part of A, which must be Hermitian and PSD within tol
    (smallest eigenvalue >= -tol * scale); raises ValueError otherwise."""
    H = require_hermitian(A, tol)
    w_min, scale = min_eigenvalue(H)
    if not w_min >= -tol * scale:
        raise ValueError(f"matrix is not positive semidefinite: eigenvalue {w_min:.6g}")
    return H


def kernel_mask(w: np.ndarray, tol: float) -> np.ndarray:
    """Which of the ascending eigenvalues w lie in the numerical kernel:
    those at or below tol * max(1, largest)."""
    return w <= tol * max(float(w[-1]), 1.0)
