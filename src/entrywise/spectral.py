"""Hermitian parts, PSD validation and scale-relative eigenvalue tests.

Every positivity decision in the package has one meaning: the smallest
eigenvalue of a Hermitian part, compared on the scale max(1, spectral
radius).  This module holds that test once.  Code that needs the spectrum
(``psd_failures`` on a stack) runs an eigen-solve; the yes/no decision of
:func:`psd_verdict` behind ``require_psd`` and ``psd.psd_check`` first tries,
at every order its guard on ``tol`` admits, a Cholesky certificate that
accepts only what the eigenvalue test accepts, and solves when the
certificate is not tried or fails.

One private memo keeps the last matrix :func:`psd_verdict` decided: its
``tol``, shape, layout and the bytes of its complex form, its read-only
Hermitian part H, the verdict, and one value of each kind derived from H
(:func:`derived`: ``psd`` keeps one h_c[H] and one H^(oM), ``strata`` one
stratification).
A call on byte-identical input with an equal ``tol`` returns the stored H
and verdict with no Hermitian check, factorisation or eigen-solve; any other
call runs the test and replaces the entry, so the memo holds one entry and
an input changed in place is validated afresh.  Input that is not square,
finite and Hermitian within ``tol`` raises and leaves the entry as it was.
:func:`clear_memo` empties it.  So the steps that take one matrix through
its stratum, its joint kernel and its Rayleigh values validate it once.

The module imports numpy only, so every other module (``strata``
included, which ``psd`` imports) can use it.  ``hermitian_part`` and
``psd_failures`` take one matrix or a stack ``(k, N, N)``.  Eigen-solves
and factorisations are looked up on ``np.linalg`` at call time.
"""

from __future__ import annotations

import math

import numpy as np

# K of the guard tol >= K n^2 eps under which a factorisation certifies;
# see psd_verdict for the bound it must meet.
CERTIFY_GUARD = 64
_EPS = float(np.finfo(float).eps)

# The last matrix psd_verdict decided, as (key, H, w_min, derived values):
# key is (tol, shape, strides, bytes) of its complex form, and the dict maps
# each kind of derived value to its one (key, value) pair.  The tuple and
# each pair are replaced whole, so threads sharing them can at most repeat
# work.
_memo: tuple | None = None


def hermitian_part(X: np.ndarray) -> np.ndarray:
    """(X + X^H) / 2 over the last two axes, halved first: no finite entry overflows."""
    Y = X / 2
    return Y + Y.conj().swapaxes(-1, -2)


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


def spectrum(solve, X):
    """(solve(X * s), s) for an eigenvalue or singular-value routine: s = 1, or
    2^-k, 2^k >= 2n, where the n x n X (or stack) has values beyond the float range."""
    w = solve(X)
    if not np.isinf(w).any():
        return w, 1.0
    s = 2.0 ** -(2 * X.shape[-1]).bit_length()
    return solve(X * s), s


def _extremes(H):
    """(w_min, scale, s): the least eigenvalue w_min of H * s (see spectrum), per
    row of a stack, and max(s, max|w|), H's max(1, max|w|) at s."""
    w, s = spectrum(np.linalg.eigvalsh, H)
    return w[..., 0], np.abs(w).max(axis=-1, initial=s), s


def psd_failures(X, tol: float):
    """(w_min, scale, bad) per matrix of X or of a stack X: the smallest eigenvalue
    of its Hermitian part and max(1, largest modulus), at s (see _extremes), and
    whether w_min < -tol * scale.  A non-finite entry, whose NaN eigenvalues
    would fail no test, raises ValueError."""
    H = hermitian_part(X)
    if not np.isfinite(H).all():
        raise ValueError("matrix has a non-finite entry")
    w_min, scale, _ = _extremes(H)
    return w_min, scale, w_min < -tol * scale


def psd_verdict(A, tol: float):
    """(H, w_min): the Hermitian part H of A, which must be Hermitian within
    tol (:func:`require_hermitian`), and None if H is PSD within tol (smallest
    eigenvalue >= -tol * scale, scale = max(1, spectral radius)), else the
    smallest eigenvalue that fails that test.

    At every order, when tol >= K n^2 eps with K = CERTIFY_GUARD, H is first
    accepted with no eigen-solve if the Cholesky factorisation of
    H + delta I succeeds, for delta = tol * max(1, max_i H_ii) / 2.  In
    every other case, a failed factorisation included, the eigenvalues
    decide.

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

    The pair is kept in the memo (see the module docstring), and H is
    read-only.
    """
    global _memo
    A = np.asarray(A, dtype=complex)  # as require_square starts
    # the layout is part of the key: it can steer the rounding of later products
    key = (tol, A.shape, A.strides, A.tobytes())
    memo = _memo
    if memo is not None and memo[0] == key:
        return memo[1], memo[2]
    H = require_hermitian(A, tol)
    H.setflags(write=False)
    w_min = _decide(H, tol)
    _memo = (key, H, w_min, {})
    return H, w_min


def _decide(H, tol: float):
    """None if the Hermitian matrix H is PSD within tol, else its smallest
    eigenvalue (the test of :func:`psd_verdict`)."""
    n = H.shape[0]
    if tol >= CERTIFY_GUARD * n * n * _EPS:
        G = H.copy()
        G.reshape(-1)[:: n + 1] += tol * max(1.0, *H.real.diagonal().tolist()) / 2
        try:
            np.linalg.cholesky(G)
            return None
        except np.linalg.LinAlgError:
            pass
    w_min, scale, s = _extremes(H)
    return None if w_min >= -tol * scale else float(w_min) / s  # -inf beyond the float range


def derived(H, key, make, *args):
    """make(*args), kept under key while H is the memo's own matrix: a later
    call with that H and an equal key returns the kept value, an array
    read-only.  One value is kept per kind, the first item of a tuple key (a
    key of another type is its own kind), and a new key of that kind replaces
    it.  For any other H, make runs and nothing is kept."""
    memo = _memo
    if memo is None or memo[1] is not H:
        return make(*args)
    kind = key[0] if isinstance(key, tuple) else key
    kept = memo[3].get(kind)
    if kept is not None and kept[0] == key:
        return kept[1]
    value = make(*args)
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    memo[3][kind] = (key, value)
    return value


def clear_memo() -> None:
    """Forget the last validated matrix and the values derived from it."""
    global _memo
    _memo = None


def require_psd(A, tol: float) -> np.ndarray:
    """Hermitian part of A, which must be Hermitian and PSD within tol;
    raises ValueError otherwise (see :func:`psd_verdict`)."""
    H, w_min = psd_verdict(A, tol)
    if w_min is not None:
        raise ValueError(f"matrix is not positive semidefinite: eigenvalue {w_min:.6g}")
    return H


def kernel_mask(w: np.ndarray, tol: float) -> np.ndarray:
    """Which of the ascending eigenvalues w lie in the numerical kernel:
    those at or below tol * max(1, largest)."""
    return w <= tol * max(float(w[-1]), 1.0)
