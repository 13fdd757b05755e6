"""Independent reference computations used by the correctness checks.

Nothing here calls entrywise: closed forms are recomputed with math.comb and
Fraction, exact complex arithmetic uses plain (re, im) Fraction pairs, and
spectral facts come straight from numpy/scipy.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np
import scipy.linalg

TOL = 1e-9


def threshold_constant(c, M: int, N: int, rho) -> Fraction:
    """sum_j binom(M,j)^2 binom(M-j-1,N-j-1)^2 rho^(M-j) / c_j, for M >= N."""
    if M < N:
        raise ValueError("the closed form here needs M >= N")
    rho = Fraction(rho)
    return sum(
        Fraction(comb(M, j) ** 2 * comb(M - j - 1, N - j - 1) ** 2) * rho ** (M - j) / Fraction(c[j])
        for j in range(N)
    )


def partial_chain(c, M: int, N: int, rho) -> list:
    """Window constants C_m over the trailing coefficients c_{N-m}..c_{N-1}."""
    return [threshold_constant(c[N - m :], M - N + m, m, rho) for m in range(1, N + 1)]


# --- exact complex rationals as (re, im) pairs -------------------------------


def pair(z) -> tuple:
    return (Fraction(z.re), Fraction(z.im)) if hasattr(z, "re") else (Fraction(z), Fraction(0))


def pmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def padd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def ppow(a, k: int):
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = pmul(out, a)
    return out


def vandermonde_residual_zero(u, s, M: int) -> bool:
    """V(u) s == u^(oM) by direct multiplication over exact pairs."""
    n = len(u)
    up = [pair(x) for x in u]
    sp = [pair(x) for x in s]
    for i in range(n):
        acc = (Fraction(0), Fraction(0))
        for j in range(n):
            acc = padd(acc, pmul(ppow(up[i], j), sp[j]))
        if acc != ppow(up[i], M):
            return False
    return True


def sympy_pencil_det(t, coeffs, M: int, u, v):
    """det of p_t[u v^T], p_t(z) = t sum_j c_j z^j - z^M, by sympy."""
    import sympy

    def sym(z):
        re, im = pair(z)
        return sympy.Rational(re.numerator, re.denominator) + sympy.I * sympy.Rational(
            im.numerator, im.denominator
        )

    ts = sym(t)
    cs = [sym(c) for c in coeffs]

    def p(z):
        return ts * sum(cj * z**j for j, cj in enumerate(cs)) - z**M

    n = len(u)
    mat = sympy.Matrix(n, n, lambda i, k: sympy.expand(p(sym(u[i]) * sym(v[k]))))
    return sympy.expand(mat.det(method="bareiss"))


def sympy_equal(a, value) -> bool:
    import sympy

    re, im = pair(value)
    b = sympy.Rational(re.numerator, re.denominator) + sympy.I * sympy.Rational(
        im.numerator, im.denominator
    )
    return sympy.simplify(sympy.expand(a - b)) == 0


# --- float spectral facts ----------------------------------------------------


def entrywise(f: dict, A: np.ndarray) -> np.ndarray:
    A = np.asarray(A)
    out = np.zeros(A.shape, dtype=complex)
    for k, ck in f.items():
        out = out + ck * np.power(A, k)
    return out


def min_eig_rel(H: np.ndarray) -> float:
    H = (H + H.conj().T) / 2
    w = np.linalg.eigvalsh(H)
    return float(w[0]) / max(1.0, float(np.max(np.abs(w))))


def psd_in_disc(A: np.ndarray, rho: float, tol: float = TOL) -> bool:
    A = np.asarray(A, dtype=complex)
    hermitian = np.max(np.abs(A - A.conj().T)) <= tol * max(1.0, float(np.max(np.abs(A))))
    return bool(hermitian and min_eig_rel(A) >= -tol and np.max(np.abs(A)) <= rho * (1 + tol))


def violates(f: dict, A: np.ndarray, tol: float = TOL) -> bool:
    """f[A] has an eigenvalue below -tol relative to its spectral scale."""
    return min_eig_rel(entrywise(f, A)) < -tol


def is_witness(f: dict, A, rho: float) -> bool:
    """A is PSD with entries in the disc of radius rho, and f[A] is not PSD."""
    return A is not None and psd_in_disc(A, rho) and violates(f, A)


def is_power_witness(A, alpha: float, rho: float) -> bool:
    """A is PSD with entries in (0, rho], and A^(o alpha) is not PSD."""
    return A is not None and np.min(A) > 0 and is_witness({alpha: 1.0}, A, rho)


def rayleigh_on(P: np.ndarray, H: np.ndarray, Q: np.ndarray) -> float:
    """max of x* P x / x* H x over the column span of Q."""
    Pq = Q.conj().T @ P @ Q
    Hq = Q.conj().T @ H @ Q
    w = scipy.linalg.eigh((Pq + Pq.conj().T) / 2, (Hq + Hq.conj().T) / 2, eigvals_only=True)
    return float(w[-1])


def block_indicators(blocks, N: int) -> np.ndarray:
    Q = np.zeros((N, len(blocks)), dtype=complex)
    for a, block in enumerate(blocks):
        Q[list(block), a] = 1.0 / np.sqrt(len(block))
    return Q


def rayleigh_blocks(c, M: int, A: np.ndarray, blocks) -> float:
    """Extreme critical value of A when its kernel is the block zero-sum space."""
    H = sum(cj * np.power(A, j) for j, cj in enumerate(c))
    return rayleigh_on(np.power(A, M), H, block_indicators(blocks, A.shape[0]))


# --- strata --------------------------------------------------------------------


def stratum_matrix(sizes, group: str, rng: np.random.Generator, perm=None, unit_disc=True):
    """PSD matrix U C U* whose stratum under `group` has the given block sizes.

    Column a of U is supported on block a: one shared value ('trivial'), one
    shared modulus with free phases ('unit_circle'), or free nonzero values
    ('nonzero_complex'). C is a positive definite core. Returns the matrix and
    its blocks as sorted index tuples.
    """
    N = sum(sizes)
    order = np.arange(N) if perm is None else perm
    blocks, start = [], 0
    for size in sizes:
        blocks.append(tuple(sorted(int(i) for i in order[start : start + size])))
        start += size
    U = np.zeros((N, len(blocks)), dtype=complex)
    for a, block in enumerate(blocks):
        idx, n = list(block), len(block)
        if group == "trivial":
            U[idx, a] = rng.uniform(0.6, 1.4) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        elif group == "unit_circle":
            U[idx, a] = rng.uniform(0.6, 1.4) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        else:
            U[idx, a] = rng.uniform(0.5, 1.5, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    k = len(blocks)
    G = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    A = U @ (G @ G.conj().T / k + 0.5 * np.eye(k)) @ U.conj().T
    A = (A + A.conj().T) / 2
    if unit_disc:
        A = A / np.max(np.abs(A))
    return A, sorted(blocks)


def _one_orbit(values: np.ndarray, group: str, tol: float) -> bool:
    if group == "trivial":
        return float(np.ptp(values.real) + np.ptp(values.imag)) <= 2 * tol
    mods = np.abs(values)
    if group == "unit_circle":
        return float(np.ptp(mods)) <= tol
    return bool(np.all(mods > tol) or np.all(mods <= tol))


def blocks_are_strata(A: np.ndarray, blocks, group: str, tol: float = 1e-7) -> bool:
    """Each block is rank one in one orbit, and no two blocks could merge."""
    scale = float(np.max(np.abs(A)))
    for block in blocks:
        sub = A[np.ix_(block, block)]
        s = np.linalg.svd(sub, compute_uv=False)
        if len(block) > 1 and s[1] > tol * max(scale, s[0]):
            return False
        if not _one_orbit(sub.ravel(), group, tol * scale):
            return False
    for a, ba in enumerate(blocks):
        for bb in blocks[a + 1 :]:
            merged = list(ba) + list(bb)
            sub = A[np.ix_(merged, merged)]
            s = np.linalg.svd(sub, compute_uv=False)
            if s[1] <= tol * max(scale, s[0]) and _one_orbit(sub.ravel(), group, tol * scale):
                return False
    return True
