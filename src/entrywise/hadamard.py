"""Hadamard (entrywise) matrix algebra and its determinantal closed forms.

Matrices are either numpy arrays (floating backend) or lists of rows of
exact scalars.  Rows enter as one ``dtype=object`` array, so each identity is
written once as array algebra; a function given rows returns rows, and one
given a numpy array returns numpy.  Identity verification defaults to the
exact backend so that both sides of each identity agree with == rather than
a tolerance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

import numpy as np

from .backends import all_exact, det_exact
from .partitions import StrictTuple, _require_m_ge_n, staircase_complement
from .schur import _jacobi_trudi, hook_values, vandermonde_det


@dataclass(frozen=True)
class PencilSpec:
    """Entrywise pencil t*(c_0 + c_1 z + ... + c_{N-1} z^{N-1}) - z^M.

    `coeffs` lists c_0..c_{N-1} by ascending degree; `M` is the exponent of
    the subtracted Hadamard power.
    """

    t: object
    coeffs: tuple
    M: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) == 0:
            raise ValueError("at least one pencil coefficient required")
        _require_exponent(self.M)


def _require_exponent(M: int) -> None:
    if M < 0:
        raise ValueError("exponent must be non-negative")


def coefficients(c, N: int) -> tuple:
    """The coefficient vector c_0..c_{N-1} as a tuple: N entries, all positive."""
    cs = tuple(c)
    if len(cs) != N:
        raise ValueError(f"need {N} coefficients, got {len(cs)}")
    if any(not (x > 0) for x in cs):
        raise ValueError("coefficients must be positive")
    return cs


def _matrix(A):
    """A as an ndarray: numpy input passes through, square rows become one
    dtype=object array of the same scalars."""
    if isinstance(A, np.ndarray):
        return A
    n = len(A)
    if any(len(r) != n for r in A):
        raise ValueError("square matrix required")
    return np.array(A, dtype=object).reshape(n, n)


def _like(X, A):
    """The array X in the format of the input A: numpy for numpy, else rows."""
    return X if isinstance(A, np.ndarray) else X.tolist()


def _det(A):
    """Determinant: exact elimination on exact scalars, LAPACK otherwise."""
    X = _matrix(A)
    return det_exact(X) if X.dtype == object else np.linalg.det(X)


def hadamard_power(A, n: int):
    """Entrywise power A^(on) with the convention A^(o0) = all-ones."""
    _require_exponent(n)
    X = _matrix(A)
    return _like(np.ones_like(X) if n == 0 else X**n, A)


def entrywise_poly(coeffs: Mapping[int, object], A):
    """Apply f(z) = sum_k coeffs[k] * z^k to every entry of A.

    One pass over the exponents in ascending order, for float and exact
    input alike: a running Hadamard power P starts at all-ones and steps up
    to A^(ok) by one entrywise product (by A^(o(k - previous)) across a gap),
    and each term coeffs[k] * P joins the sum at once, so only P, one term
    and the sum are held.  Floating input accumulates in complex and comes
    back real when A and every coefficient are real.  Exact input sums from
    the first term; an empty map gives the zero matrix.
    """
    if any(k < 0 for k in coeffs):
        raise ValueError("exponents must be non-negative")
    X = _matrix(A)
    exact = X.dtype == object
    out = None if exact else np.zeros(X.shape, dtype=complex)
    P, at = np.ones_like(X), 0
    for k in sorted(coeffs):
        if k > at:
            P = P * (X if k - at == 1 else X ** (k - at))
            at = k
        if exact:
            term = coeffs[k] * P
            out = term if out is None else out + term
        else:
            out += complex(coeffs[k]) * P
    if exact:
        return _like(np.zeros_like(X) if out is None else out, A)
    if not np.iscomplexobj(X) and all(not isinstance(c, complex) for c in coeffs.values()):
        return out.real
    return out


def h_matrix(coeffs_ascending, A):
    """sum_j c_j A^(oj) for dense coefficients c_0..c_{d}.

    Floating input is evaluated by Horner's rule, F = c_d, then F *= A and
    F += c_j down to j = 0: two in-place passes per degree on one complex
    array, which comes back real when A and every coefficient are real.
    Its bits differ from :func:`entrywise_poly`'s ascending sum, by
    rounding of order d u sum_j |c_j| |a|^j per entry.  Exact input, and no
    coefficients, go through :func:`entrywise_poly`.
    """
    cs = list(coeffs_ascending)
    X = _matrix(A)
    if X.dtype == object or not cs:
        return entrywise_poly(dict(enumerate(cs)), A)
    F = np.full(X.shape, complex(cs[-1]))
    for x in cs[-2::-1]:
        F *= X
        F += complex(x)
    if not np.iscomplexobj(X) and not any(isinstance(x, complex) for x in cs):
        return F.real
    return F


def _h_hermitian(coeffs_ascending, H: np.ndarray) -> np.ndarray:
    """h_matrix of an exactly Hermitian complex array H (as
    spectral.hermitian_part returns it), from its upper triangle alone.

    The entrywise products and sums of conj(z) are the conjugates of those
    of z, and Horner's last step adds the real c_0 + 0j, which leaves no
    imaginary part at -0, so h_matrix on the whole of H gives, bit for bit,
    v on and above the diagonal and conj(v) + 0 (a zero imaginary part as
    +0) below it.
    """
    upper, lower = _triangle(H.shape[0])
    v = h_matrix(coeffs_ascending, H.take(upper))
    out = np.empty(H.shape, dtype=complex)
    out.put(lower, v.conj() + 0.0)
    out.put(upper, v)
    return out


@functools.lru_cache(maxsize=16)
def _triangle(n: int):
    """Flat indices of the upper triangle of an n x n array, diagonal
    included, and of their mirror images, read-only (kept: np.triu_indices
    costs about as much as a small h_c)."""
    i, j = np.triu_indices(n)
    upper, lower = i * n + j, j * n + i
    upper.setflags(write=False)
    lower.setflags(write=False)
    return upper, lower


def rank_one_outer(u, v):
    """Plain outer product (u_i v_j), no conjugation: rows for exact u, v."""
    if len(u) != len(v):
        raise ValueError("vectors must have equal length")
    if all_exact(u) and all_exact(v):
        return np.outer(np.array(u, dtype=object), np.array(v, dtype=object)).tolist()
    return np.outer(np.asarray(u), np.asarray(v))


def pencil_matrix(spec: PencilSpec, u, v):
    """p_t[u v^T] where p_t(z) = t * sum_j c_j z^j - z^M."""
    A = rank_one_outer(u, v)
    X = _matrix(A)
    P = entrywise_poly({j: spec.t * c for j, c in enumerate(spec.coeffs)}, X)
    return _like(P - hadamard_power(X, spec.M), A)


def pencil_det_direct(spec: PencilSpec, u, v):
    """Determinant of the pencil matrix by direct elimination.

    Fraction-free elimination on the exact backend; numpy determinant on the
    floating backend.  This is the oracle side of the pencil identity check.
    """
    return _det(pencil_matrix(spec, u, v))


def pencil_det_closed_form(spec: PencilSpec, u, v):
    """Closed form of det p_t[u v^T] via hook-shape Schur evaluations.

    Equals t^(N-1) * Vdm(u) * Vdm(v) * prod_j c_j *
    (t - sum_j s_hook(M,N,j)(u) s_hook(M,N,j)(v) / c_j).
    Requires M >= N >= 1 and all coefficients nonzero.
    """
    n = len(u)
    if len(v) != n or n == 0:
        raise ValueError("u and v must be nonempty with equal length")
    if len(spec.coeffs) != n:
        raise ValueError(f"need {n} coefficients, got {len(spec.coeffs)}")
    _require_m_ge_n(spec.M, n)
    if any(c == 0 for c in spec.coeffs):
        raise ValueError("closed form requires nonzero coefficients")
    su, sv = hook_values(spec.M, [u, v])
    hook_sum = sum(a * b / c for a, b, c in zip(su, sv, spec.coeffs))
    return (
        spec.t ** (n - 1)
        * vandermonde_det(u)
        * vandermonde_det(v)
        * math.prod(spec.coeffs)
        * (spec.t - hook_sum)
    )


def _validate_exponent_map(coeffs_by_exponent: Mapping[int, object]):
    exponents = sorted(coeffs_by_exponent)
    if not exponents:
        raise ValueError("at least one exponent required")
    if exponents[0] < 0:
        raise ValueError("exponents must be non-negative")
    return exponents


def cauchy_binet_lhs(coeffs_by_exponent: Mapping[int, object], u, v):
    """det( sum_n c_n (u v^T)^(on) ) computed directly."""
    _validate_exponent_map(coeffs_by_exponent)
    total = entrywise_poly(coeffs_by_exponent, rank_one_outer(u, v))
    return _det(total if isinstance(total, list) else total.astype(complex))


def cauchy_binet_rhs(coeffs_by_exponent: Mapping[int, object], u, v):
    """Closed form: Vdm(u) Vdm(v) * sum over N-subsets of exponents of
    s_lam(u) s_lam(v) prod of the subset's coefficients, lam the staircase
    complement of the subset.  Empty sum (fewer exponents than N) gives 0.
    """
    exponents = _validate_exponent_map(coeffs_by_exponent)
    n = len(u)
    if len(v) != n or n == 0:
        raise ValueError("u and v must be nonempty with equal length")
    if len(exponents) < n:
        return 0
    subsets = list(combinations(exponents, n))
    shapes = [staircase_complement(StrictTuple(tuple(sorted(t, reverse=True)))) for t in subsets]
    su, sv = _jacobi_trudi(shapes, [u, v])
    total = 0
    for subset, a, b in zip(subsets, su, sv):
        total = total + a * b * math.prod(coeffs_by_exponent[e] for e in subset)
    return vandermonde_det(u) * vandermonde_det(v) * total


def _decomposition_weights(A, M: int):
    """(W, X): A as an object array X of Python scalars, and the weights W
    whose column j is the diagonal d_j of A^(oM) = sum_j diag(d_j) A^(oj).

    d_j[i] = (-1)^(N-j-1) s_hook(M,N,j)(row_i).  For M < N the decomposition
    degenerates to the single trivial term A^(oM) itself.
    """
    X = _matrix(A.tolist() if isinstance(A, np.ndarray) else A)
    _require_exponent(M)
    if M >= len(X):
        return _moment_weights(M, X), X
    W = np.zeros(X.shape, dtype=object)
    W[:, M] = 1
    return W, X


def _moment_weights(M: int, points) -> np.ndarray:
    """Rows [(-1)^(N-1-j) s_hook(M,N,j)(x)]_j, one per point x: the solution s
    of V(x) s = x^(oM) for pairwise distinct x."""
    S = np.array(hook_values(M, points), dtype=object)
    return ((-1) ** np.arange(S.shape[-1] - 1, -1, -1)).astype(object) * S


def hadamard_decomposition(A, M: int):
    """Diagonal matrices D_0..D_{N-1} with A^(oM) = sum_j D_j A^(oj).

    Polynomial identity in the entries of A: it holds for every square A,
    including repeated rows, because the coefficients are row-wise Schur
    evaluations solving the Vandermonde moment system.
    """
    W, _ = _decomposition_weights(A, M)
    if isinstance(A, np.ndarray):
        W = W.astype(A.dtype if A.dtype.kind == "c" else float)
    return [_like(np.diag(d), A) for d in W.T]


def decomposition_residual(A, M: int):
    """A^(oM) - sum_j diag(d_j) A^(oj); identically zero matrix."""
    W, X = _decomposition_weights(A, M)
    R = hadamard_power(X, M)
    for j in range(len(X)):
        R = R - W[:, j, None] * hadamard_power(X, j)
    return R.astype(complex) if isinstance(A, np.ndarray) else R.tolist()


def vandermonde_matrix(u):
    """Rows (u_i^0, u_i^1, ..., u_i^{N-1})."""
    return np.power.outer(np.array(u, dtype=object), range(len(u))).tolist()


def vandermonde_solve_moments(u, M: int):
    """Solution s of V(u) s = u^(oM) in closed form.

    s[i] = (-1)^(N-1-i) * s_hook(M,N,i)(u); requires pairwise distinct u
    (else the system is singular) and M >= N.
    """
    n = len(u)
    if n == 0:
        raise ValueError("u must be nonempty")
    for a in range(n):
        for b in range(a + 1, n):
            if u[a] == u[b]:
                raise ValueError(f"coordinates {a} and {b} coincide")
    _require_m_ge_n(M, n)
    return _moment_weights(M, [u])[0].tolist()
