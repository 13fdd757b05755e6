"""Hadamard (entrywise) matrix algebra and its determinantal closed forms.

Matrices are either numpy arrays (floating backend) or lists of lists of
exact scalars.  Identity verification defaults to the exact backend so that
both sides of each identity agree with == rather than a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping

import numpy as np

from .backends import all_exact, det_exact
from .partitions import StrictTuple, hook_partition, staircase_complement
from .schur import schur_eval, vandermonde_det


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
        if self.M < 0:
            raise ValueError("exponent must be non-negative")


def _is_numpy(A) -> bool:
    return isinstance(A, np.ndarray)


def _rows(A):
    rows = [list(r) for r in A]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("square matrix required")
    return rows


def hadamard_power(A, n: int):
    """Entrywise power A^(on) with the convention A^(o0) = all-ones."""
    if n < 0:
        raise ValueError("Hadamard power exponent must be non-negative")
    if _is_numpy(A):
        if n == 0:
            return np.ones_like(A)
        return A**n
    rows = _rows(A)
    if n == 0:
        return [[1 for _ in row] for row in rows]
    return [[v**n for v in row] for row in rows]


def entrywise_poly(coeffs: Mapping[int, object], A):
    """Apply f(z) = sum_k coeffs[k] * z^k to every entry of A."""
    if any(k < 0 for k in coeffs):
        raise ValueError("exponents must be non-negative")
    if _is_numpy(A):
        out = np.zeros(A.shape, dtype=complex)
        for k, c in coeffs.items():
            out += complex(c) * (np.ones_like(out) if k == 0 else A**k)
        if not np.iscomplexobj(A) and all(
            not isinstance(c, complex) for c in coeffs.values()
        ):
            return out.real
        return out
    rows = _rows(A)

    def f(z):
        total = 0
        for k, c in coeffs.items():
            total = total + c * (z**k if k > 0 else 1)
        return total

    return [[f(v) for v in row] for row in rows]


def h_matrix(coeffs_ascending, A):
    """sum_j c_j A^(oj) for dense coefficients c_0..c_{d}."""
    return entrywise_poly(dict(enumerate(coeffs_ascending)), A)


def rank_one_outer(u, v):
    """Plain outer product (u_i v_j), no conjugation."""
    if len(u) != len(v):
        raise ValueError("vectors must have equal length")
    if all_exact(u) and all_exact(v):
        return [[ui * vj for vj in v] for ui in u]
    return np.outer(np.asarray(u), np.asarray(v))


def pencil_matrix(spec: PencilSpec, u, v):
    """p_t[u v^T] where p_t(z) = t * sum_j c_j z^j - z^M."""
    coeffs = {j: spec.t * c for j, c in enumerate(spec.coeffs)}
    A = rank_one_outer(u, v)
    base = entrywise_poly(coeffs, A)
    power = hadamard_power(A, spec.M)
    if _is_numpy(base):
        return base - power
    return [
        [base[i][k] - power[i][k] for k in range(len(base))] for i in range(len(base))
    ]


def pencil_det_direct(spec: PencilSpec, u, v):
    """Determinant of the pencil matrix by direct elimination.

    Fraction-free elimination on the exact backend; numpy determinant on the
    floating backend.  This is the oracle side of the pencil identity check.
    """
    P = pencil_matrix(spec, u, v)
    if _is_numpy(P):
        return np.linalg.det(P)
    return det_exact(P)


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
    if spec.M < n:
        raise ValueError(f"need M >= N, got M={spec.M}, N={n}")
    if any(c == 0 for c in spec.coeffs):
        raise ValueError("closed form requires nonzero coefficients")
    hook_sum = 0
    for j in range(n):
        mu = hook_partition(spec.M, n, j)
        hook_sum = hook_sum + schur_eval(mu, u) * schur_eval(mu, v) / spec.coeffs[j]
    prod_c = 1
    for c in spec.coeffs:
        prod_c = prod_c * c
    return (
        spec.t ** (n - 1)
        * vandermonde_det(u)
        * vandermonde_det(v)
        * prod_c
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
    exponents = _validate_exponent_map(coeffs_by_exponent)
    A = rank_one_outer(u, v)
    total = None
    for n in exponents:
        term = hadamard_power(A, n)
        c = coeffs_by_exponent[n]
        if _is_numpy(A):
            term = complex(c) * term
            total = term if total is None else total + term
        else:
            term = [[c * x for x in row] for row in term]
            if total is None:
                total = term
            else:
                total = [
                    [total[i][k] + term[i][k] for k in range(len(term))]
                    for i in range(len(term))
                ]
    if _is_numpy(A):
        return np.linalg.det(total)
    return det_exact(total)


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
    total = 0
    for subset in combinations(exponents, n):
        lam = staircase_complement(StrictTuple(tuple(sorted(subset, reverse=True))))
        prod_c = 1
        for e in subset:
            prod_c = prod_c * coeffs_by_exponent[e]
        total = total + schur_eval(lam, u) * schur_eval(lam, v) * prod_c
    return vandermonde_det(u) * vandermonde_det(v) * total


def _decomposition_diagonals(A, M: int):
    """Diagonal weight vectors d_j with A^(oM) = sum_j diag(d_j) A^(oj).

    d_j[i] = (-1)^(N-j-1) s_hook(M,N,j)(row_i).  For M < N the decomposition
    degenerates to the single trivial term A^(oM) itself.
    """
    numpy_input = _is_numpy(A)
    rows = [list(r) for r in (A.tolist() if numpy_input else A)]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("square matrix required")
    if M < 0:
        raise ValueError("exponent must be non-negative")
    if M < n:
        return [[1 if j == M else 0 for _ in range(n)] for j in range(n)], rows
    diag = []
    for j in range(n):
        mu = hook_partition(M, n, j)
        sign = (-1) ** (n - j - 1)
        diag.append([sign * schur_eval(mu, row) for row in rows])
    return diag, rows


def hadamard_decomposition(A, M: int):
    """Diagonal matrices D_0..D_{N-1} with A^(oM) = sum_j D_j A^(oj).

    Polynomial identity in the entries of A: it holds for every square A,
    including repeated rows, because the coefficients are row-wise Schur
    evaluations solving the Vandermonde moment system.
    """
    diag, _ = _decomposition_diagonals(A, M)
    n = len(diag[0])
    if _is_numpy(A):
        return [np.diag(np.asarray(d, dtype=A.dtype if A.dtype.kind == "c" else float)) for d in diag]
    return [[[d[i] if i == k else 0 for k in range(n)] for i in range(n)] for d in diag]


def decomposition_residual(A, M: int):
    """A^(oM) - sum_j diag(d_j) A^(oj); identically zero matrix."""
    diag, rows = _decomposition_diagonals(A, M)
    n = len(rows)
    powers = [hadamard_power(rows, j) for j in range(n)]
    target = hadamard_power(rows, M)
    residual = []
    for i in range(n):
        res_row = []
        for k in range(n):
            acc = target[i][k]
            for j in range(n):
                acc = acc - diag[j][i] * powers[j][i][k]
            res_row.append(acc)
        residual.append(res_row)
    if _is_numpy(A):
        return np.asarray(residual, dtype=complex)
    return residual


def vandermonde_matrix(u):
    """Rows (u_i^0, u_i^1, ..., u_i^{N-1})."""
    n = len(u)
    return [[ui**j for j in range(n)] for ui in u]


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
    if M < n:
        raise ValueError(f"need M >= N, got M={M}, N={n}")
    out = []
    for i in range(n):
        mu = hook_partition(M, n, i)
        out.append((-1) ** (n - 1 - i) * schur_eval(mu, u))
    return out
