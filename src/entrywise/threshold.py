"""Sharp threshold constants for polynomial positivity preservers in fixed dimension.

For f(z) = sum_{j<N} c_j z^j + c' z^M with positive c_j, applying f entrywise
preserves positive semidefiniteness of all N x N PSD matrices with entries in
the closed disc of radius rho exactly when c' >= -1/C(c; z^M; N, rho), where C
is the finite constant computed by :func:`threshold_constant`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from . import spectral
from .backends import is_exact
from .hadamard import entrywise_poly, h_matrix, hadamard_power
from .partitions import generalized_binomial, hook_partition
from .psd import psd_check
from .samplers import near_corner_path, psd_disc_batches
from .schur import schur_eval

BOUNDARY_WIDTH = 1e-12


@dataclass(frozen=True)
class CoefficientTuple:
    """Positive lower-order coefficients c_0..c_{N-1} plus optional top coefficient."""

    c: tuple
    cprime: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", tuple(self.c))
        if len(self.c) == 0:
            raise ValueError("at least one coefficient required")
        if any(not (x > 0) for x in self.c):
            raise ValueError("lower-order coefficients must be positive")

    def __len__(self) -> int:
        return len(self.c)


@dataclass
class PositivityVerdict:
    preserves: bool
    witness: Optional[np.ndarray]
    samples_checked: int
    worst_min_eigenvalue: float


def _coeffs(c) -> tuple:
    if isinstance(c, CoefficientTuple):
        return c.c
    return tuple(c)


def threshold_constant(c, M: int, N: int, rho):
    """C(c; z^M; N, rho) = sum_j binom(M,j)^2 binom(M-j-1,N-j-1)^2 rho^(M-j) / c_j.

    Generalized binomials make the formula valid for every M >= 0: when
    M < N only the j = M term survives and the value is exactly 1/c_M.
    Exact inputs (Fractions) give an exact value.
    """
    cs = _coeffs(c)
    if len(cs) != N:
        raise ValueError(f"need {N} coefficients, got {len(cs)}")
    if any(not (x > 0) for x in cs):
        raise ValueError("coefficients must be positive")
    if not (rho > 0):
        raise ValueError("rho must be positive")
    if M < 0:
        raise ValueError("exponent must be non-negative")
    total = 0
    for j in range(N):
        b = generalized_binomial(M, j) * generalized_binomial(M - j - 1, N - j - 1)
        if b == 0:
            continue
        total = total + b * b * rho ** (M - j) / cs[j]
    return total


def partial_constants(c, M: int, N: int, rho) -> tuple:
    """Constants C_m = C(c_(m); z^(M-N+m); m, rho) over trailing coefficient windows.

    c_(m) = (c_{N-m}, ..., c_{N-1}); each partial constant bounds the threshold
    for the corresponding lower-dimensional truncation, and the chain is
    strictly increasing in m with C_N the full constant.  Requires M >= N.
    """
    cs = _coeffs(c)
    if len(cs) != N:
        raise ValueError(f"need {N} coefficients, got {len(cs)}")
    if M < N:
        raise ValueError(f"need M >= N, got M={M}, N={N}")
    return tuple(
        threshold_constant(cs[N - m :], M - N + m, m, rho) for m in range(1, N + 1)
    )


def _cprime(c, cprime):
    if cprime is None:
        if not isinstance(c, CoefficientTuple) or c.cprime is None:
            raise ValueError("cprime required, either inline or via CoefficientTuple")
        cprime = c.cprime
    return cprime


def admissible(c, M: int, N: int, rho, cprime=None) -> bool:
    """True iff f = sum c_j z^j + cprime z^M preserves positivity on the disc class."""
    cprime = _cprime(c, cprime)
    if cprime >= 0:
        return True
    return cprime >= -1 / threshold_constant(c, M, N, rho)


def admissible_verdict(c, M: int, N: int, rho, cprime=None) -> str:
    """'admissible' / 'inadmissible' / 'boundary' for reporting.

    When cprime and the threshold -1/C are both exact, boundary means exact
    equality.  Otherwise values of cprime within 1e-12 (relative) of -1/C are
    labeled boundary rather than forced to a side.
    """
    cprime = _cprime(c, cprime)
    bound = -1 / threshold_constant(c, M, N, rho)
    if is_exact(cprime) and is_exact(bound):
        on_boundary = cprime == bound
    else:
        on_boundary = abs(cprime - bound) <= BOUNDARY_WIDTH * max(1.0, abs(bound))
    if on_boundary:
        return "boundary"
    # bound < 0, so this agrees with admissible()
    return "admissible" if cprime >= bound else "inadmissible"


def preserves_positivity_check(
    f: Mapping[int, float],
    N: int,
    rho,
    samples: int,
    tol: float = 1e-9,
    seed: int = 0,
) -> PositivityVerdict:
    """Sample PSD matrices with entries in the closed disc and test f[A] >= 0.

    Deterministic near-corner rank-one samples run first, then a seeded
    mixture of Wishart, rank-one, and correlation draws.  Samples are drawn
    and evaluated in blocks (one entrywise evaluation and one stacked
    eigen-solve per sample kind), in the same draw order as one at a time;
    the verdict reports the first violating matrix of that order as witness,
    if any, with ``samples_checked`` counting it and the samples before it.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(seed)
    worst = np.inf
    for block in psd_disc_batches(N, rho, samples, rng):
        first = None  # (position, matrix, relative eigenvalue)
        for positions, stack in block:
            w_min, scale = spectral.min_eigenvalue(
                spectral.hermitian_part(np.asarray(entrywise_poly(f, stack)))
            )
            rel, bad = w_min / scale, w_min < -tol * scale
            if bad.any():
                i = int(np.argmax(bad))
                if first is None or positions[i] < first[0]:
                    first = (int(positions[i]), stack[i], float(rel[i]))
            worst = min(worst, float(np.min(rel)))
        if first is not None:
            position, A, rel_first = first
            return PositivityVerdict(False, A.copy(), position + 1, rel_first)
    return PositivityVerdict(True, None, samples, worst)


def empirical_sharpness(c, M: int, N: int, rho, grid: int) -> float:
    """Empirical supremum of sum_j s_hook(M,N,j)(u)^2 / c_j over a rank-one grid.

    The grid walks u(delta)_k = sqrt(rho)(1 - delta k/N) along a nested
    geometric ladder of delta values (so refining the grid only enlarges the
    candidate set), with pairwise-distinct coordinates approaching the corner.
    Converges to threshold_constant from below as grid grows.
    """
    cs = _coeffs(c)
    if len(cs) != N:
        raise ValueError(f"need {N} coefficients, got {len(cs)}")
    if grid < 2:
        raise ValueError("grid must be at least 2")
    if M < N:
        # every distinct-coordinate rank-one point attains exactly 1/c_M
        return 1.0 / float(cs[M])
    deltas = [2.0 ** (-k) for k in range(1, min(grid, 48) + 1)]
    if N == 1:
        # single coordinate: the closed cube corner itself is admissible
        deltas.append(0.0)
    hooks = [hook_partition(M, N, j) for j in range(N)]
    best = -np.inf
    for u in near_corner_path(N, float(rho) ** 0.5, deltas).tolist():
        value = sum(
            float(schur_eval(hooks[j], u)) ** 2 / float(cs[j]) for j in range(N)
        )
        best = max(best, value)
    return float(best)


HORN_MAX_CHUNK = 4096  # candidates evaluated at once by horn_necessity_witness


def horn_necessity_witness(
    f: Mapping[int, float],
    N: int,
    rho,
    budget: int = 20000,
    tol: float = 1e-9,
    seed: int = 0,
) -> Optional[np.ndarray]:
    """Search rank-one matrices for a positivity violation of entrywise f.

    When one of the first N nonzero coefficients of f is negative some
    rank-one u u^T with u in (0, sqrt(rho))^N must violate f[A] >= 0; the
    search sweeps 100 geometric directions u_k = x q^(k-1) and then random
    draws from the open cube, ``budget`` candidates in all.  Candidates are
    evaluated in chunks that start small and double up to a fixed cap, with
    one stacked eigen-solve per chunk; the order of candidates and the draw
    stream are those of a one-at-a-time search, so the witness is the first
    violating candidate of that order.  Returns the witness matrix or None
    if the budget is exhausted.
    """
    root = float(rho) ** 0.5
    xs = [root * s for s in (0.999, 0.9, 0.7, 0.5, 0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3)]
    qs = (0.999, 0.95, 0.9, 0.8, 0.6, 0.4, 0.2, 0.1, 0.05, 0.01)
    sweep = [(x, q) for x in xs for q in qs]
    rng = None
    tried = 0
    size = 1  # doubles per chunk, so a witness found at once costs one solve
    while tried < budget:
        k = min(size, budget - tried)
        if tried < len(sweep):
            U = np.array([[x * q**j for j in range(N)] for x, q in sweep[tried : tried + k]])
        else:
            if rng is None:
                rng = np.random.default_rng(seed)
            U = rng.uniform(0.0, root, size=(k, N))
            U = U[np.all(U != 0.0, axis=1)]
        A = U[:, :, None] * U[:, None, :]
        F = np.asarray(entrywise_poly(f, A), dtype=float)
        w_min, scale = spectral.min_eigenvalue(spectral.hermitian_part(F))
        bad = w_min < -tol * scale
        if bad.any():
            return A[np.argmax(bad)].copy()
        tried += len(U)
        size = min(2 * size, HORN_MAX_CHUNK)
    return None


def cross_dim_inequality_check(c, M: int, N: int, rho) -> bool:
    """C(c; z^M; N, rho) >= M * C((c_1, 2 c_2, ..., (N-1) c_{N-1}); z^(M-1); N-1, rho)."""
    cs = _coeffs(c)
    if N < 2:
        raise ValueError("need N >= 2")
    if M < N:
        raise ValueError(f"need M >= N, got M={M}, N={N}")
    left = threshold_constant(cs, M, N, rho)
    derived = tuple(k * cs[k] for k in range(1, N))
    right = M * threshold_constant(derived, M - 1, N - 1, rho)
    return left >= right


def _validate_disc_psd(A: np.ndarray, rho, tol: float) -> None:
    spectral.require_psd(A, tol)
    limit = float(rho) * (1.0 + 1e-9) + tol
    if np.max(np.abs(A)) > limit:
        raise ValueError(f"entries exceed the closed disc of radius {rho}")


def lmi_check(c, M: int, rho, A: np.ndarray, tol: float = 1e-9) -> bool:
    """Loewner inequality A^(oM) <= C * sum_j c_j A^(oj) at the sharp constant."""
    A = np.asarray(A, dtype=complex)
    cs = _coeffs(c)
    N = A.shape[0]
    if len(cs) != N:
        raise ValueError(f"need {N} coefficients, got {len(cs)}")
    _validate_disc_psd(A, rho, tol)
    C = float(threshold_constant(cs, M, N, rho))
    F = C * np.asarray(h_matrix([float(x) for x in cs], A)) - hadamard_power(A, M)
    return psd_check(F, tol)


def pd_refinement_check(c, M: int, rho, A: np.ndarray, tol: float = 1e-9) -> bool:
    """Strict positive definiteness of (sum_j c_j A^(oj)) - (1/C) A^(oM).

    Requires N > 1 and some row of A with pairwise distinct entries (in
    particular A != rho * all-ones); under that hypothesis the boundary
    polynomial sends A to a positive definite matrix, not merely PSD.
    """
    A = np.asarray(A, dtype=complex)
    cs = _coeffs(c)
    N = A.shape[0]
    if N < 2:
        raise ValueError("need N >= 2")
    if len(cs) != N:
        raise ValueError(f"need {N} coefficients, got {len(cs)}")
    if M < N:
        raise ValueError(f"need M >= N, got M={M}, N={N}")
    _validate_disc_psd(A, rho, tol)
    scale = max(1.0, float(np.max(np.abs(A))))
    has_distinct_row = any(
        all(
            abs(A[i, j] - A[i, k]) > tol * scale
            for j in range(N)
            for k in range(j + 1, N)
        )
        for i in range(N)
    )
    if not has_distinct_row:
        raise ValueError("no row with pairwise distinct entries")
    C = float(threshold_constant(cs, M, N, rho))
    F = np.asarray(h_matrix([float(x) for x in cs], A)) - hadamard_power(A, M) / C
    w_min, scale = spectral.min_eigenvalue(spectral.hermitian_part(F))
    return bool(w_min > tol * scale)
