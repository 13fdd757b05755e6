"""Sharp threshold constants for polynomial positivity preservers in fixed dimension.

For f(z) = sum_{j<N} c_j z^j + c' z^M with positive c_j, applying f entrywise
preserves positive semidefiniteness of all N x N PSD matrices with entries in
the closed disc of radius rho exactly when c' >= -1/C(c; z^M; N, rho), where C
is the finite constant computed by :func:`threshold_constant`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Optional

import numpy as np

from . import spectral
from .backends import is_exact
from .hadamard import _require_exponent, coefficients, entrywise_poly, h_matrix
from .partitions import _require_m_ge_n, hook_dimension
from .psd import _rank_one_values
from .samplers import _disc_radius, _outer_rows, near_corner_path, psd_disc_batches

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
        coefficients(self.c, len(self.c))

    def __len__(self) -> int:
        return len(self.c)

    def __iter__(self):
        return iter(self.c)


@dataclass
class PositivityVerdict:
    preserves: bool
    witness: Optional[np.ndarray]
    samples_checked: int
    worst_min_eigenvalue: float


def threshold_constant(c, M: int, N: int, rho):
    """C(c; z^M; N, rho) = sum_j binom(M,j)^2 binom(M-j-1,N-j-1)^2 rho^(M-j) / c_j.

    Each binomial product is the hook dimension of the j-th term.  When M < N
    the constant is exactly 1/c_M, the only term of the formula taken with
    generalized binomials.  When rho and every c_j are ints or Fractions the
    value is a Fraction: with rho = p/q, c_j = r_j/s_j and L = lcm(r_j), it is
    the one integer sum_j h_j^2 p^(M-j) q^j s_j (L/r_j) over q^M L.
    """
    return _threshold_constant(coefficients(c, N), M, N, rho)


def _threshold_constant(cs: tuple, M: int, N: int, rho):
    """threshold_constant of coefficients that :func:`coefficients` has checked."""
    if not (rho > 0):
        raise ValueError("rho must be positive")
    _require_exponent(M)
    exact = isinstance(rho, (int, Fraction)) and all(isinstance(x, (int, Fraction)) for x in cs)
    if M < N:
        # rho**0 is a 1 of rho's type, as in the formula's j = M term
        return (Fraction(1) if exact else rho**0) / cs[M]
    if not exact:
        return sum(hook_dimension(M, N, j) ** 2 * rho ** (M - j) / cs[j] for j in range(N))
    p, q = rho.numerator, rho.denominator
    L = lcm(*(x.numerator for x in cs))
    total = sum(
        hook_dimension(M, N, j) ** 2 * p ** (M - j) * q**j * x.denominator * (L // x.numerator)
        for j, x in enumerate(cs)
    )
    return Fraction(total, q**M * L)


def partial_constants(c, M: int, N: int, rho) -> tuple:
    """Constants C_m = C(c_(m); z^(M-N+m); m, rho) over trailing coefficient windows.

    c_(m) = (c_{N-m}, ..., c_{N-1}); each partial constant bounds the threshold
    for the corresponding lower-dimensional truncation, and the chain is
    strictly increasing in m with C_N the full constant.  Requires M >= N.
    """
    cs = coefficients(c, N)
    _require_m_ge_n(M, N)
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
    return _verdict(_cprime(c, cprime), -1 / threshold_constant(c, M, N, rho))


def _verdict(cprime, bound) -> str:
    """The verdict of :func:`admissible_verdict` on cprime against the bound -1/C."""
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
    eigen-solve per stack of a block: the complex Wishart and correlation
    draws, the real rank-one draws), in the same draw order as one at a time;
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
            with np.errstate(all="ignore"):  # psd_failures rejects what overflows
                F = np.asarray(entrywise_poly(f, stack))
            w_min, scale, bad = spectral.psd_failures(F, tol)
            rel = w_min / scale
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
    Each grid point takes the rank-one Rayleigh value of :mod:`psd` (exactly
    1/c_M at every point when M < N).  Converges to threshold_constant from
    below as grid grows.
    """
    cs = coefficients(c, N)
    if grid < 2:
        raise ValueError("grid must be at least 2")
    rho = _disc_radius(N, rho)
    deltas = [2.0 ** (-k) for k in range(1, min(grid, 48) + 1)]
    if N == 1:
        # single coordinate: the closed cube corner itself is admissible
        deltas.append(0.0)
    path = near_corner_path(N, rho, deltas).tolist()
    # a NaN value (overflowed hooks) never beats the -inf start
    return max(-np.inf, *_rank_one_values(cs, M, path))


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
    if budget < 0:
        raise ValueError("budget must be non-negative")
    root = _disc_radius(N, rho) ** 0.5
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
        A = _outer_rows(U)
        with np.errstate(all="ignore"):  # psd_failures rejects what overflows
            F = np.asarray(entrywise_poly(f, A), dtype=float)
        bad = spectral.psd_failures(F, tol)[2]
        if bad.any():
            return A[np.argmax(bad)].copy()
        tried += len(U)
        size = min(2 * size, HORN_MAX_CHUNK)
    return None


def cross_dim_inequality_check(c, M: int, N: int, rho) -> bool:
    """C(c; z^M; N, rho) >= M * C((c_1, 2 c_2, ..., (N-1) c_{N-1}); z^(M-1); N-1, rho)."""
    if N < 2:
        raise ValueError("need N >= 2")
    _require_m_ge_n(M, N)
    left, right = _cross_dim_sides(c, M, N, rho)
    return left >= right


def _cross_dim_sides(c, M: int, N: int, rho) -> tuple:
    """(left, right): the two sides of :func:`cross_dim_inequality_check`."""
    cs = coefficients(c, N)
    derived = tuple(k * cs[k] for k in range(1, N))
    return threshold_constant(cs, M, N, rho), M * threshold_constant(derived, M - 1, N - 1, rho)


def _loewner_inputs(c, M: int, rho, A: np.ndarray, tol: float, refine: bool):
    """(H, float coefficients, sharp constant C) of the two Loewner checks, H
    the Hermitian part of A that its one validation returns (the memo's own
    read-only array, see ``spectral``).

    Checks, in this order: A square, the coefficients, A PSD with entries in
    the closed disc of radius rho.  With ``refine`` it adds the hypotheses of
    pd_refinement_check: N > 1 before the coefficients, M >= N after them,
    and a row of pairwise distinct entries after the disc.
    """
    A = spectral.require_square(A)
    N = A.shape[0]
    if refine and N < 2:
        raise ValueError("need N >= 2")
    cs = coefficients(c, N)
    if refine:
        _require_m_ge_n(M, N)
    H = spectral.require_psd(A, tol)
    peak = float(np.abs(A).max())
    if peak > float(rho) * (1.0 + 1e-9) + tol:
        raise ValueError(f"entries exceed the closed disc of radius {rho}")
    if refine:
        scale = max(1.0, peak)
        pairs = [(j, k) for j in range(N) for k in range(j + 1, N)]
        if not any(all(abs(row[j] - row[k]) > tol * scale for j, k in pairs) for row in A):
            raise ValueError("no row with pairwise distinct entries")
    # a float term over a Fraction c_j is float(term) / float(c_j) in Fraction's
    # own division, so with a float rho the float coefficients give the same constant
    fcs = [float(x) for x in cs]
    return H, fcs, float(_threshold_constant(fcs if isinstance(rho, float) else cs, M, N, rho))


def _finite(F: np.ndarray) -> np.ndarray:
    """F, the Loewner difference of a check, which must have no inf or NaN
    entry (an overflow); raises ValueError otherwise."""
    if not np.isfinite(F).all():
        raise ValueError("matrix has a non-finite entry")
    return F


def lmi_check(c, M: int, rho, A: np.ndarray, tol: float = 1e-9) -> bool:
    """Loewner inequality A^(oM) <= C * sum_j c_j A^(oj) at the sharp constant.

    A is validated once (:func:`_loewner_inputs`), and the inequality is
    decided on its Hermitian part H: F = C h_c[H] - H^(oM) must be PSD
    within tol (the test of ``spectral.psd_verdict``, Cholesky certificate
    included).  h_c is ``h_matrix`` (Horner's rule) and C multiplies it
    afterwards, so F overflows only where C h_c[H] does.  F needs no
    Hermitian check of its own: it is Hermitian by construction, and both
    the certificate and the eigen-solve read its lower triangle alone.  The
    validation memo keeps A, not F.
    """
    H, cs, C = _loewner_inputs(c, M, rho, A, tol, refine=False)
    with np.errstate(all="ignore"):  # an overflow leaves inf or NaN, which _finite rejects
        F = C * h_matrix(cs, H) - H**M
    return spectral._decide(_finite(F), tol) is None


def pd_refinement_check(c, M: int, rho, A: np.ndarray, tol: float = 1e-9) -> bool:
    """Strict positive definiteness of (sum_j c_j A^(oj)) - (1/C) A^(oM).

    Requires N > 1 and some row of A with pairwise distinct entries (in
    particular A != rho * all-ones); under that hypothesis the boundary
    polynomial sends A to a positive definite matrix, not merely PSD.  As in
    :func:`lmi_check`, A is validated once and the difference
    h_c[H] - H^(oM) / C is built from its Hermitian part H;
    the strict test asks the smallest eigenvalue, which must exceed
    tol * max(1, spectral radius).
    """
    H, cs, C = _loewner_inputs(c, M, rho, A, tol, refine=True)
    with np.errstate(all="ignore"):  # an overflow leaves inf or NaN, which _finite rejects
        F = h_matrix(cs, H) - H**M / C
    w_min, scale, _ = spectral.psd_failures(_finite(F), tol)
    return bool(w_min > tol * scale)
