"""Random inputs: exact rational draws and PSD matrix samplers.

Exact draws use numerators uniform in [-9, 9] and denominators uniform in
[1, 9].  Floating PSD samples mix rescaled complex Wishart matrices, real
rank-one matrices from the open cube, and scaled correlation matrices; the
near-corner rank-one family probes sharpness of the threshold constants.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from .backends import GaussianRational

NEAR_CORNER_DELTAS = (
    0.3,
    0.1,
    0.03,
    0.01,
    3e-3,
    1e-3,
    3e-4,
    1e-4,
    1e-5,
    1e-6,
)


def random_fraction(rng: random.Random, nonzero: bool = False) -> Fraction:
    num = rng.randint(-9, 9)
    while nonzero and num == 0:
        num = rng.randint(-9, 9)
    return Fraction(num, rng.randint(1, 9))


def random_positive_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def random_gaussian_rational(rng: random.Random, nonzero: bool = False) -> GaussianRational:
    while True:
        value = GaussianRational(random_fraction(rng), random_fraction(rng))
        if not nonzero or value:
            return value


def random_gaussian_rational_vector(rng: random.Random, n: int, distinct: bool = False):
    out: list[GaussianRational] = []
    while len(out) < n:
        candidate = random_gaussian_rational(rng)
        if distinct and candidate in out:
            continue
        out.append(candidate)
    return out


def near_corner_path(N: int, root: float, deltas) -> np.ndarray:
    """Rows u_k = root (1 - delta k / N), k = 1..N, one per delta.

    With root = sqrt(rho) the coordinates are pairwise distinct for delta > 0
    and approach the corner sqrt(rho)*(1,..,1) as delta -> 0: the rank-one
    path along which the threshold constants are sharp.  Callers pass the
    root so that each keeps its own rounding of sqrt(rho).
    """
    return np.array([[root * (1.0 - delta * k / N) for k in range(1, N + 1)] for delta in deltas])


def _outer_rows(U: np.ndarray) -> np.ndarray:
    """Stack of plain outer products u u^T, one per row of U."""
    return U[:, :, None] * U[:, None, :]


def near_corner_rank_one(N: int, rho: float, deltas=NEAR_CORNER_DELTAS):
    """Rank-one samples u u^T along :func:`near_corner_path` with root sqrt(rho);
    these witness near-extremal behaviour of the thresholds."""
    for u in near_corner_path(N, np.sqrt(float(rho)), deltas):
        yield np.outer(u, u)


SAMPLE_BATCH = 1024  # largest block of random draws built at once


def psd_disc_batches(
    N: int,
    rho: float,
    count: int,
    rng: np.random.Generator,
    include_near_corner: bool = True,
):
    """The stream of :func:`psd_disc_samples` as stacked blocks.

    Each item is a list of ``(positions, stack)`` pairs covering consecutive
    stream positions: ``stack`` is a ``(k, N, N)`` array of one sample kind
    (so one dtype) and ``positions[i]`` is the index of ``stack[i]`` in the
    stream.  The near-corner samples form the first block; the random draws
    follow in blocks of at most ``SAMPLE_BATCH``, split by kind (complex
    Wishart rescaled into the disc, real rank-one from the open cube
    (0, sqrt(rho))^N, complex correlation matrix times rho), the kind of
    position p being p mod 3.  The generator makes the same ``rng`` calls in
    the same order as drawing the samples one at a time; each kind's
    matrices are then built in one vectorised step.
    """
    rho = float(rho)
    root = np.sqrt(rho)
    start = 0
    if include_near_corner:
        U = near_corner_path(N, root, NEAR_CORNER_DELTAS)[:count]
        if len(U):
            yield [(np.arange(len(U)), _outer_rows(U))]
        start = len(U)
    while start < count:
        stop = min(count, start + SAMPLE_BATCH)
        positions = np.arange(start, stop)
        real, imag, cube = [], [], []
        for p in range(start, stop):
            if p % 3 == 1:
                u = rng.uniform(0.0, root, size=N)
                while np.any(u == 0.0):
                    u = rng.uniform(0.0, root, size=N)
                cube.append(u)
            else:
                real.append(rng.standard_normal((N, N)))
                imag.append(rng.standard_normal((N, N)))
        block = []
        if real:
            B = np.array(real) + 1j * np.array(imag)
            A = B @ B.conj().swapaxes(1, 2)
            gaussian = positions[positions % 3 != 1]
            wishart = gaussian % 3 == 0
            W = A[wishart]
            if len(W):
                scale = np.max(np.abs(W), axis=(1, 2))
                block.append((gaussian[wishart], W * (rho / scale)[:, None, None]))
            C = A[~wishart]
            if len(C):
                d = np.sqrt(np.real(np.diagonal(C, axis1=1, axis2=2)))
                block.append((gaussian[~wishart], rho * (C / _outer_rows(d))))
        if cube:
            block.append((positions[positions % 3 == 1], _outer_rows(np.array(cube))))
        yield block
        start = stop


def psd_disc_samples(
    N: int,
    rho: float,
    count: int,
    rng: np.random.Generator,
    include_near_corner: bool = True,
):
    """Yield `count` PSD matrices with entries in the closed disc of radius rho.

    Deterministic near-corner rank-one samples come first (they are the hard
    cases for sharpness), then a seeded cycle of Wishart / rank-one /
    correlation draws.  The samples are built in batches by
    :func:`psd_disc_batches` and yielded one at a time in draw order.
    """
    for block in psd_disc_batches(N, rho, count, rng, include_near_corner):
        positions = np.concatenate([p for p, _ in block])
        matrices = [A for _, stack in block for A in stack]
        for i in np.argsort(positions):
            yield matrices[i]


def random_separated_complex(
    N: int,
    rng: np.random.Generator,
    min_abs: float = 0.4,
    max_abs: float = 1.1,
    separation: float = 0.15,
) -> np.ndarray:
    """Complex vector with moduli in [min_abs, max_abs] and pairwise separation.

    Keeps Vandermonde-type conditioning moderate so spectral and closed-form
    Rayleigh evaluations can agree to tight tolerances.
    """
    while True:
        r = rng.uniform(min_abs, max_abs, size=N)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=N)
        u = r * np.exp(1j * theta)
        ok = True
        for i in range(N):
            for j in range(i + 1, N):
                if abs(u[i] - u[j]) < separation:
                    ok = False
        if ok:
            return u
