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


def near_corner_path(N: int, rho: float, deltas) -> np.ndarray:
    """Rows u_k = sqrt(rho) (1 - delta k / N), k = 1..N, one per delta.

    The coordinates are pairwise distinct for delta > 0 and approach the
    corner sqrt(rho)*(1,..,1) as delta -> 0: the rank-one path along which
    the threshold constants are sharp.  sqrt(rho) is rounded once, by
    np.sqrt.  One array expression does the scalar formula's operations in
    its order (delta k, then / N, then 1 -, then sqrt(rho) *), so each entry
    has the scalar formula's bits; the result has shape (len(deltas), N).
    """
    return np.sqrt(rho) * (1.0 - np.asarray(deltas, dtype=float)[:, None] * np.arange(1, N + 1) / N)


def _outer_rows(U: np.ndarray) -> np.ndarray:
    """Stack of plain outer products u u^T, one per row of U."""
    return U[:, :, None] * U[:, None, :]


SAMPLE_BATCH = 1024  # largest block of random draws built at once


def _disc_radius(N: int, rho) -> float:
    """float(rho) after checking that N >= 1 and rho is finite and positive."""
    if N < 1:
        raise ValueError("N must be at least 1")
    rho = float(rho)
    if not (rho > 0):
        raise ValueError("rho must be positive")
    if rho == np.inf:
        raise ValueError("rho must be finite")
    return rho


def psd_disc_batches(
    N: int,
    rho: float,
    count: int,
    rng: np.random.Generator,
):
    """The stream of :func:`psd_disc_samples` as stacked blocks.

    Each item is a list of ``(positions, stack)`` pairs covering consecutive
    stream positions: ``stack`` is a ``(k, N, N)`` array of one dtype and
    ``positions[i]`` is the index of ``stack[i]`` in the stream.  The
    near-corner samples form the first block; the random draws follow in
    blocks of at most ``SAMPLE_BATCH``, the kind of position p being p mod 3
    (complex Wishart rescaled into the disc, real rank-one from the open cube
    (0, sqrt(rho))^N, complex correlation matrix times rho).  A random block
    holds one complex stack (the Wishart and correlation draws, in position
    order) and one real stack (the cube draws).

    The generator consumes the same random stream as drawing the samples one
    at a time.  Each block's draws go straight into two preallocated arrays,
    walking the positions in order: a cube position is one ``random`` call
    into its row of ``cube``, repeated while the row holds a zero, and each
    run of consecutive Gaussian positions is one ``standard_normal`` call
    into its slice of ``G``, which fills it in the order of the one-at-a-time
    calls.  The cube rows are then ``root * cube``: bit for bit
    ``uniform(0, root)``, which computes ``0.0 + root * d``, and a row holds
    a zero exactly when ``root * d`` does (root >= sqrt(5e-324) and a
    nonzero d >= 2^-53, so their product never underflows to zero).
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    rho = _disc_radius(N, rho)
    root = np.sqrt(rho)
    U = near_corner_path(N, rho, NEAR_CORNER_DELTAS)[:count]
    if len(U):
        yield [(np.arange(len(U)), _outer_rows(U))]
    start = len(U)
    while start < count:
        stop = min(count, start + SAMPLE_BATCH)
        positions = np.arange(start, stop)
        on_cube = positions % 3 == 1
        cube = np.empty((int(on_cube.sum()), N))
        G = np.empty((len(positions) - len(cube), 2, N, N))
        # before the first cube position: the Wishart position of a block
        # that starts at 0 mod 3, or the correlation-Wishart pair of one
        # that starts at 2; after each cube position, the next pair
        g = min(len(G), (1 - start) % 3)
        if g:
            rng.standard_normal(out=G[:g])
        for row in cube:
            rng.random(out=row)
            while 0.0 in row.tolist():
                rng.random(out=row)
            run = min(2, len(G) - g)
            if run:
                rng.standard_normal(out=G[g : g + run])
                g += run
        block = []
        if len(G):
            B = G[:, 0] + 1j * G[:, 1]
            A = B @ B.conj().swapaxes(1, 2)
            gaussian = positions[~on_cube]
            wishart = gaussian % 3 == 0
            W = A[wishart]
            A[wishart] = W * (rho / np.max(np.abs(W), axis=(1, 2)))[:, None, None]
            C = A[~wishart]
            d = np.sqrt(np.real(np.diagonal(C, axis1=1, axis2=2)))
            A[~wishart] = rho * (C / _outer_rows(d))
            block.append((gaussian, A))
        if len(cube):
            block.append((positions[on_cube], _outer_rows(root * cube)))
        yield block
        start = stop


def psd_disc_samples(
    N: int,
    rho: float,
    count: int,
    rng: np.random.Generator,
):
    """Yield `count` PSD matrices with entries in the closed disc of radius rho.

    Deterministic near-corner rank-one samples come first (they are the hard
    cases for sharpness), then a seeded cycle of Wishart / rank-one /
    correlation draws.  The samples are built in batches by
    :func:`psd_disc_batches` and yielded one at a time in draw order.
    """
    for block in psd_disc_batches(N, rho, count, rng):
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
