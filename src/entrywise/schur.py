"""Point evaluation of Schur polynomials over exact and floating scalars.

Exact hook values s_(a,1^b) come from the e/h sum
s_(a,1^b) = sum_i (-1)^i e_{b-i} h_{a+i} over Gaussian integers
(:func:`hook_values`).  The Jacobi-Trudi determinant in complete homogeneous
polynomials, well-defined at repeated coordinates, serves floating points
(one stacked determinant per call) and every other shape (:func:`_jacobi_trudi`).
Explicit tableau enumeration exists as an independent cross-check.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from .backends import _eliminate, _gaussian_integer_rows, _rational, all_exact
from .partitions import hook_partition


class EnumerationBudgetError(RuntimeError):
    """Tableau enumeration would exceed the configured budget."""


def vandermonde_det(x):
    """prod_{i<j} (x_i - x_j); zero when two coordinates coincide."""
    xs = list(x)
    result = 1
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            result = result * (xs[i] - xs[j])
    return result


def complete_homogeneous(x, kmax: int):
    """Values h_0(x), ..., h_kmax(x) by the one-variable-at-a-time recurrence.

    h_k over the first m variables satisfies
    h_k(x_1..x_m) = h_k(x_1..x_{m-1}) + x_m * h_{k-1}(x_1..x_m),
    so a single in-place ascending sweep per variable suffices.  Exact over
    rationals; numerically stable for floats (no alternating sums).
    """
    h = [1] + [0] * kmax
    for xi in x:
        for k in range(1, kmax + 1):
            h[k] = h[k] + xi * h[k - 1]
    return h


def _parts(lam):
    return tuple(int(p) for p in lam)


def schur_eval(lam, x):
    """s_lam(x) via the Jacobi-Trudi determinant det(h_{lam_i - i + j}).

    Accepts exact scalars (int/Fraction/GaussianRational) and returns an exact
    value, or floats/complex and returns a float/complex value.  The partition
    must carry explicit trailing zeros so that len(lam) == len(x).
    """
    return _jacobi_trudi([lam], [x])[0][0]


def _jacobi_trudi(shapes, points) -> list:
    """Rows [s_lam(x) for lam in shapes], one per point x, by Jacobi-Trudi.

    Each shape needs len(x) parts; one with no positive part gives 1.  Float
    points share one stacked determinant gathered from their h_0..h_k table
    (complex values only at a point with a complex coordinate).  An exact x
    is scaled to Gaussian integers z = D x and s_lam(x) is the fraction-free
    determinant at z over D^|lam|; the scalings keep det_exact's zero pivots
    and so its types.
    """
    shapes = tuple(_parts(lam) for lam in shapes)
    points = [list(x) for x in points]
    if not points:
        return []
    for x in points:
        for lam in shapes:
            if len(lam) != len(x):
                raise ValueError(f"partition length {len(lam)} != point length {len(x)}")
    rows = [[1] * len(shapes) for _ in points]
    live, kmax, index, idx = _layout(shapes)
    if not live:
        return rows
    floats = []
    for p, x in enumerate(points):
        if not all_exact(x):
            floats.append(p)
            continue
        (zr,), (zi,), D, gaussian = _gaussian_integer_rows([x])
        hr, hi = (h + [0] for h in _h_pairs(zr, zi, kmax))
        for s, ks in zip(live, index):
            re = [[hr[k] for k in row] for row in ks]
            im = [[hi[k] for k in row] for row in ks]
            sign = _eliminate(re, im)
            rows[p][s] = Fraction(0) if not sign else _rational(
                sign * re[-1][-1], sign * im[-1][-1], D ** sum(shapes[s]), 0, gaussian
            )
    if floats:
        table = np.array([complete_homogeneous(points[p], kmax) + [0] for p in floats], complex)
        for p, values in zip(floats, np.linalg.det(table[:, idx])):
            if not any(_is_complex(v) for v in points[p]):
                values = values.real
            for s, value in zip(live, values):
                rows[p][s] = value
    return rows


@functools.lru_cache(maxsize=256)
def _layout(shapes: tuple):
    """(live, kmax, index, idx): the shapes with a positive part, the largest h
    index they read, and their n x n indices of h_{lam_i - i + j} as lists and
    as one array; -1, a zero after h_kmax, stands for a negative index."""
    live = tuple(s for s, lam in enumerate(shapes) if lam and lam[0])
    if not live:
        return live, 0, [], None
    n = len(shapes[live[0]])
    kmax = max(shapes[s][0] for s in live) + n - 1
    index = [[[max(shapes[s][i] - i + j, -1) for j in range(n)] for i in range(n)] for s in live]
    return live, kmax, index, np.array(index)


def _is_complex(v) -> bool:
    # ints and floats (numpy float64 too) skip the slower numpy test
    return isinstance(v, complex) or (not isinstance(v, (int, float)) and np.iscomplexobj(v))


def _h_pairs(zr, zi, kmax: int):
    """(real parts, imaginary parts) of h_0..h_kmax at the Gaussian integers
    z = zr + i zi, by the recurrence of :func:`complete_homogeneous`."""
    hr, hi = [1] + [0] * kmax, [0] * (kmax + 1)
    for a, b in zip(zr, zi):
        for k in range(1, kmax + 1):
            hr[k], hi[k] = (
                hr[k] + a * hr[k - 1] - b * hi[k - 1],
                hi[k] + a * hi[k - 1] + b * hr[k - 1],
            )
    return hr, hi


def hook_values(M: int, points) -> list:
    """Rows [s_mu_0(x), ..., s_mu_{N-1}(x)], one per point x, mu_j = hook_partition(M, N, j).

    N is the common length of the points; requires M >= N.  Exact points take
    the hook expansion s_(a,1^b) = sum_i (-1)^i e_{b-i} h_{a+i} (Macdonald,
    Symmetric Functions, ch. I) over Gaussian integers; floating points share
    one stacked Jacobi-Trudi evaluation (:func:`_jacobi_trudi`).
    """
    points = list(points)
    if not points:
        return []
    N = len(points[0])
    hooks = [hook_partition(M, N, j) for j in range(N)]
    float_rows = iter(_jacobi_trudi(hooks, [x for x in points if not all_exact(x)]))
    return [_exact_hooks(M, N, x) if all_exact(x) else next(float_rows) for x in points]


def _exact_hooks(M: int, N: int, x) -> list:
    """The N hook values at one exact point, from h_0..h_M and e_0..e_{N-1}.

    The point is scaled to Gaussian integers z = D x, so a hook of degree
    M - j is its value at z divided once by D^(M - j).  Values have the type
    that det_exact gives for the Jacobi-Trudi matrix: a GaussianRational when
    x has one, else a Fraction, and the Fraction 0 for a vanishing hook with
    a zero part (j >= 1: the matrix's first N - 1 columns are then dependent).
    """
    if len(x) != N:
        raise ValueError(f"partition length {N} != point length {len(x)}")
    (zr,), (zi,), D, gaussian = _gaussian_integer_rows([x])
    hr, hi = _h_pairs(zr, zi, M)
    er, ei = [1] + [0] * (N - 1), [0] * N
    for a, b in zip(zr, zi):
        # one more variable a + bi: e_k += z e_{k-1}, downwards
        for k in range(N - 1, 0, -1):
            er[k], ei[k] = (
                er[k] + a * er[k - 1] - b * ei[k - 1],
                ei[k] + a * ei[k - 1] + b * er[k - 1],
            )
    arm = M - N + 1
    row = []
    for j in range(N):
        leg = N - 1 - j
        sr = si = 0
        for i in range(leg + 1):
            sign = -1 if i % 2 else 1
            sr += sign * (er[leg - i] * hr[arm + i] - ei[leg - i] * hi[arm + i])
            si += sign * (er[leg - i] * hi[arm + i] + ei[leg - i] * hr[arm + i])
        if j and not (sr or si):
            row.append(Fraction(0))
        else:
            row.append(_rational(sr, si, D ** (M - j), 0, gaussian))
    return row


def ssyt_count(lam, n: int) -> int:
    """Number of semistandard tableaux of shape lam with entries in {1..n}.

    Product formula prod_{i<j} (lam_i - lam_j + j - i) / (j - i) over the
    shape padded to length n; zero when the shape has more than n rows.
    """
    parts = _parts(lam)
    nonzero = [p for p in parts if p > 0]
    if len(nonzero) > n:
        return 0
    padded = list(parts[:n]) + [0] * max(0, n - len(parts))
    val = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            val *= Fraction(padded[i] - padded[j] + j - i, j - i)
    assert val.denominator == 1
    return int(val)


def schur_eval_ssyt_oracle(lam, x, budget: int = 10_000_000):
    """s_lam(x) by summing monomials over explicit tableau enumeration.

    Exponentially slower than schur_eval; intended as an independent test
    oracle.  Raises EnumerationBudgetError when the tableau count (known in
    advance from the product formula) exceeds `budget`.
    """
    parts = _parts(lam)
    xs = list(x)
    n = len(xs)
    if len(parts) != n:
        raise ValueError(f"partition length {len(parts)} != point length {n}")
    count = ssyt_count(parts, n)
    if count > budget:
        raise EnumerationBudgetError(f"{count} tableaux exceed budget {budget}")
    shape = [p for p in parts if p > 0]
    if not shape:
        return 1
    if len(shape) > n:
        return 0
    cells = [(r, c) for r, width in enumerate(shape) for c in range(width)]
    tab = [[0] * width for width in shape]

    def fill(idx, acc):
        if idx == len(cells):
            return acc
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = tab[r][c - 1]
        if r > 0:
            lo = max(lo, tab[r - 1][c] + 1)
        total = 0
        for v in range(lo, n + 1):
            tab[r][c] = v
            total = total + fill(idx + 1, acc * xs[v - 1])
        tab[r][c] = 0
        return total

    return fill(0, 1)


def principal_specialization(lam, z, N: int):
    """s_lam(1, z, z^2, ..., z^{N-1}) in product form.

    At z == 1 this is the integer tableau count; otherwise the q-analogue
    product, which requires z^j != z^i for 1 <= i < j <= N (a vanishing
    denominator raises ValueError).
    """
    parts = _parts(lam)
    if len(parts) != N:
        raise ValueError(f"partition length {len(parts)} != N = {N}")
    if z == 1:
        return ssyt_count(parts, N)
    asc = parts[::-1]  # ascending index convention: asc[j-1] is the j-th smallest part
    result = 1
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            den = z**j - z**i
            if den == 0:
                raise ValueError(f"vanishing denominator z^{j} - z^{i} at z={z!r}")
            num = z ** (asc[j - 1] + j) - z ** (asc[i - 1] + i)
            result = result * num / den
    return result
