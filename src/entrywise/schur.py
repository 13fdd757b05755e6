"""Point evaluation of Schur polynomials over exact and floating scalars.

Exact hook values s_(a,1^b) come from the e/h sum
s_(a,1^b) = sum_i (-1)^i e_{b-i} h_{a+i} over Gaussian integers
(:func:`hook_values`).  The Jacobi-Trudi determinant in complete homogeneous
polynomials, well-defined at repeated coordinates, serves floating points
and every other shape (:func:`schur_eval`).  The bialternant ratio and
explicit tableau enumeration exist as independent cross-checks.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .backends import _gaussian_integer_rows, _rational, all_exact, det_exact
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
    parts = _parts(lam)
    xs = list(x)
    n = len(xs)
    if len(parts) != n:
        raise ValueError(f"partition length {len(parts)} != point length {n}")
    if n == 0:
        return 1
    if parts[0] == 0:
        return 1
    kmax = parts[0] + n - 1
    h = complete_homogeneous(xs, kmax)
    rows = [
        [h[parts[i] - i + j] if parts[i] - i + j >= 0 else 0 for j in range(n)]
        for i in range(n)
    ]
    if all_exact(xs):
        return det_exact(rows)
    arr = np.asarray(rows, dtype=complex)
    value = np.linalg.det(arr)
    has_complex = any(isinstance(v, complex) or np.iscomplexobj(v) for v in xs)
    return value if has_complex else value.real


def hook_values(M: int, points) -> list:
    """Rows [s_mu_0(x), ..., s_mu_{N-1}(x)], one per point x, mu_j = hook_partition(M, N, j).

    N is the common length of the points; requires M >= N.  Exact points take
    the hook expansion s_(a,1^b) = sum_i (-1)^i e_{b-i} h_{a+i} (Macdonald,
    Symmetric Functions, ch. I) over Gaussian integers; floating points take
    one Jacobi-Trudi :func:`schur_eval` per hook.
    """
    points = list(points)
    if not points:
        return []
    N = len(points[0])
    hooks = [hook_partition(M, N, j) for j in range(N)]
    return [
        _exact_hooks(M, N, x) if all_exact(x) else [schur_eval(mu, x) for mu in hooks]
        for x in points
    ]


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
    hr, hi = [1] + [0] * M, [0] * (M + 1)
    er, ei = [1] + [0] * (N - 1), [0] * N
    for a, b in zip(zr, zi):
        # one more variable a + bi: h_k += z h_{k-1} upwards, e_k += z e_{k-1} downwards
        for k in range(1, M + 1):
            hr[k], hi[k] = (
                hr[k] + a * hr[k - 1] - b * hi[k - 1],
                hi[k] + a * hi[k - 1] + b * hr[k - 1],
            )
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
