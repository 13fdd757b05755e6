"""Point evaluation of Schur polynomials over exact and floating scalars.

Hook values s_(a,1^b), h_k = s_(k) among them, come from one subtraction-free
recurrence, the branching rule (:func:`_hook_table`), exact over Gaussian
integers.  Every other shape takes the Jacobi-Trudi determinant in those h
values (:func:`_jacobi_trudi`): one stacked determinant for a call's float
points, fraction-free elimination at each exact one.  Explicit tableau
enumeration exists as an independent cross-check.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from .backends import _eliminate, _gaussian_integer_rows, _rational, all_exact
from .partitions import _require_m_ge_n


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
        hr, hi = ([row[0] for row in T] + [0] for T in _hook_table(zr, zi, kmax, 0))
        for s, ks in zip(live, index):
            re = [[hr[k] for k in row] for row in ks]
            im = [[hi[k] for k in row] for row in ks]
            sign = _eliminate(re, im)
            rows[p][s] = Fraction(0) if not sign else _rational(
                sign * re[-1][-1], sign * im[-1][-1], D ** sum(shapes[s]), 0, gaussian
            )
    if floats:
        hr, hi = _float_table([points[p] for p in floats], kmax, 0)
        table = np.zeros((len(floats), kmax + 2), complex)
        for k in range(kmax + 1):
            table.real[:, k], table.imag[:, k] = hr[k][0], hi[k][0]
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


def _hook_table(zr, zi, arm: int, leg: int):
    """(real parts, imaginary parts) of T[a][b] = s_(a,1^b)(z), a <= arm and
    b <= leg, at the point z = zr + i zi; column 0 holds h_0..h_arm.

    The branching rule (Macdonald, Symmetric Functions, I.5; the hook
    case of Demmel and Koev, Math. Comp. 75 (2006)): T starts as row 0 =
    (1, 0, ..., 0) and zeros, and each coordinate w turns T into T' with
    T'[a][b] = T[a][b] + w (T[a][b-1] + T'[a-1][b]).  It uses +, - and * on
    (real, imaginary) pairs only, in the order of Python's complex product;
    a part may be an int, a float or a numpy array over points.  At
    non-negative real coordinates every term is non-negative: nothing cancels.
    """
    Tr = [[1] + [0] * leg] + [[0] * (leg + 1) for _ in range(arm)]
    Ti = [[0] * (leg + 1) for _ in range(arm + 1)]
    for n, (x, y) in enumerate(zip(zr, zi)):
        for a in range(1, arm + 1):
            ur, ui, tr, ti = Tr[a - 1], Ti[a - 1], Tr[a], Ti[a]
            # downwards, so T[a][b-1] is still the old value; s_(a,1^b) of
            # n + 1 coordinates vanishes for b > n
            for b in range(min(leg, n), -1, -1):
                wr, wi = (tr[b - 1] + ur[b], ti[b - 1] + ui[b]) if b else (ur[b], ui[b])
                tr[b], ti[b] = tr[b] + (x * wr - y * wi), ti[b] + (x * wi + y * wr)
    return Tr, Ti


def _float_table(points, arm: int, leg: int):
    """_hook_table at float points: on arrays over points, or on Python
    floats for a lone point, where numpy's cost per call would dominate."""
    Z = np.array(points, complex).T
    z = (Z.real[:, 0].tolist(), Z.imag[:, 0].tolist()) if len(points) == 1 else (Z.real, Z.imag)
    return _hook_table(*z, arm, leg)


def hook_values(M: int, points) -> list:
    """Rows [s_mu_0(x), ..., s_mu_{N-1}(x)], one per point x, mu_j = hook_partition(M, N, j).

    N is the common length of the points; requires M >= N.  mu_j is
    T[M-N+1][N-1-j] of :func:`_hook_table`.  An exact x is scaled to Gaussian
    integers z = D x, and mu_j's value at z divided once by D^(M - j): a
    GaussianRational when x has one, else a Fraction, and the Fraction 0 for
    a vanishing hook with a zero part (j >= 1), as det_exact gives them.
    Float points share one table; a value is complex only at a point with a
    complex coordinate.
    """
    points = list(points)
    if not points:
        return []
    N = len(points[0])
    for x in points:
        if len(x) != N:
            raise ValueError(f"partition length {N} != point length {len(x)}")
    _require_m_ge_n(M, N)
    arm, rows = M - N + 1, []
    floats = [x for x in points if not all_exact(x)]
    if floats:
        tables = _float_table(floats, arm, N - 1)
        re, im = (np.reshape(T[arm][::-1], (N, -1)).T.tolist() for T in tables)
        cx = [any(map(_is_complex, x)) for x in floats]
        float_rows = iter([*map(complex, r, i)] if c else r for c, r, i in zip(cx, re, im))
    for x in points:
        if not all_exact(x):
            rows.append(next(float_rows))
            continue
        (zr,), (zi,), D, gaussian = _gaussian_integer_rows([x])
        re, im = (T[arm][::-1] for T in _hook_table(zr, zi, arm, N - 1))
        rows.append([
            _rational(a, b, D ** (M - j), 0, gaussian) if a or b or not j else Fraction(0)
            for j, (a, b) in enumerate(zip(re, im))
        ])
    return rows


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
