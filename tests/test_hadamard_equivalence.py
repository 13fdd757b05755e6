"""The array-based Hadamard identities against their list-of-rows originals.

`entrywise.hadamard` writes each identity once over ndarrays, with exact
rows entering as one dtype=object array.  The references below are the
earlier implementations, which forked on numpy input and computed exact
matrices as lists of rows.  Every output must agree with them by repr, for
exact (int, Fraction, GaussianRational) rows and for float and complex
arrays: the same scalars, the same types and, on the float side, the same
bits.

On the float side "the same bits" means the bits of one fixed evaluation
order.  `ref_hadamard_power` builds A**k from scratch, as `hadamard_power`
does; `ref_entrywise_poly` walks the exponents in ascending order with a
cumulative power (one product by A per unit step, by A**gap across a gap)
and adds each term as it goes, which is the order `entrywise_poly` uses.
How close that order comes to the exact value is checked separately, by the
Fraction oracle in `tests/test_hadamard.py`.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from entrywise import hadamard
from entrywise.backends import GaussianRational, all_exact, det_exact
from entrywise.hadamard import PencilSpec
from entrywise.samplers import random_fraction, random_gaussian_rational_vector
from entrywise.schur import hook_values


def _ref_rows(A):
    rows = [list(r) for r in A]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("square matrix required")
    return rows


def ref_hadamard_power(A, n):
    if isinstance(A, np.ndarray):
        return np.ones_like(A) if n == 0 else A**n
    rows = _ref_rows(A)
    if n == 0:
        return [[1 for _ in row] for row in rows]
    return [[v**n for v in row] for row in rows]


def ref_entrywise_poly(coeffs, A):
    if isinstance(A, np.ndarray):
        out = np.zeros(A.shape, dtype=complex)
        power, at = np.ones_like(A), 0
        for k in sorted(coeffs):  # ascending cumulative powers
            if k > at:
                power, at = power * (A if k - at == 1 else A ** (k - at)), k
            out += complex(coeffs[k]) * power
        if not np.iscomplexobj(A) and all(
            not isinstance(c, complex) for c in coeffs.values()
        ):
            return out.real
        return out
    rows = _ref_rows(A)

    def f(z):
        total = 0
        for k, c in coeffs.items():
            total = total + c * (z**k if k > 0 else 1)
        return total

    return [[f(v) for v in row] for row in rows]


def ref_rank_one_outer(u, v):
    if all_exact(u) and all_exact(v):
        return [[ui * vj for vj in v] for ui in u]
    return np.outer(np.asarray(u), np.asarray(v))


def ref_pencil_det_direct(spec, u, v):
    coeffs = {j: spec.t * c for j, c in enumerate(spec.coeffs)}
    A = ref_rank_one_outer(u, v)
    base = ref_entrywise_poly(coeffs, A)
    power = ref_hadamard_power(A, spec.M)
    if isinstance(base, np.ndarray):
        return np.linalg.det(base - power)
    n = len(base)
    return det_exact([[base[i][k] - power[i][k] for k in range(n)] for i in range(n)])


def ref_cauchy_binet_lhs(coeffs_by_exponent, u, v):
    A = ref_rank_one_outer(u, v)
    total = ref_entrywise_poly({n: coeffs_by_exponent[n] for n in sorted(coeffs_by_exponent)}, A)
    if isinstance(A, np.ndarray):
        return np.linalg.det(np.asarray(total, dtype=complex))
    return det_exact(total)


def _ref_diagonals(A, M):
    rows = [list(r) for r in (A.tolist() if isinstance(A, np.ndarray) else A)]
    n = len(rows)
    if M < n:
        return [[1 if j == M else 0 for _ in range(n)] for j in range(n)], rows
    weights = [
        [(-1) ** (len(row) - 1 - j) * s for j, s in enumerate(row)]
        for row in hook_values(M, rows)
    ]
    return [list(d) for d in zip(*weights)], rows


def ref_hadamard_decomposition(A, M):
    diag, _ = _ref_diagonals(A, M)
    n = len(diag[0])
    if isinstance(A, np.ndarray):
        dtype = A.dtype if A.dtype.kind == "c" else float
        return [np.diag(np.asarray(d, dtype=dtype)) for d in diag]
    return [[[d[i] if i == k else 0 for k in range(n)] for i in range(n)] for d in diag]


def ref_decomposition_residual(A, M):
    diag, rows = _ref_diagonals(A, M)
    n = len(rows)
    powers = [ref_hadamard_power(rows, j) for j in range(n)]
    target = ref_hadamard_power(rows, M)
    residual = []
    for i in range(n):
        res_row = []
        for k in range(n):
            acc = target[i][k]
            for j in range(n):
                acc = acc - diag[j][i] * powers[j][i][k]
            res_row.append(acc)
        residual.append(res_row)
    if isinstance(A, np.ndarray):
        return np.asarray(residual, dtype=complex)
    return residual


def canon(x):
    """repr that is exact for arrays too: dtype, shape and every scalar."""
    if isinstance(x, np.ndarray):
        return ("ndarray", x.dtype.str, x.shape, repr(x.tolist()))
    if isinstance(x, list):
        return [canon(y) for y in x]
    return repr(x)


def _exact_vector(rng, kind, n):
    if kind == "int":
        return [rng.randint(-4, 4) for _ in range(n)]
    if kind == "fraction":
        return [random_fraction(rng) for _ in range(n)]
    return random_gaussian_rational_vector(rng, n)


def _float_vector(np_rng, kind, n):
    x = np_rng.standard_normal(n)
    return x if kind == "float" else x + 1j * np_rng.standard_normal(n)


def _maps(rng, exact):
    def coeff():
        return random_fraction(rng, nonzero=True) if exact else rng.uniform(-2, 2)

    yield {}
    yield {0: coeff()}
    yield {e: coeff() for e in rng.sample(range(7), rng.randint(1, 4))}
    yield {4: coeff(), 0: coeff(), 2: coeff()}  # unsorted map order


def _cases():
    rng = random.Random(11)
    np_rng = np.random.default_rng(11)
    for kind in ("int", "fraction", "gaussian", "float", "complex"):
        exact = kind in ("int", "fraction", "gaussian")
        for N in (1, 2, 3, 4):
            for trial in range(3):
                if exact:
                    vecs = [_exact_vector(rng, kind, N) for _ in range(N + 2)]
                    A = vecs[2:]
                else:
                    vecs = [_float_vector(np_rng, kind, N) for _ in range(N + 2)]
                    A = np.array(vecs[2:])
                if N >= 2 and trial == 2:
                    A[1] = A[0].copy() if not exact else list(A[0])  # repeated rows
                yield kind, N, vecs[0], vecs[1], A


CASES = list(_cases())
IDS = [f"{kind}-N{N}-{i}" for i, (kind, N, *_) in enumerate(CASES)]


@pytest.mark.parametrize("kind,N,u,v,A", CASES, ids=IDS)
def test_matrix_functions_match_reference(kind, N, u, v, A):
    rng = random.Random(N)
    exact = kind in ("int", "fraction", "gaussian")
    for n in range(0, 5):
        assert canon(hadamard.hadamard_power(A, n)) == canon(ref_hadamard_power(A, n))
    for coeffs in _maps(rng, exact):
        got = hadamard.entrywise_poly(coeffs, A)
        assert canon(got) == canon(ref_entrywise_poly(coeffs, A))
    for M in range(0, N + 4):  # M < N included
        got = hadamard.decomposition_residual(A, M)
        assert canon(got) == canon(ref_decomposition_residual(A, M))
        got = hadamard.hadamard_decomposition(A, M)
        assert canon(got) == canon(ref_hadamard_decomposition(A, M))


@pytest.mark.parametrize("kind,N,u,v,A", CASES, ids=IDS)
def test_rank_one_identities_match_reference(kind, N, u, v, A):
    rng = random.Random(100 + N)
    exact = kind in ("int", "fraction", "gaussian")
    coeff = (lambda: random_fraction(rng, nonzero=True)) if exact else (
        lambda: rng.uniform(0.5, 2)
    )
    for M in range(0, N + 3):
        spec = PencilSpec(coeff(), tuple(coeff() for _ in range(N)), M)
        for w in (v, u):  # u u^T too: a symmetric rank-one matrix
            got = hadamard.pencil_det_direct(spec, u, w)
            assert canon(got) == canon(ref_pencil_det_direct(spec, u, w))
    for coeffs in list(_maps(rng, exact))[1:]:
        got = hadamard.cauchy_binet_lhs(coeffs, u, v)
        assert canon(got) == canon(ref_cauchy_binet_lhs(coeffs, u, v))


def test_empty_map_and_constant_map_keep_exact_types():
    rows = [[Fraction(1, 2), GaussianRational(Fraction(1), Fraction(1))], [3, Fraction(2)]]
    assert hadamard.entrywise_poly({}, rows) == [[0, 0], [0, 0]]
    got = hadamard.entrywise_poly({0: Fraction(3)}, rows)
    assert canon(got) == canon(ref_entrywise_poly({0: Fraction(3)}, rows))
    assert all(type(x) is Fraction for row in got for x in row)
