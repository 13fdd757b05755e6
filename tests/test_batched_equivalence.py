"""The batched sampler, positivity check and Horn search against one-at-a-time references.

The references below are the sequential algorithms: one sample drawn, one
entrywise evaluation and one eigen-solve at a time.  The batched code must
reproduce them exactly (``==`` and ``array_equal``), not within a tolerance.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entrywise.hadamard import entrywise_poly
from entrywise.samplers import SAMPLE_BATCH, near_corner_path, psd_disc_samples
from entrywise.threshold import (
    horn_necessity_witness,
    preserves_positivity_check,
    threshold_constant,
)

NEAR_CORNER_DELTAS = (0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3, 3e-4, 1e-4, 1e-5, 1e-6)


def _wishart(N, rho, rng):
    B = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    A = B @ B.conj().T
    return A * (rho / np.max(np.abs(A)))


def _rank_one(N, rho, rng):
    u = rng.uniform(0.0, np.sqrt(float(rho)), size=N)
    while np.any(u == 0.0):
        u = rng.uniform(0.0, np.sqrt(float(rho)), size=N)
    return np.outer(u, u)


def _correlation(N, rho, rng):
    B = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    A = B @ B.conj().T
    d = np.sqrt(np.real(np.diag(A)))
    return rho * (A / np.outer(d, d))


def reference_samples(N, rho, count, rng):
    out = []
    root = np.sqrt(float(rho))
    for delta in NEAR_CORNER_DELTAS[:count]:
        u = np.array([root * (1.0 - delta * k / N) for k in range(1, N + 1)])
        out.append(np.outer(u, u))
    kinds = (_wishart, _rank_one, _correlation)
    while len(out) < count:
        out.append(kinds[len(out) % 3](N, rho, rng))
    return out


def _min_eig(F, tol):
    w = np.linalg.eigvalsh((F + F.conj().T) / 2)
    scale = max(1.0, float(np.max(np.abs(w))))
    return w[0], scale


def reference_check(f, N, rho, samples, tol=1e-9, seed=0):
    worst = np.inf
    samples_list = reference_samples(N, rho, samples, np.random.default_rng(seed))
    for checked, A in enumerate(samples_list, start=1):
        w0, scale = _min_eig(np.asarray(entrywise_poly(f, A)), tol)
        rel = float(w0) / scale
        worst = min(worst, rel)
        if w0 < -tol * scale:
            return False, A, checked, rel
    return True, None, samples, worst


def reference_horn(f, N, rho, budget, tol=1e-9, seed=0):
    root = float(rho) ** 0.5
    xs = [root * s for s in (0.999, 0.9, 0.7, 0.5, 0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3)]
    qs = (0.999, 0.95, 0.9, 0.8, 0.6, 0.4, 0.2, 0.1, 0.05, 0.01)
    candidates = [np.array([x * q**k for k in range(N)]) for x in xs for q in qs]
    rng = None
    for tried in range(budget):
        if tried < len(candidates):
            u = candidates[tried]
        else:
            rng = rng or np.random.default_rng(seed)
            u = rng.uniform(0.0, root, size=N)
            while np.any(u == 0.0):
                u = rng.uniform(0.0, root, size=N)
        A = np.outer(u, u)
        w0, scale = _min_eig(np.asarray(entrywise_poly(f, A), dtype=float), tol)
        if w0 < -tol * scale:
            return A
    return None


def _threshold_polynomials(seed):
    """(f, N, rho) with c' at 1, 1.05, 3 and 30 times -1/C, for N = 2..4."""
    rng = random.Random(seed)
    out = []
    for N in (2, 3, 4):
        rho_q = Fraction(rng.randint(1, 8), 4)
        c = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(N))
        M = N + rng.randint(0, 3)
        C = float(threshold_constant(c, M, N, rho_q))
        for factor in (1.0, 1.05, 3.0, 30.0):
            f = {j: float(cj) for j, cj in enumerate(c)}
            f[M] = -factor / C
            out.append((f, N, float(rho_q)))
    return out


def _generic_polynomials(seed):
    """Mixed-sign polynomials whose first violation often lies among the random draws."""
    rng = random.Random(1000 + seed)
    out = []
    for N in (2, 3, 4):
        f = {k: rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 2.0) for k in range(rng.randint(1, 4))}
        f[0] = abs(f.get(0, 1.0)) + 1.0
        out.append((f, N, rng.choice((0.5, 1.0, 1.75))))
    return out


@pytest.mark.parametrize("seed", range(6))
def test_psd_disc_samples_match_reference(seed):
    rng = random.Random(seed)
    for N in (1, 2, 3, 4, 6):
        rho = rng.choice((0.25, 1.0, 1.75))
        for count in (1, 7, 10, 101):
            want = reference_samples(N, rho, count, np.random.default_rng(seed))
            got = list(psd_disc_samples(N, rho, count, np.random.default_rng(seed)))
            assert len(got) == len(want) == count
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)


def test_psd_disc_samples_across_batches():
    count = SAMPLE_BATCH + 37
    want = reference_samples(2, 1.0, count, np.random.default_rng(9))
    got = list(psd_disc_samples(2, 1.0, count, np.random.default_rng(9)))
    assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want))


# random blocks start at positions 10, 10 + SAMPLE_BATCH, 10 + 2 SAMPLE_BATCH,
# ...: at residues 1, 2, 0 mod 3 with SAMPLE_BATCH = 1024; a count of
# 2 SAMPLE_BATCH + 37 splits the Gaussian pair 2057 | 2058 between blocks
SPLIT_COUNT = 2 * SAMPLE_BATCH + 37


def test_blocks_start_at_every_residue():
    # keeps the state tests below covering every block start and the split
    starts = [10 + k * SAMPLE_BATCH for k in range(3)]
    assert sorted(p % 3 for p in starts) == [0, 1, 2]
    assert (starts[2] - 1) % 3 == 2 and starts[2] % 3 == 0 and starts[2] < SPLIT_COUNT


@pytest.mark.parametrize("N", (1, 2, 3))
@pytest.mark.parametrize(
    "count", (11, 12, 13, 14, SAMPLE_BATCH + 10, SAMPLE_BATCH + 11, SPLIT_COUNT)
)
def test_psd_disc_samples_leave_the_reference_state(N, count):
    # same samples and the same generator state after them: the stream,
    # not only the draws that were kept, is the one-at-a-time stream
    want_rng, got_rng = np.random.default_rng(N + count), np.random.default_rng(N + count)
    want = reference_samples(N, 0.75, count, want_rng)
    got = list(psd_disc_samples(N, 0.75, count, got_rng))
    assert len(got) == len(want) == count
    assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want))
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_exact_radius_gives_the_float_stream():
    # an exact radius must give float and complex samples, which
    # entrywise_poly and eigvalsh accept, not object arrays
    exact = list(psd_disc_samples(2, Fraction(1, 2), 40, np.random.default_rng(3)))
    approx = list(psd_disc_samples(2, 0.5, 40, np.random.default_rng(3)))
    assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(exact, approx))
    f = {0: 1.0, 1: 1.0, 2: -0.2}
    assert preserves_positivity_check(f, 2, Fraction(1, 2), 40, seed=3) == (
        preserves_positivity_check(f, 2, 0.5, 40, seed=3)
    )


def _assert_same_verdict(f, N, rho, samples, seed):
    preserves, witness, checked, worst = reference_check(f, N, rho, samples, seed=seed)
    verdict = preserves_positivity_check(f, N, rho, samples, seed=seed)
    assert verdict.preserves == preserves
    assert verdict.samples_checked == checked
    assert verdict.worst_min_eigenvalue == worst
    if witness is None:
        assert verdict.witness is None
    else:
        assert verdict.witness.dtype == witness.dtype
        assert np.array_equal(verdict.witness, witness)


@pytest.mark.parametrize("seed", range(5))
def test_preserves_positivity_check_matches_reference(seed):
    for f, N, rho in _threshold_polynomials(seed) + _generic_polynomials(seed):
        for samples in (4, 10, 131):
            _assert_same_verdict(f, N, rho, samples, seed)


@pytest.mark.parametrize("seed", range(4))
def test_preserves_positivity_check_first_violation_in_random_block(seed):
    # the near-corner samples pass; several kinds of random draw violate, and
    # the first violation is a Wishart, correlation or rank-one draw by seed
    f = {0: 1.0, 1: -0.8, 2: 1.0}
    preserves, _, checked, _ = reference_check(f, 2, 1.0, 200, seed=seed)
    assert not preserves and checked > 10
    _assert_same_verdict(f, 2, 1.0, 200, seed)


def test_preserves_positivity_check_across_batches():
    _assert_same_verdict({0: 1.0, 1: 1.0, 2: -0.2}, 2, 1.0, SAMPLE_BATCH + 20, seed=4)


def test_preserves_positivity_check_across_split_pair():
    # c' = -1/C: every sample passes, so the worst eigenvalue covers all blocks
    f = {0: 1.0, 1: 1.0, 2: -0.2}
    assert preserves_positivity_check(f, 2, 1.0, SPLIT_COUNT, seed=5).preserves
    _assert_same_verdict(f, 2, 1.0, SPLIT_COUNT, seed=5)


@pytest.mark.parametrize("seed", range(5))
def test_horn_witness_matches_reference(seed):
    for f, N, rho in _threshold_polynomials(seed) + _generic_polynomials(seed):
        for budget in (0, 1, 37, 100, 450):
            want = reference_horn(f, N, rho, budget, seed=seed)
            got = horn_necessity_witness(f, N, rho, budget, seed=seed)
            if want is None:
                assert got is None
            else:
                assert got is not None and np.array_equal(got, want)


def test_horn_witness_found_in_random_phase():
    # lopsided coefficients: the geometric sweep misses, and several random
    # draws of one chunk violate, so the first of them must be returned
    c = (Fraction(3), Fraction(1, 6))
    rho = Fraction(1, 4)
    f = {0: 3.0, 1: 1 / 6, 2: -1.05 / float(threshold_constant(c, 2, 2, rho))}
    want = reference_horn(f, 2, 0.25, 2000, seed=156)
    assert want is not None and reference_horn(f, 2, 0.25, 100, seed=156) is None
    assert np.array_equal(horn_necessity_witness(f, 2, 0.25, 2000, seed=156), want)


class ScriptedRng:
    """np.random.default_rng(seed), except that the cube rows of the chosen
    calls (counted over uniform and random calls, from 0) come back with a
    0.0 in one column: a draw the open cube rejects, which no seed gives."""

    def __init__(self, seed, zero_calls, column):
        self.inner = np.random.default_rng(seed)
        self.zero_calls = set(zero_calls)
        self.column = column
        self.cube_calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def _script(self, row):
        if self.cube_calls in self.zero_calls:
            row[self.column] = 0.0
        self.cube_calls += 1
        return row

    def uniform(self, low, high, size):
        return self._script(self.inner.uniform(low, high, size))

    def random(self, out):
        self.inner.random(out=out)
        return self._script(out)


@pytest.mark.parametrize("N", (1, 2, 3))
@pytest.mark.parametrize(
    "zero_calls, count",
    [((0,), 14), ((2, 3), 30), ((1, 2, 3), 31), ((0, 5, 6), SAMPLE_BATCH + 40)],
)
def test_psd_disc_samples_redraw_a_cube_row_with_a_zero(N, zero_calls, count):
    # the same samples as the reference, after as many cube rows and with the
    # same generator state: the redraws included
    want_rng, got_rng = (ScriptedRng(N + count, zero_calls, N - 1) for _ in range(2))
    want = reference_samples(N, 0.75, count, want_rng)
    got = list(psd_disc_samples(N, 0.75, count, got_rng))
    assert len(got) == len(want) == count
    assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want))
    assert got_rng.cube_calls == want_rng.cube_calls > max(zero_calls) + 1
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def _near_corner_rows(N, rho, deltas):
    """near_corner_path one scalar at a time, the formula's reference."""
    root = np.sqrt(rho)
    return np.array([[root * (1.0 - delta * k / N) for k in range(1, N + 1)] for delta in deltas])


@given(
    st.integers(1, 12),
    st.floats(1e-300, 1e300),
    st.booleans(),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
)
def test_near_corner_path_matches_the_scalar_formula(N, rho, numpy_rho, deltas):
    if numpy_rho:
        rho = np.float64(rho)
    want = _near_corner_rows(N, rho, deltas)
    got = near_corner_path(N, rho, deltas)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
