"""The array-based stratification predicates against the loop references.

The references below are the pairwise loops the predicates replaced: every
pair of a block's entries compared one at a time, and the 2x2 pair relation
decided one (i, j) at a time.  The array code must reproduce them exactly:
equal partitions, equal booleans and equal exceptions, with no tolerance.
"""

import itertools

import numpy as np
import pytest

from entrywise import hadamard, spectral, strata
from entrywise.strata import (
    _ORBIT_MARGIN,
    _PAIR_CHUNK,
    GroupTag,
    IndexPartition,
    _modulus,
    generate_in_stratum,
    single_block_partition,
    singleton_partition,
    stratify,
    verify_offdiagonal_structure,
)

GROUPS = tuple(GroupTag)
TOL = 1e-9
EIGHT_BLOCKS = {
    24: (1, 2, 4, 4, 4, 4, 4, 1),
    48: (2, 4, 8, 8, 8, 8, 8, 2),
    80: (3, 7, 13, 13, 13, 13, 14, 4),
}


# --- references ---------------------------------------------------------------


def ref_single_orbit(values, group, tol, scale):
    vals = [complex(v) for v in values]
    if group is GroupTag.TRIVIAL:
        return all(
            abs(a - b) <= tol * scale for i, a in enumerate(vals) for b in vals[i + 1 :]
        )
    if group is GroupTag.UNIT_CIRCLE:
        mods = [abs(v) for v in vals]
        return max(mods) - min(mods) <= tol * scale
    if group is GroupTag.NONZERO_COMPLEX:
        mods = [abs(v) for v in vals]
        return all(m > tol * scale for m in mods) or all(m <= tol * scale for m in mods)
    raise ValueError(f"unknown group {group!r}")


def ref_pair_compatible(A, i, j, group, tol, scale):
    det2 = A[i, i] * A[j, j] - A[i, j] * A[j, i]
    if abs(det2) > tol * scale * scale:
        return False
    return ref_single_orbit((A[i, i], A[i, j], A[j, i], A[j, j]), group, tol, scale)


def ref_block_ok(sub, group, tol, scale):
    if not ref_single_orbit(sub.ravel(), group, tol, scale):
        return False
    if min(sub.shape) < 2:
        return True
    s = np.linalg.svd(sub, compute_uv=False)
    return bool(s[1] <= tol * max(scale, float(s[0])))


# The block test that the kernel replaced, one block at a time: strata's
# _single_orbit and _block_ok as they stood before the kernel took over
# every block decision, kept verbatim.


def _single_orbit(values: np.ndarray, group: GroupTag, tol: float, scale: float) -> bool:
    """Entries of the 1-D array `values` in one G-orbit, within tol * scale.

    Under the trivial group every pair of entries must lie within the cut.
    The distances to the first entry decide almost every block: one above the
    cut fails a pair, and all within half of it pass every pair by the
    triangle inequality.  Only a spread in between is compared pair by pair,
    a chunk of rows at a time.
    """
    cut = tol * scale
    if group is GroupTag.TRIVIAL:
        far = float(_modulus(values - values[0]).max())
        if far > cut:
            return False
        if 2.0 * far <= cut * (1.0 - _ORBIT_MARGIN):
            return True
        step = max(1, _PAIR_CHUNK // values.size)
        return all(
            bool((_modulus(values[s : s + step, None] - values[s:]) <= cut).all())
            for s in range(0, values.size, step)
        )
    mods = _modulus(values)
    if group is GroupTag.UNIT_CIRCLE:
        return bool(mods.max() - mods.min() <= cut)
    big = mods > cut  # GroupTag.NONZERO_COMPLEX
    return bool(big.all() or not big.any())


def _block_ok(sub, group: GroupTag, tol: float, scale: float) -> bool:
    """Entries of the block in one G-orbit and numerical rank at most one."""
    if not _single_orbit(sub.ravel(), group, tol, scale):
        return False
    if min(sub.shape) < 2:
        return True
    s, f = spectral.spectrum(lambda X: np.linalg.svd(X, compute_uv=False), sub)
    return bool(s[1] <= tol * max(scale * f, float(s[0])))


def ref_verified_split(A, comp, group, tol, scale):
    comp = sorted(comp)
    if ref_block_ok(A[np.ix_(comp, comp)], group, tol, scale):
        return [comp]
    groups = []
    for i in comp:
        placed = False
        for g in groups:
            block = g + [i]
            if all(ref_pair_compatible(A, i, j, group, tol, scale) for j in g) and ref_block_ok(
                A[np.ix_(block, block)], group, tol, scale
            ):
                g.append(i)
                placed = True
                break
        if not placed:
            groups.append([i])
    return groups


def ref_stratify(A, group, tol=TOL):
    if not isinstance(group, GroupTag):
        raise ValueError(f"unknown group {group!r}")
    H = spectral.require_psd(A, tol)
    N = H.shape[0]
    scale = float(np.max(np.abs(H)))
    if scale == 0.0:
        return single_block_partition(N)
    parent = list(range(N))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(N):
        for j in range(i + 1, N):
            if ref_pair_compatible(H, i, j, group, tol, scale):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    components = {}
    for i in range(N):
        components.setdefault(find(i), []).append(i)
    blocks = []
    for comp in components.values():
        for part in ref_verified_split(H, comp, group, tol, scale):
            blocks.append(tuple(part))
    return IndexPartition(tuple(blocks))


def ref_verify_offdiagonal_structure(A, pi, group, tol=TOL):
    H = spectral.require_psd(A, tol)
    if pi.size != H.shape[0]:
        raise ValueError("partition size does not match matrix")
    scale = float(np.max(np.abs(H)))
    if scale == 0.0:
        return True
    return all(
        ref_block_ok(H[np.ix_(list(bi), list(bj))], group, tol, scale)
        for a, bi in enumerate(pi.blocks)
        for bj in pi.blocks[a + 1 :]
    )


# --- inputs ---------------------------------------------------------------------


def _random_partition(N, rng):
    labels = rng.integers(0, rng.integers(1, N + 1), size=N)
    blocks = {}
    for i, label in enumerate(labels.tolist()):
        blocks.setdefault(label, []).append(i)
    return IndexPartition(tuple(tuple(b) for b in blocks.values()))


def _consecutive(sizes):
    starts = np.cumsum((0,) + sizes[:-1])
    return IndexPartition(tuple(tuple(range(s, s + n)) for s, n in zip(starts, sizes)))


def _wishart(N, k, rng, real=False):
    B = rng.standard_normal((N, k))
    if not real:
        B = B + 1j * rng.standard_normal((N, k))
    A = B @ B.conj().T
    return A / np.max(np.abs(A))


def _near_equal_rank_one(t, spread, tol=TOL):
    """u u* with u = 1 + delta * t, delta set so that the entries spread over
    about `spread` times the cut tol * max|a|."""
    u = 1.0 + 0.5 * spread * tol * np.asarray(t, dtype=float)
    return np.outer(u, u).astype(complex)


def _stratum_matrices():
    rng = np.random.default_rng(2024)
    out = []
    for N in range(1, 13):
        for group in GROUPS:
            for _ in range(2):
                pi = _random_partition(N, rng)
                A = generate_in_stratum(pi, group, seed=int(rng.integers(2**31)))
                out.append((f"stratum-{group.value}-N{N}", A))
    for N, sizes in EIGHT_BLOCKS.items():
        for group in GROUPS:
            A = generate_in_stratum(_consecutive(sizes), group, seed=N)
            out.append((f"eight-blocks-{group.value}-N{N}", A / np.max(np.abs(A))))
    A = generate_in_stratum(_consecutive((2, 3, 1, 4)), GroupTag.TRIVIAL, seed=3)
    out.append(("unscaled", 3.0 * A / np.max(np.abs(A))))
    return out


def _other_matrices():
    rng = np.random.default_rng(7)
    out = []
    for N, k in ((2, 1), (3, 1), (5, 2), (8, 3), (12, 12), (20, 2), (30, 30)):
        out.append((f"wishart-N{N}-k{k}", _wishart(N, k, rng)))
        out.append((f"wishart-real-N{N}-k{k}", _wishart(N, k, rng, real=True)))
    # rows scaled over ten decades: moduli on both sides of the cut
    D = np.diag(10.0 ** rng.uniform(-11, 0, 10))
    out.append(("wishart-graded", D @ _wishart(10, 3, rng) @ D))
    for N in (40, 80):
        out.append((f"zero-N{N}", np.zeros((N, N))))
        out.append((f"identity-N{N}", np.eye(N)))
        out.append((f"ones-N{N}", np.ones((N, N))))
    # a ~ b ~ c but not a ~ c: one component, split again by the regroup path
    out.append(("chain-3", _near_equal_rank_one([0.0, 0.8, 1.6], 1.0)))
    out.append(("chain-5", _near_equal_rank_one([0.0, 0.5, 1.0, 1.5, 2.0], 1.0)))
    out.append(("chain-shuffled", _near_equal_rank_one([1.6, 0.0, 0.8, 2.4, 0.4, 1.2], 1.0)))
    # u_k = 1 + 0.45e-9 k: each index related to its neighbours only, an
    # 80-index path that the component labels must cross
    out.append(("path-80", _near_equal_rank_one(np.arange(80), 0.9)))
    # one block whose spread lies in (cut/2, cut] or just above the cut
    for spread in (0.7, 0.95, 1.05):
        t = rng.permutation(np.linspace(0.0, 1.0, 12))
        out.append((f"band-{spread}-N12", _near_equal_rank_one(t, spread)))
    # the same stratum moved by noise at the cut, so that pair decisions and
    # validation both sit at their tolerances
    A = generate_in_stratum(_consecutive((3, 2, 4, 1)), GroupTag.UNIT_CIRCLE, seed=11)
    A = A / np.max(np.abs(A))
    for s in range(3):
        E = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        out.append((f"noisy-{s}", A + 1e-9 * (E + E.conj().T) / 2))
    # generic: no pair related under any group, every stratification all singletons
    for N in (24, 80):
        out.append((f"wishart-N{N}-k{N}", _wishart(N, N, rng)))
    return out


CASES = _stratum_matrices() + _other_matrices()


def _outcome(f, *args):
    try:
        return "ok", f(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


# --- tests ----------------------------------------------------------------------


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.value)
@pytest.mark.parametrize("name,A", CASES, ids=[name for name, _ in CASES])
def test_stratify_and_verify_match_reference(name, A, group):
    got = _outcome(stratify, A, group)
    assert got == _outcome(ref_stratify, A, group)
    if got[0] != "ok":
        return
    N = A.shape[0]
    partitions = {got[1], singleton_partition(N), single_block_partition(N)}
    partitions.update(stratify(A, g) for g in GROUPS)
    for pi in partitions:
        assert _outcome(verify_offdiagonal_structure, A, pi, group) == _outcome(
            ref_verify_offdiagonal_structure, A, pi, group
        )


@pytest.mark.parametrize("N", [3, 8, 24])
def test_generic_matrix_needs_no_block_kernel(monkeypatch, N):
    """A generic Wishart matrix relates no pair under any group, so stratify
    ends at the pair relation, and verify_offdiagonal_structure on the
    singleton partition has only pairs of one-entry blocks: neither reaches
    _blocks_ok, and both still give the references' answers."""
    A = _wishart(N, N, np.random.default_rng(N))
    pi = singleton_partition(N)
    want = [(ref_stratify(A, g), ref_verify_offdiagonal_structure(A, pi, g)) for g in GROUPS]
    assert all(got == pi for got, _ in want)

    def kernel(*args):
        raise AssertionError("_blocks_ok called")

    monkeypatch.setattr(strata, "_blocks_ok", kernel)
    spectral.clear_memo()  # no partition kept from an earlier call
    assert [(stratify(A, g), verify_offdiagonal_structure(A, pi, g)) for g in GROUPS] == want


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.value)
def test_pair_relation_matches_reference(group):
    for name, A in CASES:
        try:
            H = spectral.require_psd(A, TOL)
        except ValueError:
            continue
        scale = float(np.max(np.abs(H)))
        if scale == 0.0 or H.shape[0] > 30:
            continue
        related = strata._related(H, group, TOL, scale)
        for i, j in itertools.permutations(range(H.shape[0]), 2):
            expected = ref_pair_compatible(H, i, j, group, TOL, scale)
            assert related[i, j] == expected, (name, i, j)


def _orbit_inputs():
    rng = np.random.default_rng(5)
    cut = TOL
    out = []
    for n in (1, 2, 4, 9, 50):
        for spread in (0.0, 0.3, 0.5, 0.7, 0.99, 1.0, 1.01, 1.5, 1.99, 2.5):
            phase = np.exp(2j * np.pi * rng.uniform())
            offsets = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
            offsets *= 0.5 * spread * cut / np.max(np.abs(offsets), initial=1e-300)
            out.append((f"disc-{spread}-n{n}", phase * (1.0 + offsets)))
            # the first entry in the middle, the extremes elsewhere
            line = phase * (1.0 + spread * cut * np.linspace(-0.5, 0.5, n))
            out.append((f"line-{spread}-n{n}", np.roll(line, -(n // 2))))
        out.append((f"tiny-n{n}", rng.uniform(0.0, 2.0, n) * cut + 0j))
    # a 6400-entry block in the band, then just above the cut with the
    # first entry at the centre, so that only the pairwise comparison fails it
    t = np.linspace(0.0, 1.0, 80)
    out.append(("band-6400", _near_equal_rank_one(t, 0.9).ravel()))
    above = _near_equal_rank_one(t, 1.02).ravel()
    centre = int(np.argmin(np.abs(above.real - np.median(above.real))))
    rest = np.delete(above, [centre, above.size - 1])
    out.append(("above-6400", np.concatenate(([above[centre], above[-1]], rest))))
    return out


ORBIT_INPUTS = _orbit_inputs()


def _row_orbit(values, group, tol, scale):
    """The kernel's verdict on `values` as one 1 x n segment, of rank one by
    its shape, so the orbit test alone: the lone route up to _LONE_MAX
    entries, the gathered passes above.  The kernel reads only the segment's
    entries of H, so H is that row."""
    row = values.reshape(1, -1)
    return next(strata._blocks_ok(row, [(0,)], [tuple(range(values.size))], group, tol, scale))


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.value)
def test_single_orbit_matches_reference(group):
    for name, values in ORBIT_INPUTS:
        scale = 1.0 if name.startswith("tiny") else float(np.max(np.abs(values)))
        got = _row_orbit(values, group, TOL, scale)
        assert got == ref_single_orbit(values, group, TOL, scale), name


def test_orbit_inputs_reach_every_branch():
    """The trivial-group inputs include a rejection by the reference entry,
    a triangle-inequality acceptance, and both verdicts of the pairwise
    fallback, the 6400-entry block among them."""
    seen = set()
    for name, values in ORBIT_INPUTS:
        scale = float(np.max(np.abs(values)))
        cut = TOL * scale
        far = float(np.max(np.abs(values - values[0])))
        verdict = _row_orbit(values, GroupTag.TRIVIAL, TOL, scale)
        if far > cut:
            seen.add("reject")
        elif 2 * far <= cut * (1 - 1e-9):
            seen.add("accept")
        else:
            seen.add(f"pairwise-{verdict}")
            if values.size == 6400:
                seen.add(f"pairwise-6400-{verdict}")
    assert seen == {
        "reject",
        "accept",
        "pairwise-True",
        "pairwise-False",
        "pairwise-6400-True",
        "pairwise-6400-False",
    }


def test_chains_take_the_regroup_path():
    """The chain matrices are one component of the trivial-group pair
    relation that fails as a block, so _regroup splits it."""
    for name, A in CASES:
        if name.startswith("chain"):
            H = spectral.require_psd(A, TOL)
            scale = float(np.max(np.abs(H)))
            reach = strata._related(H, GroupTag.TRIVIAL, TOL, scale) | np.eye(len(H), dtype=bool)
            for _ in range(len(H)):
                reach = (reach.astype(int) @ reach.astype(int)) > 0
            assert reach.all(), name
            assert len(stratify(A, GroupTag.TRIVIAL).blocks) > 1, name


# --- the block kernel -------------------------------------------------------------


def _zero_pivot_matrices():
    """u u* with zero coordinates first, so that blocks and off-diagonal
    blocks start with a zero entry, and a stratum matrix with a zero row."""
    out = []
    for name, u in (("zero-first", [0.0, 0.0, 1.0, 1.0, 2.0]), ("zero-mid", [1.0, 0.0, 1.0, 0.0])):
        out.append((f"zero-pivot-{name}", np.outer(u, u).astype(complex)))
    A = generate_in_stratum(_consecutive((2, 3, 2)), GroupTag.UNIT_CIRCLE, seed=5)
    A[0, :] = A[:, 0] = 0.0
    out.append(("zero-pivot-row", A / np.max(np.abs(A))))
    return out


def _huge_matrices():
    """Entries near and beyond the square root of the float range."""
    A = generate_in_stratum(_consecutive((2, 3, 1, 4)), GroupTag.TRIVIAL, seed=3)
    A = A / np.max(np.abs(A))
    return [
        ("huge-1e200", 1e200 * A),
        ("huge-1e308", 1e308 * A),
        ("huge-all-1e308", np.full((4, 4), 1e308)),
        ("huge-all-1e200", np.full((4, 4), 1e200)),
    ]


KERNEL_CASES = CASES + _zero_pivot_matrices() + _huge_matrices()


def _segments(pi):
    """The segments the kernel gets for pi: its blocks of two or more
    indices on the diagonal, then every pair of blocks a < b."""
    rows = [b for b in pi.blocks if len(b) > 1]
    cols = list(rows)
    for a, bi in enumerate(pi.blocks):
        for bj in pi.blocks[a + 1 :]:
            rows.append(bi)
            cols.append(bj)
    return rows, cols


def _kernel_partitions(H, rng):
    N = H.shape[0]
    out = {singleton_partition(N), single_block_partition(N), _random_partition(N, rng)}
    out.update(strata._partition(H, g, TOL) for g in GROUPS)
    return sorted(out, key=lambda p: p.blocks)


@pytest.mark.parametrize("tol", [TOL, 1e-14], ids=["tol-1e-9", "below-guard"])
@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.value)
def test_block_kernel_matches_block_ok(group, tol):
    """Per segment, the kernel returns the boolean of _block_ok, the
    verbatim copy above: on every case, for the stratifications under every
    group, the two extreme partitions and a random one.  At tol = 1e-14 the
    rank guard (tol >= 64 N^2 eps) fails at every N, so the SVD decides
    every rank there."""
    rng = np.random.default_rng(17)
    for name, A in KERNEL_CASES:
        try:
            H = spectral.require_psd(A, TOL)
        except ValueError:
            continue
        scale = float(np.max(np.abs(H)))
        if scale == 0.0:
            continue
        for pi in _kernel_partitions(H, rng):
            rows, cols = _segments(pi)
            want = [_block_ok(strata._sub(H, r, c), group, tol, scale) for r, c in zip(rows, cols)]
            assert list(strata._blocks_ok(H, rows, cols, group, tol, scale)) == want, (name, pi)


@pytest.mark.parametrize("tol", [TOL, 1e-14], ids=["tol-1e-9", "below-guard"])
@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.value)
def test_lone_route_agrees_with_the_passes(group, tol):
    """A lone segment of at most _LONE_MAX entries skips the gather and the
    certificate; given twice, the same segment takes the passes.  Both
    routes decide every such block of the kernel cases alike."""
    rng = np.random.default_rng(17)
    for name, A in KERNEL_CASES:
        try:
            H = spectral.require_psd(A, TOL)
        except ValueError:
            continue
        scale = float(np.max(np.abs(H)))
        if scale == 0.0:
            continue
        segments = set()
        for pi in _kernel_partitions(H, rng):
            segments.update(zip(*_segments(pi)))
        for r, c in sorted(segments):
            if len(r) * len(c) <= strata._LONE_MAX:
                (lone,) = strata._blocks_ok(H, [r], [c], group, tol, scale)
                passes = list(strata._blocks_ok(H, [r, r], [c, c], group, tol, scale))
                assert passes == [lone, lone], (name, r, c)


def test_block_kernel_leaves_open_what_it_cannot_certify(monkeypatch):
    """_settle runs on an orbit spread in the band between half the cut and
    the cut, on sums of squares that overflow, on a zero pivot and on a
    block of higher rank whose entries pass the orbit test, which only the
    SVD can reject."""
    opened = []
    settle = strata._settle
    monkeypatch.setattr(
        strata, "_settle", lambda sub, *args: opened.append(sub.shape) or settle(sub, *args)
    )

    def run(name, group):
        # the whole matrix as a block, twice, so that no lone block bypasses the passes
        A = dict(KERNEL_CASES)[name]
        H = spectral.require_psd(A, TOL)
        scale = float(np.max(np.abs(H)))
        rows = cols = 2 * [tuple(range(H.shape[0]))]
        opened.clear()
        list(strata._blocks_ok(H, rows, cols, group, TOL, scale))
        return len(opened) // 2

    for spread in (0.95, 1.05):
        assert run(f"band-{spread}-N12", GroupTag.TRIVIAL) == 1
        assert run(f"band-{spread}-N12", GroupTag.UNIT_CIRCLE) == 0
    for group in GROUPS:
        assert run("huge-all-1e308", group) == 1
        assert run("huge-all-1e200", group) == 1
        for N in EIGHT_BLOCKS:  # one block of rank eight: orbit or SVD rejects it
            assert run(f"eight-blocks-{group.value}-N{N}", group) == (group is GroupTag.NONZERO_COMPLEX)
    # a zero pivot on a block whose entries all lie under the cut
    H = spectral.require_psd(np.diag([0.0, 0.0, 1.0]), TOL)
    opened.clear()
    rows, cols = [(0, 1), (0, 1)], [(0, 1), (2,)]
    assert list(strata._blocks_ok(H, rows, cols, GroupTag.NONZERO_COMPLEX, TOL, 1.0)) == [True, True]
    assert opened == [(2, 2)]
    # a lone small block skips the certificate, so it settles what its orbit
    # test accepts; one that its orbit test rejects is not settled
    opened.clear()
    assert list(strata._blocks_ok(H, [(0, 2)], [(0, 2)], GroupTag.TRIVIAL, TOL, 1.0)) == [False]
    assert opened == []
    assert list(strata._blocks_ok(H, [(0, 1)], [(0, 1)], GroupTag.TRIVIAL, TOL, 1.0)) == [True]
    assert opened == [(2, 2)]


@pytest.mark.parametrize("m", [2, 6, 20])
def test_block_kernel_agrees_with_svd_near_the_cut(m):
    """Off-diagonal m x m blocks e^(i(a_j + b_k + d_jk)) of an exactly
    Hermitian H: all of modulus one, so one orbit under the unit circle and
    C^x, with sigma_2 about |d| swept across the SVD's cut tol * m.  A looser
    certificate would accept blocks that the SVD rejects."""
    rng = np.random.default_rng(m)
    a, b = rng.uniform(0, 2 * np.pi, m), rng.uniform(0, 2 * np.pi, m)
    seen = set()
    for size in 10.0 ** np.linspace(-12, -6, 25):
        d = rng.uniform(-size, size, (m, m))
        X = np.exp(1j * (a[:, None] + b + d))
        H = spectral.hermitian_part(np.block([[np.ones((m, m)), X], [X.conj().T, np.ones((m, m))]]))
        rows, cols = 2 * [tuple(range(m))], 2 * [tuple(range(m, 2 * m))]  # not a lone block
        for group in (GroupTag.UNIT_CIRCLE, GroupTag.NONZERO_COMPLEX):
            want = _block_ok(strata._sub(H, rows[0], cols[0]), group, TOL, 1.0)
            assert list(strata._blocks_ok(H, rows, cols, group, TOL, 1.0)) == [want, want], size
            seen.add(want)
    assert seen == {True, False}


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.value)
def test_block_kernel_needs_no_svd_in_stratum(monkeypatch, group):
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    for N, sizes in EIGHT_BLOCKS.items():
        A = dict(CASES)[f"eight-blocks-{group.value}-N{N}"]
        spectral.clear_memo()
        pi = stratify(A, group)
        assert pi == _consecutive(sizes)
        assert verify_offdiagonal_structure(A, pi, group)
    assert calls == []


def _h_inputs():
    rng = np.random.default_rng(3)
    out = []
    for name, A in CASES:
        if name.startswith("eight-blocks") or name in ("unscaled", "wishart-graded", "noisy-0"):
            H = spectral.hermitian_part(np.asarray(A, dtype=complex))
            out.append((name, H))
            out.append((f"{name}/peak", H / np.max(np.abs(H))))
    for z in (2.0, 0.0, -0.0):
        out.append((f"N1-{z}", spectral.hermitian_part(np.array([[z]], dtype=complex))))
    out.append(("zeros-N3", spectral.hermitian_part(np.zeros((3, 3), dtype=complex))))
    return [(name, H, tuple(rng.uniform(0.5, 2.0, H.shape[0]))) for name, H in out]


H_INPUTS = _h_inputs()


@pytest.mark.parametrize("name,H,c", H_INPUTS, ids=[name for name, _, _ in H_INPUTS])
def test_h_from_one_triangle_is_bit_identical(name, H, c):
    got = hadamard._h_hermitian(c, H)
    want = hadamard.h_matrix(c, H)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    ones = (1.0,) * H.shape[0]  # the coefficients of simultaneous_kernel
    assert hadamard._h_hermitian(ones, H).tobytes() == hadamard.h_matrix(ones, H).tobytes()


@pytest.mark.parametrize("name,A", CASES, ids=[name for name, _ in CASES])
def test_simultaneous_kernel_eigh_needs_no_hermitian_part(name, A):
    """h_c from one triangle is exactly Hermitian, and eigh reads only its
    lower triangle and the real part of its diagonal, so its eigh equals,
    bit for bit, the eigh of its Hermitian part (whose halving is exact but
    for subnormal entries, which these cases do not have); simultaneous_kernel
    takes the first."""
    try:
        H = spectral.require_psd(A, TOL)
    except ValueError:
        return
    peak = np.max(np.abs(H))
    if peak > 0:
        H = H / peak
    total = hadamard._h_hermitian((1.0,) * H.shape[0], H)
    w, V = np.linalg.eigh(total)
    w_ref, V_ref = np.linalg.eigh(spectral.hermitian_part(total))
    assert w.tobytes() == w_ref.tobytes() and V.tobytes() == V_ref.tobytes()
    basis = strata.simultaneous_kernel(A, TOL).basis
    assert basis.tobytes() == V_ref[:, spectral.kernel_mask(w_ref, TOL)].tobytes()
