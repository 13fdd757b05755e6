"""G-orbit stratification of the PSD cone and simultaneous kernels.

For a subgroup G of the nonzero complex numbers (trivial, unit circle, or all
of C^x), every Hermitian PSD matrix determines a unique maximal partition of
its index set such that each diagonal block has rank at most one with all
entries in a single G-orbit; the off-diagonal blocks then inherit the same
structure automatically.  The partition labels a stratum of the cone, and on
trivial-group strata the simultaneous kernel of all Hadamard powers is the
fixed block zero-sum subspace.

Every block that stratify and verify_offdiagonal_structure test, diagonal or
off-diagonal, regrouped or not, goes through one kernel (_blocks_ok): one
orbit rule (_orbit) and a certified rank-one test for all blocks at once in
whole-array passes, and one settle step (_settle) for what those leave open,
pairwise orbit comparisons and an SVD.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain, combinations

import numpy as np

from . import spectral
from .hadamard import _h_hermitian

# Relative margin of the triangle-inequality shortcut in the trivial-group
# orbit test: computed distances can break the inequality by a few ulps.
_ORBIT_MARGIN = 1e-12
# Entries compared at a time when the orbit test checks every pair.
_PAIR_CHUNK = 1 << 18
# Seeds seed, seed + 1, ... tried by generate_in_stratum and closure_probe.
_MAX_ATTEMPTS = 25
# The tol at which those two label their matrices: stratify's default.
_LABEL_TOL = 1e-9
# Entries up to which a lone block skips the gather and the rank certificate
# of _blocks_ok: its orbit test and SVD took 21-31 us from 2x2 to 8x8, the
# gathered passes 44-47 us, and the two met near 16x16 (2-core Xeon, one BLAS
# thread).
_LONE_MAX = 64
# _orbit's segment starts for a lone block: all its entries, one segment.
_ONE_SEGMENT = np.zeros(1, np.intp)
_EPS = float(np.finfo(float).eps)


class GroupTag(Enum):
    TRIVIAL = "trivial"
    UNIT_CIRCLE = "unit_circle"
    NONZERO_COMPLEX = "nonzero_complex"


@dataclass(frozen=True)
class IndexPartition:
    """Partition of {0..N-1} into disjoint blocks, canonically ordered.

    Blocks are sorted tuples ordered by smallest element.  Indices are
    0-based internally; the CLI renders them 1-based.
    """

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        blocks = tuple(sorted(tuple(sorted(int(i) for i in b)) for b in self.blocks))
        object.__setattr__(self, "blocks", blocks)
        if not all(blocks):
            raise ValueError("empty block")
        indices = sorted(i for b in blocks for i in b)
        if not indices:
            raise ValueError("empty partition")
        if indices != list(range(len(indices))):
            raise ValueError("blocks must partition a contiguous index range from 0")

    @property
    def size(self) -> int:
        return sum(len(b) for b in self.blocks)

    def singletons(self) -> bool:
        return all(len(b) == 1 for b in self.blocks)


def singleton_partition(N: int) -> IndexPartition:
    return IndexPartition(tuple((i,) for i in range(N)))


def single_block_partition(N: int) -> IndexPartition:
    return IndexPartition((tuple(range(N)),))


def refinement_leq(p1: IndexPartition, p2: IndexPartition) -> bool:
    """True iff p1 refines p2 (every block of p1 inside some block of p2)."""
    if p1.size != p2.size:
        raise ValueError("partitions must share a ground set")
    label = _labels(p2)
    return all(len(set(label[list(b)])) == 1 for b in p1.blocks)


def _labels(pi: IndexPartition) -> np.ndarray:
    """Block number of each index of pi, as an int array."""
    return np.array(sorted((i, a) for a, b in enumerate(pi.blocks) for i in b))[:, 1]


def _modulus(z):
    """|z| entrywise, rounded as Python's complex abs rounds it (libm hypot);
    numpy's complex absolute can differ in the last bit."""
    return np.hypot(z.real, z.imag)


def _related(H, group: GroupTag, tol: float, scale: float) -> np.ndarray:
    """N x N mask of the pair relation: (i, j) is set when the 2x2 principal
    submatrix on i, j has |det| <= tol * scale^2 and its four entries lie in
    one G-orbit within tol * scale.

    H is exactly Hermitian, as spectral.hermitian_part returns it: a real
    diagonal d and H[j, i] == conj(H[i, j]).  So the determinant is
    d_i d_j - |h_ij|^2, the four entries are d_i, d_j, h_ij and its
    conjugate, and each term below is rounded as complex arithmetic on the
    four entries rounds it.  From scale 2^511 on, d_i d_j and |h_ij|^2
    would overflow, so there they are formed on H times 2^-600, a power of
    two as in spectral.spectrum: exact but for entries below 2^-422, whose
    products lie far under the cut.
    """
    cut = tol * scale
    d, x, y = H.diagonal().real, H.real, H.imag
    if scale < 2.0**511:
        flat = ~(np.abs(np.multiply.outer(d, d) - (x * x + y * y)) > tol * scale * scale)
    else:
        ds, xs, ys, ss = d * 2.0**-600, x * 2.0**-600, y * 2.0**-600, scale * 2.0**-600
        flat = ~(np.abs(np.multiply.outer(ds, ds) - (xs * xs + ys * ys)) > tol * ss * ss)
    if group is GroupTag.TRIVIAL:
        with np.errstate(over="ignore"):  # an inf spread exceeds the cut, as the exact one does
            spread = np.maximum(
                np.maximum(np.hypot(d[:, None] - x, y), np.hypot(d - x, y)),
                np.maximum(np.abs(np.subtract.outer(d, d)), 2.0 * np.abs(y)),
            )
        return flat & (spread <= cut)
    m_d, m_h = np.abs(d), np.hypot(x, y)
    if group is GroupTag.UNIT_CIRCLE:
        hi = np.maximum(np.maximum.outer(m_d, m_d), m_h)
        lo = np.minimum(np.minimum.outer(m_d, m_d), m_h)
        return flat & (hi - lo <= cut)
    b_d, b_h = m_d > cut, m_h > cut  # GroupTag.NONZERO_COMPLEX
    every = np.logical_and.outer(b_d, b_d) & b_h
    none = ~(np.logical_or.outer(b_d, b_d) | b_h)
    return flat & (every | none)


def _orbit(B, start, pivot, group: GroupTag, cut: float):
    """Per segment of the flat entries B (segment s from B[start[s]], its
    first entry in pivot, per entry or for all), boolean arrays (yes, no): in
    one G-orbit within the cut, or not.  Under the trivial group, where every
    pair must lie within the cut, the largest distance to the first entry
    rejects above the cut and accepts within half of it (by the triangle
    inequality); a segment in between is neither."""
    if group is GroupTag.TRIVIAL:
        far = np.maximum.reduceat(_modulus(B - pivot), start)
        return 2.0 * far <= cut * (1.0 - _ORBIT_MARGIN), far > cut
    mods = _modulus(B)
    if group is GroupTag.UNIT_CIRCLE:
        yes = np.maximum.reduceat(mods, start) - np.minimum.reduceat(mods, start) <= cut
    else:  # GroupTag.NONZERO_COMPLEX: all entries above the cut or none
        big = mods > cut
        yes = np.minimum.reduceat(big, start) | ~np.maximum.reduceat(big, start)
    return yes, ~yes


def _settle(sub, orbit: bool, rank: bool, tol: float, scale: float) -> bool:
    """Decide the block sub that _orbit did not reject: orbit when _orbit
    accepted it (else its trivial-group spread lies in the band, and every
    pair of entries is compared, a chunk of rows at a time), and rank when
    its rank is certified (else an SVD decides, unless sub is one row or one
    column)."""
    if not orbit:
        values, cut = sub.ravel(), tol * scale
        step = max(1, _PAIR_CHUNK // values.size)
        if not all(
            bool((_modulus(values[s : s + step, None] - values[s:]) <= cut).all())
            for s in range(0, values.size, step)
        ):
            return False
    if rank or min(sub.shape) < 2:
        return True
    s, f = spectral.spectrum(lambda X: np.linalg.svd(X, compute_uv=False), sub)
    return bool(s[1] <= tol * max(scale * f, float(s[0])))


def _sub(H, rows, cols):
    """H[np.ix_(rows, cols)], in fewer numpy calls."""
    return H.take(rows, 0).take(cols, 1)


def _blocks_ok(H, rows, cols, group: GroupTag, tol: float, scale: float):
    """Iterator of booleans over the segments (r, c) of the lists rows and
    cols, for an exactly Hermitian complex H (as spectral.hermitian_part
    returns it): _sub(H, r, c) in one G-orbit within tol * scale and of
    numerical rank at most one by _settle's SVD test.

    The entries of all segments are gathered into one flat array B, and
    _orbit and a rank-one certificate decide them in a fixed set of numpy
    passes, reduced per segment with reduceat.  A lone segment of at most
    _LONE_MAX entries skips the gather and the certificate, which cost more
    than one small SVD: B is its block's own entries.  _settle decides,
    lazily and in order, what the passes neither reject nor accept.

    Rank at most one is certified with no SVD.  For the m x n block B of a
    segment, m, n >= 2, take q = fl(B[0, :] / B[0, 0]), R = fl(B[:, 0] q)
    and E = fl(B - R), and accept when nu_E + 4 u nu_R <= tol * scale / 4,
    where nu is a computed Frobenius norm and u = eps / 2.  This is tried
    only when tol >= K N^2 eps, K = spectral.CERTIFY_GUARD and N the order
    of H, and tol * scale >= N 2^-530.  A NaN or an infinity, from
    B[0, 0] = 0 or an overflow, fails the test and leaves the SVD to decide.

    The certificate accepts only what _settle's SVD test accepts.  Write
    ||.|| for the Frobenius norm, k = m n <= N^2 and lambda = 2^-1074, the
    subnormal spacing, and take N below 10^6, as for spectral.psd_verdict.

    - X = B[:, 0] q is exactly rank one, however q was rounded, so
      sigma_2(B) <= ||B - X||_2 <= ||B - R|| + ||R - X|| (Eckart-Young-Mirsky).
    - Each entry of R is one complex product of two floats:
      |R - X| <= sqrt(2) gamma_2 |X| + 2 lambda entrywise (Higham, *Accuracy
      and Stability of Numerical Algorithms*, 2nd ed., Lemma 3.5, with
      gradual underflow), so ||R - X|| <= 3 u ||R|| + 3 sqrt(k) lambda.
    - E rounds each real difference once, so ||B - R|| <= ||E|| / (1 - u).
    - A computed norm nu of k complex entries (2k squares summed in any
      order, then one square root) bounds the exact one by
      (nu / (1 - u) + sqrt(k lambda)) / sqrt(1 - gamma_2k) (Higham, ch. 3;
      a square loses at most lambda / 2 to underflow).
    - Together: sigma_2(B) <= 1.01 (nu_E + 4 u nu_R) + 2 N sqrt(lambda)
      <= 1.01 tol scale / 4 + tol scale / 64 <= 0.27 tol scale.
    - Finite sums of squares put every entry of B below 2^513, so the SVD
      does not overflow and spectrum keeps f = 1.  Its values s are exact
      for B + F with ||F||_2 <= c N^2 u ||B||_2, c = 16, the convention of
      psd_verdict (LAPACK Users' Guide, sec. 4.9).  The guard makes
      c N^2 u <= tol / 8, and ||B||_2 <= s[0] + ||F||_2, so
      ||F||_2 <= tol s[0] / 7.
    - By Weyl, s[1] <= sigma_2(B) + ||F||_2 <= 0.27 tol scale + tol s[0] / 7.
      That is below fl(tol scale) when s[0] <= scale and below
      (1 - u) tol s[0] otherwise, so below fl(tol * max(scale, s[0])):
      _settle's SVD test passes.
    """
    if not rows:
        return iter(())
    N, S = H.shape[0], len(rows)
    cut = tol * scale
    if S == 1 and len(rows[0]) * len(cols[0]) <= _LONE_MAX:
        lone = _sub(H, rows[0], cols[0])
        yes, no = _orbit(lone.ravel(), _ONE_SEGMENT, lone[0, 0], group, cut)
        rank_ok = [min(lone.shape) < 2]
    else:
        lone = None
        with np.errstate(all="ignore"):
            m = np.fromiter(map(len, rows), np.intp, S)
            n = np.fromiter(map(len, cols), np.intp, S)
            # flat positions of each entry: its segment's B[0, 0], its row's
            # B[a, 0], and its column b within the segment
            size = m * n
            start = size.cumsum() - size
            width = n.repeat(m)
            head = (width.cumsum() - width).repeat(width)
            first = start.repeat(size)
            b = np.arange(head.size) - head
            I = np.fromiter(chain.from_iterable(rows), np.intp).repeat(width)
            J = np.fromiter(chain.from_iterable(cols), np.intp)[(n.cumsum() - n).repeat(size) + b]
            B = H[I, J]
            pivot = B[first]
            rank_ok = np.minimum(m, n) < 2
            if tol >= spectral.CERTIFY_GUARD * N * N * _EPS and cut >= N * 2.0**-530:
                Z = np.empty((2, B.size), dtype=complex)  # rows E and R
                np.multiply(B[head], B[first + b] / pivot, out=Z[1])
                np.subtract(B, Z[1], out=Z[0])
                nu_E, nu_R = np.sqrt(np.add.reduceat(np.square(Z.view(float)), 2 * start, axis=1))
                rank_ok |= nu_E + 2.0 * _EPS * nu_R <= cut / 4  # 4 u = 2 eps
            yes, no = _orbit(B, start, pivot, group, cut)
        rank_ok = rank_ok.tolist()
    return (
        t and k or (not f and _settle(_sub(H, r, c) if lone is None else lone, t, k, tol, scale))
        for r, c, t, f, k in zip(rows, cols, yes.tolist(), no.tolist(), rank_ok)
    )


def _regroup(H, comp, related, group: GroupTag, tol: float, scale: float):
    """Tolerance chaining can merge indices that fail jointly: split the
    component greedily, admitting an index only when the enlarged block
    verifies as a whole."""
    groups: list[list[int]] = []
    for i in comp:
        for g in groups:
            block = g + [i]
            if related[i, g].all() and next(_blocks_ok(H, [block], [block], group, tol, scale)):
                g.append(i)
                break
        else:
            groups.append([i])
    return groups


def _require_group(group) -> None:
    if not isinstance(group, GroupTag):
        raise ValueError(f"unknown group {group!r}")


def stratify(A, group: GroupTag, tol: float = 1e-9) -> IndexPartition:
    """Maximal partition with rank <= 1, single-G-orbit diagonal blocks.

    Pairs are related when their 2x2 principal submatrix has numerical rank
    at most one and its four entries lie in one G-orbit; connected components
    of that relation are then verified as whole blocks (and greedily split if
    tolerance chaining produced a false merge).  The zero matrix maps to the
    single-block partition by convention.

    Cost: one validation of A (a Cholesky certificate when tol >= 64 N^2 eps,
    an eigen-solve for a smaller tol or when the factorisation fails; neither,
    and no stratification when one under the same group and tol is kept, if
    A was the last matrix validated: see ``spectral``); the pair relation as
    a few elementwise passes over N x N arrays; for all components of two or
    more indices together, a fixed number of passes over their sum of b^2
    entries that decide the orbit and rank tests.  Per component only what
    those leave open costs more: all pairs of entries when their spread lies
    between half the cut and the cut, and one SVD of the b x b block when the
    rank-one certificate fails (always for a component that does not verify).
    """
    _require_group(group)
    return _stratify(spectral.require_psd(A, tol), group, tol)


def _stratify(H, group: GroupTag, tol: float) -> IndexPartition:
    """stratify on the Hermitian part H of a validated PSD matrix, kept with
    H while H is the validation memo's matrix (spectral.derived)."""
    return spectral.derived(H, ("stratify", group, tol), _partition, H, group, tol)


def _partition(H, group: GroupTag, tol: float) -> IndexPartition:
    """The maximal partition of stratify, on a validated Hermitian part H."""
    N = H.shape[0]
    scale = float(np.abs(H).max())
    if scale == 0.0:
        return single_block_partition(N)
    related = _related(H, group, tol, scale)
    # component labels: each index takes the least label it is related to
    # (itself included, as the diagonal of related is set), then that
    # index's own label, until no label changes
    label, last = np.arange(N), None
    while not np.array_equal(label, last):
        last, step = label, np.where(related, label, N).min(axis=1)
        label = step[step]
    components: dict[int, list[int]] = {}
    for i, root in enumerate(label.tolist()):
        components.setdefault(root, []).append(i)
    # a single index always verifies; the other components are decided together
    blocks = [tuple(c) for c in components.values() if len(c) == 1]
    comps = [c for c in components.values() if len(c) > 1]
    for comp, ok in zip(comps, _blocks_ok(H, comps, comps, group, tol, scale)):
        parts = [comp] if ok else _regroup(H, comp, related, group, tol, scale)
        blocks.extend(map(tuple, parts))
    return IndexPartition(tuple(blocks))


def verify_offdiagonal_structure(
    A, pi: IndexPartition, group: GroupTag, tol: float = 1e-9
) -> bool:
    """Check rank <= 1 and single-orbit entries on every off-diagonal block of pi."""
    _require_group(group)
    H = spectral.require_psd(A, tol)
    if pi.size != H.shape[0]:
        raise ValueError("partition size does not match matrix")
    scale = float(np.abs(H).max())
    if scale == 0.0:
        return True
    pairs = list(combinations(pi.blocks, 2))
    return all(_blocks_ok(H, [bi for bi, _ in pairs], [bj for _, bj in pairs], group, tol, scale))


@dataclass
class SubspaceBasis:
    """Orthonormal column basis of a subspace of C^N (dim may be zero)."""

    dim: int
    basis: np.ndarray


def simultaneous_kernel(A, tol: float = 1e-9) -> SubspaceBasis:
    """Kernel of sum_{j=0}^{N-1} A^(oj), the simultaneous kernel of all Hadamard powers.

    The joint kernel does not depend on the scale of A, so A is first divided
    by its largest entry modulus: the cut-off ``tol`` then stays relative to
    the spectrum of every power, whose eigenvalues would otherwise grow like
    max|a|^(N-1).
    """
    H = spectral.require_psd(A, tol)
    N = H.shape[0]
    peak = np.abs(H).max()
    if peak > 0:
        H = H / peak
    # no Hermitian part: eigh reads only the lower triangle, exactly the
    # conjugate of the upper one here, and ignores the diagonal's imaginary part
    w, V = np.linalg.eigh(_h_hermitian((1.0,) * N, H))
    basis = V[:, spectral.kernel_mask(w, tol)]
    return SubspaceBasis(basis.shape[1], basis)


def kernel_for_partition(pi: IndexPartition) -> SubspaceBasis:
    """Block zero-sum subspace: direct sum over blocks of mean-zero vectors.

    Dimension N - (number of blocks); the basis is exact Helmert vectors and
    orthonormal by construction: column k of a block b_0 < b_1 < ... is 1 at
    b_0..b_{k-1} and -k at b_k, over sqrt(k (k + 1)).  All columns come from
    one array step over the indices listed block after block, where the
    column of b_k sits at the position of b_k and b_0..b_{k-1} at the k
    positions before it.
    """
    order = [i for block in pi.blocks for i in block]
    rank = np.array([r for block in pi.blocks for r in range(len(block))])
    at = np.flatnonzero(rank)  # position of each column's b_k
    k = rank[at]
    d = at - np.arange(len(order))[:, None]  # column position minus row position
    steps = ((d > 0) & (d <= k)) - (d == 0) * k
    basis = np.empty(steps.shape, dtype=complex)
    # a complex division rounds -k / s as -k * (1 / s), the bits that
    # tests/test_closure_equivalence.py pins; a real one differs in the last bit
    basis[order] = np.divide(steps, np.sqrt(k * (k + 1)), dtype=complex)
    return SubspaceBasis(basis.shape[1], basis)


def subspace_max_angle(B1: np.ndarray, B2: np.ndarray) -> float:
    """Largest principal angle (radians) between equal-dimension subspaces."""
    if B1.shape[1] != B2.shape[1]:
        raise ValueError("subspace dimensions differ")
    if B1.shape[1] == 0:
        return 0.0
    import scipy.linalg  # here, so that importing the package leaves scipy unloaded

    angles = scipy.linalg.subspace_angles(B1, B2)
    return float(np.max(angles)) if angles.size else 0.0


def rank_bound_check(A, tol: float = 1e-9) -> bool:
    """Numerical rank of A is at most the number of nonzero_complex strata blocks."""
    H = spectral.require_psd(A, tol)
    kernel = spectral.kernel_mask(spectral.spectrum(np.linalg.eigvalsh, H)[0], tol)
    return np.count_nonzero(~kernel) <= len(_stratify(H, GroupTag.NONZERO_COMPLEX, tol).blocks)


def _block_vectors(pi: IndexPartition, group: GroupTag, rng: np.random.Generator) -> np.ndarray:
    """N x k column scaffold: column a supported on block a with single-orbit entries."""
    N = pi.size
    k = len(pi.blocks)
    U = np.zeros((N, k), dtype=complex)
    for a, block in enumerate(pi.blocks):
        n = len(block)  # moduli r are drawn before phases
        if group is GroupTag.TRIVIAL:
            r, phases = rng.uniform(0.6, 1.4), rng.uniform(0, 2 * np.pi)
        elif group is GroupTag.UNIT_CIRCLE:
            r, phases = rng.uniform(0.6, 1.4), rng.uniform(0, 2 * np.pi, size=n)
        else:
            r, phases = rng.uniform(0.5, 1.5, size=n), rng.uniform(0, 2 * np.pi, size=n)
        U[list(block), a] = r * np.exp(1j * phases)
    return U


def _random_core(k: int, rng: np.random.Generator) -> np.ndarray:
    G = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return G @ G.conj().T / k + 0.5 * np.eye(k)


def _draw_in_stratum(pi: IndexPartition, group: GroupTag, rng: np.random.Generator):
    """(U, C, A): block vectors U, core C and U C U* (exactly Hermitian) in pi's stratum."""
    U = _block_vectors(pi, group, rng)
    C = _random_core(len(pi.blocks), rng)
    return U, C, spectral.hermitian_part(U @ C @ U.conj().T)


def generate_in_stratum(
    pi: IndexPartition,
    group: GroupTag,
    seed: int = 0,
) -> np.ndarray:
    """Random PSD matrix whose stratification under `group` is exactly `pi`.

    Built as U C U* with a positive definite core C over the blocks and
    single-orbit block vectors U; generic draws keep distinct blocks from
    merging, and the construction is verified by a stratification round trip
    (retried with a fresh seed on failure).
    """
    _require_group(group)
    for attempt in range(_MAX_ATTEMPTS):
        A = _draw_in_stratum(pi, group, np.random.default_rng(seed + attempt))[2]
        # PSD by construction, so labelled with no validation and no memo entry
        if _partition(A, group, _LABEL_TOL) == pi:
            return A
    raise RuntimeError(f"could not realize stratum {pi.blocks} for {group.value}")


def closure_probe(
    pi_target: IndexPartition,
    pi_source: IndexPartition,
    steps: int = 8,
    group: GroupTag = GroupTag.TRIVIAL,
    seed: int = 0,
):
    """Path of matrices in the source stratum converging into the target stratum.

    Requires pi_source strictly finer than pi_target: limits of a stratum can
    only merge blocks, so the boundary of the source stratum meets exactly the
    strata of coarser partitions.  Returns [(frobenius_distance, label), ...]
    with the limit point last; each label is the point's stratification.
    """
    if pi_target == pi_source or not refinement_leq(pi_source, pi_target):
        raise ValueError("pi_source must strictly refine pi_target")
    if steps < 1:
        raise ValueError("steps must be positive")
    _require_group(group)
    N = pi_target.size
    k_s = len(pi_source.blocks)
    k_t = len(pi_target.blocks)
    src, tgt = _labels(pi_source), _labels(pi_target)
    E = np.zeros((k_s, k_t))
    E[src, tgt] = 1.0  # row a marks the target block holding source block a

    for attempt in range(_MAX_ATTEMPTS):
        rng = np.random.default_rng(seed + attempt)
        U_t, C_t, A_t = _draw_in_stratum(pi_target, group, rng)
        full = U_t.sum(axis=1)  # value of the target scaffold at each index
        R = _random_core(k_s, rng)
        scalar_bumps = rng.uniform(0.3, 1.0, size=k_s)
        entry_phases = rng.uniform(0.4, 1.0, size=N) * rng.choice([-1.0, 1.0], size=N)
        entry_bumps = 0.4 * (rng.standard_normal(N) + 1j * rng.standard_normal(N)) / np.sqrt(2)

        rows = []
        for d in (0.5 * 2.0 ** (-j) for j in range(steps)):
            # index i sits in column src[i], perturbed off the target scaffold
            if group is GroupTag.TRIVIAL:
                vals = full * (1.0 + d * scalar_bumps[src])
            elif group is GroupTag.UNIT_CIRCLE:
                vals = full * np.exp(1j * d * entry_phases) * (1.0 + d * scalar_bumps[src])
            else:
                vals = full * (1.0 + d * entry_bumps)
            U_s = np.zeros((N, k_s), dtype=complex)
            U_s[np.arange(N), src] = vals
            P = spectral.hermitian_part(U_s @ (E @ C_t @ E.T + d * R) @ U_s.conj().T)
            rows.append((float(np.linalg.norm(P - A_t)), _partition(P, group, _LABEL_TOL)))
        rows.append((0.0, _partition(A_t, group, _LABEL_TOL)))
        if all(label == pi_source for _, label in rows[:-1]) and rows[-1][1] == pi_target:
            return rows
    # no fully clean draw found; report the last attempt honestly
    return rows
