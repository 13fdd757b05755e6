"""G-orbit stratification of the PSD cone and simultaneous kernels.

For a subgroup G of the nonzero complex numbers (trivial, unit circle, or all
of C^x), every Hermitian PSD matrix determines a unique maximal partition of
its index set such that each diagonal block has rank at most one with all
entries in a single G-orbit; the off-diagonal blocks then inherit the same
structure automatically.  The partition labels a stratum of the cone, and on
trivial-group strata the simultaneous kernel of all Hadamard powers is the
fixed block zero-sum subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg

from . import spectral
from .hadamard import h_matrix

# Relative margin of the triangle-inequality shortcut in the trivial-group
# orbit test: computed distances can break the inequality by a few ulps.
_ORBIT_MARGIN = 1e-12
# Entries compared at a time when the orbit test checks every pair.
_PAIR_CHUNK = 1 << 18
# Seeds seed, seed + 1, ... tried by generate_in_stratum and closure_probe.
_MAX_ATTEMPTS = 25


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
        blocks = tuple(tuple(sorted(int(i) for i in b)) for b in self.blocks)
        blocks = tuple(sorted(blocks, key=lambda b: b[0] if b else -1))
        object.__setattr__(self, "blocks", blocks)
        seen: set[int] = set()
        total = 0
        for b in blocks:
            if not b:
                raise ValueError("empty block")
            total += len(b)
            seen.update(b)
        if not seen:
            raise ValueError("empty partition")
        if len(seen) != total or seen != set(range(total)):
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


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[rj] = ri


def _modulus(z):
    """|z| entrywise, rounded as Python's complex abs rounds it (libm hypot);
    numpy's complex absolute can differ in the last bit."""
    return np.hypot(z.real, z.imag)


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
    if group is GroupTag.NONZERO_COMPLEX:
        big = mods > cut
        return bool(big.all() or not big.any())
    raise ValueError(f"unknown group {group!r}")


def _related(H, group: GroupTag, tol: float, scale: float) -> np.ndarray:
    """N x N mask of the pair relation: (i, j) is set when the 2x2 principal
    submatrix on i, j has |det| <= tol * scale^2 and its four entries lie in
    one G-orbit within tol * scale.

    H is exactly Hermitian, as spectral.hermitian_part returns it: a real
    diagonal d and H[j, i] == conj(H[i, j]).  So the determinant is
    d_i d_j - |h_ij|^2, the four entries are d_i, d_j, h_ij and its
    conjugate, and each term below is rounded as complex arithmetic on the
    four entries rounds it.
    """
    cut = tol * scale
    d, x, y = H.diagonal().real, H.real, H.imag
    flat = ~(np.abs(np.multiply.outer(d, d) - (x * x + y * y)) > tol * scale * scale)
    if group is GroupTag.TRIVIAL:
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
    if group is GroupTag.NONZERO_COMPLEX:
        b_d, b_h = m_d > cut, m_h > cut
        every = np.logical_and.outer(b_d, b_d) & b_h
        none = ~(np.logical_or.outer(b_d, b_d) | b_h)
        return flat & (every | none)
    raise ValueError(f"unknown group {group!r}")


def _block_ok(sub, group: GroupTag, tol: float, scale: float) -> bool:
    """Entries of the block in one G-orbit and numerical rank at most one."""
    if not _single_orbit(sub.ravel(), group, tol, scale):
        return False
    if min(sub.shape) < 2:
        return True
    s = np.linalg.svd(sub, compute_uv=False)
    return bool(s[1] <= tol * max(scale, float(s[0])))


def _sub(H, rows, cols):
    """H[np.ix_(rows, cols)], in fewer numpy calls."""
    return H.take(rows, 0).take(cols, 1)


def _verified_split(H, comp, related, group: GroupTag, tol: float, scale: float):
    # a single index always verifies
    if len(comp) == 1 or _block_ok(_sub(H, comp, comp), group, tol, scale):
        return [comp]
    # tolerance chaining can merge indices that fail jointly; regroup greedily,
    # admitting an index only when the enlarged block verifies as a whole
    groups: list[list[int]] = []
    for i in comp:
        for g in groups:
            block = g + [i]
            if related[i, g].all() and _block_ok(_sub(H, block, block), group, tol, scale):
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

    Cost: one validation of A (a Cholesky certificate from order 16 on, an
    eigen-solve below it or when that fails; neither, and no stratification
    when one under the same group and tol is kept, if A was the last matrix
    validated: see ``spectral``); the pair relation as a few elementwise
    passes over N x N arrays; per component, an orbit test
    linear in its b^2 entries (all pairs only when their spread lies between
    half the cut and the cut) and one SVD of the b x b block.
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
    scale = float(np.max(np.abs(H)))
    if scale == 0.0:
        return single_block_partition(N)
    related = _related(H, group, tol, scale)
    uf = _UnionFind(N)
    rows, cols = np.nonzero(np.triu(related, 1))
    for i, j in zip(rows.tolist(), cols.tolist()):
        uf.union(i, j)
    components: dict[int, list[int]] = {}
    for i in range(N):
        components.setdefault(uf.find(i), []).append(i)
    blocks: list[tuple[int, ...]] = []
    for comp in components.values():
        for part in _verified_split(H, comp, related, group, tol, scale):
            blocks.append(tuple(part))
    return IndexPartition(tuple(blocks))


def verify_offdiagonal_structure(
    A, pi: IndexPartition, group: GroupTag, tol: float = 1e-9
) -> bool:
    """Check rank <= 1 and single-orbit entries on every off-diagonal block of pi."""
    _require_group(group)
    H = spectral.require_psd(A, tol)
    if pi.size != H.shape[0]:
        raise ValueError("partition size does not match matrix")
    scale = float(np.max(np.abs(H)))
    if scale == 0.0:
        return True
    return all(
        _block_ok(_sub(H, bi, bj), group, tol, scale)
        for a, bi in enumerate(pi.blocks)
        for bj in pi.blocks[a + 1 :]
    )


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
    peak = np.max(np.abs(H))
    if peak > 0:
        H = H / peak
    total = h_matrix((1.0,) * N, H)
    w, V = np.linalg.eigh(spectral.hermitian_part(total))
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
    angles = scipy.linalg.subspace_angles(B1, B2)
    return float(np.max(angles)) if angles.size else 0.0


def rank_bound_check(A, tol: float = 1e-9) -> bool:
    """Numerical rank of A is at most the number of nonzero_complex strata blocks."""
    H, w = spectral.psd_spectrum(A, tol)
    rank = int(np.sum(~spectral.kernel_mask(w, tol)))
    return rank <= len(_partition(H, GroupTag.NONZERO_COMPLEX, tol).blocks)


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


def generate_in_stratum(
    pi: IndexPartition,
    group: GroupTag,
    seed: int = 0,
) -> np.ndarray:
    """Random PSD matrix whose stratification under `group` is exactly `pi`.

    Built as U C U* with a positive definite core C over the blocks and
    single-orbit block vectors U; generic draws keep distinct blocks from
    merging, and the construction is verified by a stratify round trip
    (retried with a fresh seed on failure).
    """
    _require_group(group)
    for attempt in range(_MAX_ATTEMPTS):
        rng = np.random.default_rng(seed + attempt)
        U = _block_vectors(pi, group, rng)
        C = _random_core(len(pi.blocks), rng)
        A = spectral.hermitian_part(U @ C @ U.conj().T)
        if stratify(A, group) == pi:
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
    with the limit point last; labels come from stratify at each step.
    """
    if pi_target.size != pi_source.size:
        raise ValueError("partitions must share a ground set")
    if pi_target == pi_source or not refinement_leq(pi_source, pi_target):
        raise ValueError("pi_source must strictly refine pi_target")
    if steps < 1:
        raise ValueError("steps must be positive")
    N = pi_target.size
    k_s = len(pi_source.blocks)
    k_t = len(pi_target.blocks)
    src, tgt = _labels(pi_source), _labels(pi_target)
    E = np.zeros((k_s, k_t))
    E[src, tgt] = 1.0  # row a marks the target block holding source block a

    for attempt in range(_MAX_ATTEMPTS):
        rng = np.random.default_rng(seed + attempt)
        U_t = _block_vectors(pi_target, group, rng)
        C_t = _random_core(k_t, rng)
        A_t = spectral.hermitian_part(U_t @ C_t @ U_t.conj().T)
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
            rows.append((float(np.linalg.norm(P - A_t)), stratify(P, group)))
        rows.append((0.0, stratify(A_t, group)))
        if all(label == pi_source for _, label in rows[:-1]) and rows[-1][1] == pi_target:
            return rows
    # no fully clean draw found; report the last attempt honestly
    return rows
