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
    lookup = {}
    for b in p2.blocks:
        for i in b:
            lookup[i] = b
    return all(all(lookup[i] is lookup[b[0]] for i in b) for b in p1.blocks)


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


def _single_orbit(values, group: GroupTag, tol: float, scale: float) -> bool:
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


def _pair_compatible(A, i: int, j: int, group: GroupTag, tol: float, scale: float) -> bool:
    det2 = A[i, i] * A[j, j] - A[i, j] * A[j, i]
    if abs(det2) > tol * scale * scale:
        return False
    return _single_orbit((A[i, i], A[i, j], A[j, i], A[j, j]), group, tol, scale)


def _block_ok(sub, group: GroupTag, tol: float, scale: float) -> bool:
    """Entries of the block in one G-orbit and numerical rank at most one."""
    if not _single_orbit(sub.ravel(), group, tol, scale):
        return False
    if min(sub.shape) < 2:
        return True
    s = np.linalg.svd(sub, compute_uv=False)
    return bool(s[1] <= tol * max(scale, float(s[0])))


def _verified_split(A, comp, group: GroupTag, tol: float, scale: float):
    comp = sorted(comp)
    if _block_ok(A[np.ix_(comp, comp)], group, tol, scale):
        return [comp]
    # tolerance chaining can merge indices that fail jointly; regroup greedily,
    # admitting an index only when the enlarged block verifies as a whole
    groups: list[list[int]] = []
    for i in comp:
        placed = False
        for g in groups:
            block = g + [i]
            if all(_pair_compatible(A, i, j, group, tol, scale) for j in g) and _block_ok(
                A[np.ix_(block, block)], group, tol, scale
            ):
                g.append(i)
                placed = True
                break
        if not placed:
            groups.append([i])
    return groups


def stratify(A, group: GroupTag, tol: float = 1e-9) -> IndexPartition:
    """Maximal partition with rank <= 1, single-G-orbit diagonal blocks.

    Pairs are related when their 2x2 principal submatrix has numerical rank
    at most one and its four entries lie in one G-orbit; connected components
    of that relation are then verified as whole blocks (and greedily split if
    tolerance chaining produced a false merge).  The zero matrix maps to the
    single-block partition by convention.
    """
    if not isinstance(group, GroupTag):
        raise ValueError(f"unknown group {group!r}")
    H = spectral.require_psd(A, tol)
    N = H.shape[0]
    scale = float(np.max(np.abs(H)))
    if scale == 0.0:
        return single_block_partition(N)
    uf = _UnionFind(N)
    for i in range(N):
        for j in range(i + 1, N):
            if _pair_compatible(H, i, j, group, tol, scale):
                uf.union(i, j)
    components: dict[int, list[int]] = {}
    for i in range(N):
        components.setdefault(uf.find(i), []).append(i)
    blocks: list[tuple[int, ...]] = []
    for comp in components.values():
        for part in _verified_split(H, comp, group, tol, scale):
            blocks.append(tuple(part))
    return IndexPartition(tuple(blocks))


def verify_offdiagonal_structure(
    A, pi: IndexPartition, group: GroupTag, tol: float = 1e-9
) -> bool:
    """Check rank <= 1 and single-orbit entries on every off-diagonal block of pi."""
    H = spectral.require_psd(A, tol)
    if pi.size != H.shape[0]:
        raise ValueError("partition size does not match matrix")
    scale = float(np.max(np.abs(H)))
    if scale == 0.0:
        return True
    return all(
        _block_ok(H[np.ix_(list(bi), list(bj))], group, tol, scale)
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
    total = np.ones((N, N), dtype=complex)
    power = np.ones((N, N), dtype=complex)
    for _ in range(1, N):
        power = power * H
        total = total + power
    w, V = np.linalg.eigh(spectral.hermitian_part(total))
    basis = V[:, spectral.kernel_mask(w, tol)]
    return SubspaceBasis(basis.shape[1], basis)


def kernel_for_partition(pi: IndexPartition) -> SubspaceBasis:
    """Block zero-sum subspace: direct sum over blocks of mean-zero vectors.

    Dimension N - (number of blocks); the basis is exact Helmert vectors and
    orthonormal by construction.
    """
    N = pi.size
    cols = []
    for block in pi.blocks:
        b = list(block)
        for k in range(1, len(b)):
            v = np.zeros(N, dtype=complex)
            v[b[:k]] = 1.0
            v[b[k]] = -k
            cols.append(v / np.sqrt(k * (k + 1)))
    if cols:
        basis = np.column_stack(cols)
    else:
        basis = np.zeros((N, 0), dtype=complex)
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
    H = spectral.require_psd(A, tol)
    rank = int(np.sum(~spectral.kernel_mask(np.linalg.eigvalsh(H), tol)))
    pi = stratify(H, GroupTag.NONZERO_COMPLEX, tol)
    return rank <= len(pi.blocks)


def _block_vectors(pi: IndexPartition, group: GroupTag, rng: np.random.Generator) -> np.ndarray:
    """N x k column scaffold: column a supported on block a with single-orbit entries."""
    N = pi.size
    k = len(pi.blocks)
    U = np.zeros((N, k), dtype=complex)
    for a, block in enumerate(pi.blocks):
        size = len(block)
        if group is GroupTag.TRIVIAL:
            entry = rng.uniform(0.6, 1.4) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            U[list(block), a] = entry
        elif group is GroupTag.UNIT_CIRCLE:
            r = rng.uniform(0.6, 1.4)
            phases = rng.uniform(0, 2 * np.pi, size=size)
            U[list(block), a] = r * np.exp(1j * phases)
        else:
            r = rng.uniform(0.5, 1.5, size=size)
            phases = rng.uniform(0, 2 * np.pi, size=size)
            U[list(block), a] = r * np.exp(1j * phases)
    return U


def _random_core(k: int, rng: np.random.Generator) -> np.ndarray:
    G = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return G @ G.conj().T / k + 0.5 * np.eye(k)


def generate_in_stratum(
    pi: IndexPartition,
    group: GroupTag,
    seed: int = 0,
    max_tries: int = 25,
) -> np.ndarray:
    """Random PSD matrix whose stratification under `group` is exactly `pi`.

    Built as U C U* with a positive definite core C over the blocks and
    single-orbit block vectors U; generic draws keep distinct blocks from
    merging, and the construction is verified by a stratify round trip
    (retried with a fresh seed on failure).
    """
    if not isinstance(group, GroupTag):
        raise ValueError(f"unknown group {group!r}")
    for attempt in range(max_tries):
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
    target_of = {}
    for ti, tb in enumerate(pi_target.blocks):
        for i in tb:
            target_of[i] = ti
    E = np.zeros((k_s, k_t))
    for a, sb in enumerate(pi_source.blocks):
        E[a, target_of[sb[0]]] = 1.0

    for attempt in range(25):
        rng = np.random.default_rng(seed + attempt)
        U_t = _block_vectors(pi_target, group, rng)
        C_t = _random_core(k_t, rng)
        A_t = spectral.hermitian_part(U_t @ C_t @ U_t.conj().T)
        full = U_t.sum(axis=1)  # value of the target scaffold at each index
        R = _random_core(k_s, rng)
        scalar_bumps = rng.uniform(0.3, 1.0, size=k_s)
        entry_phases = rng.uniform(0.4, 1.0, size=N) * rng.choice([-1.0, 1.0], size=N)
        entry_bumps = 0.4 * (rng.standard_normal(N) + 1j * rng.standard_normal(N)) / np.sqrt(2)

        def path_point(d: float) -> np.ndarray:
            U_s = np.zeros((N, k_s), dtype=complex)
            for a, sb in enumerate(pi_source.blocks):
                idx = list(sb)
                vals = full[idx].astype(complex)
                if group is GroupTag.TRIVIAL:
                    vals = vals * (1.0 + d * scalar_bumps[a])
                elif group is GroupTag.UNIT_CIRCLE:
                    vals = vals * np.exp(1j * d * entry_phases[idx]) * (1.0 + d * scalar_bumps[a])
                else:
                    vals = vals * (1.0 + d * entry_bumps[idx])
                U_s[idx, a] = vals
            C_s = E @ C_t @ E.T + d * R
            return spectral.hermitian_part(U_s @ C_s @ U_s.conj().T)

        ds = [0.5 * 2.0 ** (-j) for j in range(steps)]
        rows = []
        ok = True
        for d in ds:
            P = path_point(d)
            label = stratify(P, group)
            rows.append((float(np.linalg.norm(P - A_t)), label))
            ok = ok and label == pi_source
        limit_label = stratify(A_t, group)
        rows.append((0.0, limit_label))
        if ok and limit_label == pi_target:
            return rows
    # no fully clean draw found; report the last attempt honestly
    return rows
