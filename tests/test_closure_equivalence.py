"""Closure probes, stratum draws and block helpers against loop references.

The references below are the block-by-block code these functions replaced:
one scaffold column filled per block, the source-to-target block map looked
up through a dict, a path point built block by block in a nested function,
and refinement decided through the blocks themselves.  The flat code must
reproduce them exactly: the same random draws in the same order, distances
equal by repr and labels equal.
"""

import itertools

import numpy as np
import pytest

from entrywise import spectral, strata
from entrywise.strata import (
    GroupTag,
    IndexPartition,
    closure_probe,
    generate_in_stratum,
    kernel_for_partition,
    refinement_leq,
    stratify,
)

GROUPS = tuple(GroupTag)

# (target, source) pairs: a single merge, a split into three, a two-block
# target over non-consecutive indices, and a six-index block met by three pairs
PAIRS = (
    (((0, 1), (2,)), ((0,), (1,), (2,))),
    (((0, 1, 2), (3,)), ((0,), (1,), (2,), (3,))),
    (((0, 2, 4), (1, 3)), ((0,), (2, 4), (1, 3))),
    (((0, 1, 2, 3, 4, 5),), ((0, 3), (1, 4), (2, 5))),
)


# --- references ---------------------------------------------------------------


def ref_refinement_leq(p1, p2):
    if p1.size != p2.size:
        raise ValueError("partitions must share a ground set")
    lookup = {}
    for b in p2.blocks:
        for i in b:
            lookup[i] = b
    return all(all(lookup[i] is lookup[b[0]] for i in b) for b in p1.blocks)


def ref_block_vectors(pi, group, rng):
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


def ref_generate_in_stratum(pi, group, seed):
    for attempt in range(strata._MAX_ATTEMPTS):
        rng = np.random.default_rng(seed + attempt)
        U = ref_block_vectors(pi, group, rng)
        C = strata._random_core(len(pi.blocks), rng)
        A = spectral.hermitian_part(U @ C @ U.conj().T)
        if stratify(A, group) == pi:
            return A
    raise RuntimeError(f"could not realize stratum {pi.blocks} for {group.value}")


def ref_kernel_for_partition(pi):
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
        return np.column_stack(cols)
    return np.zeros((N, 0), dtype=complex)


def ref_closure_probe(pi_target, pi_source, steps, group, seed):
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

    for attempt in range(strata._MAX_ATTEMPTS):
        rng = np.random.default_rng(seed + attempt)
        U_t = ref_block_vectors(pi_target, group, rng)
        C_t = strata._random_core(k_t, rng)
        A_t = spectral.hermitian_part(U_t @ C_t @ U_t.conj().T)
        full = U_t.sum(axis=1)
        R = strata._random_core(k_s, rng)
        scalar_bumps = rng.uniform(0.3, 1.0, size=k_s)
        entry_phases = rng.uniform(0.4, 1.0, size=N) * rng.choice([-1.0, 1.0], size=N)
        entry_bumps = 0.4 * (rng.standard_normal(N) + 1j * rng.standard_normal(N)) / np.sqrt(2)

        def path_point(d):
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
    return rows


def _partitions(N, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        labels = rng.integers(0, rng.integers(1, N + 1), size=N)
        blocks = {}
        for i, label in enumerate(labels.tolist()):
            blocks.setdefault(label, []).append(i)
        out.append(IndexPartition(tuple(tuple(b) for b in blocks.values())))
    return out


# --- tests ----------------------------------------------------------------------


@pytest.mark.parametrize("steps", [1, 8])
@pytest.mark.parametrize("pair", PAIRS, ids=[str(t) for t, _ in PAIRS])
@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.value)
def test_closure_probe_matches_reference(group, pair, steps):
    target, source = (IndexPartition(p) for p in pair)
    for seed in range(5):
        got = closure_probe(target, source, steps, group, seed)
        want = ref_closure_probe(target, source, steps, group, seed)
        assert len(got) == len(want) == steps + 1
        for (d_got, label_got), (d_want, label_want) in zip(got, want):
            assert repr(d_got) == repr(d_want)
            assert label_got == label_want


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.value)
def test_generate_in_stratum_matches_reference(group):
    for N in (1, 2, 3, 5, 8):
        for seed, pi in enumerate(_partitions(N, 6, N)):
            got = generate_in_stratum(pi, group, seed)
            assert got.tobytes() == ref_generate_in_stratum(pi, group, seed).tobytes()


def test_block_helpers_match_reference():
    for N in (1, 2, 3, 4, 6, 8, 24, 48, 80):
        parts = _partitions(N, 8, 100 + N)
        for pi in parts:
            basis = kernel_for_partition(pi).basis
            want = ref_kernel_for_partition(pi)
            assert basis.shape == want.shape and basis.tobytes() == want.tobytes()
            assert basis.dtype == want.dtype and repr(basis) == repr(want)
        for p1, p2 in itertools.product(parts, repeat=2):
            assert refinement_leq(p1, p2) is ref_refinement_leq(p1, p2)
