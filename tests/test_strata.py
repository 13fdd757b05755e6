"""Orbit stratification, simultaneous kernels, and stratum closures."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entrywise import spectral, strata
from entrywise.strata import (
    GroupTag,
    IndexPartition,
    closure_probe,
    generate_in_stratum,
    kernel_for_partition,
    rank_bound_check,
    refinement_leq,
    simultaneous_kernel,
    single_block_partition,
    singleton_partition,
    stratify,
    subspace_max_angle,
    verify_offdiagonal_structure,
)

A2 = np.array(
    [[5.0, -5.0, 1.0], [-5.0, 5.0, -1.0], [1.0, -1.0, 2.0]], dtype=complex
)


def test_index_partition_canonical_form():
    pi = IndexPartition(((2,), (0, 1)))
    assert pi.blocks == ((0, 1), (2,))
    assert pi.size == 3
    assert IndexPartition(((1, 0), (2,))) == pi


def test_index_partition_validation():
    with pytest.raises(ValueError):
        IndexPartition(((0, 1), (1, 2)))  # overlap
    with pytest.raises(ValueError):
        IndexPartition(((0,), (2,)))  # gap
    with pytest.raises(ValueError):
        IndexPartition(((0,), ()))


def test_refinement_order():
    fine = singleton_partition(3)
    coarse = single_block_partition(3)
    mid = IndexPartition(((0, 1), (2,)))
    assert refinement_leq(fine, mid)
    assert refinement_leq(mid, coarse)
    assert refinement_leq(fine, coarse)
    assert not refinement_leq(coarse, mid)
    assert not refinement_leq(mid, IndexPartition(((0,), (1, 2))))


def test_stratify_sign_flip_example():
    # u = (1, -1) block under the unit circle, separate under the trivial group
    assert stratify(A2, GroupTag.UNIT_CIRCLE).blocks == ((0, 1), (2,))
    assert stratify(A2, GroupTag.TRIVIAL).blocks == ((0,), (1,), (2,))
    assert stratify(A2, GroupTag.NONZERO_COMPLEX).blocks == ((0, 1), (2,))


def test_stratify_constant_block():
    A = np.ones((3, 3), dtype=complex) * 0.7
    assert stratify(A, GroupTag.TRIVIAL).blocks == ((0, 1, 2),)


def test_stratify_zero_matrix_single_block():
    assert stratify(np.zeros((4, 4)), GroupTag.TRIVIAL).blocks == ((0, 1, 2, 3),)


def test_stratify_identity_is_singletons():
    for g in GroupTag:
        assert stratify(np.eye(3), g).singletons()


def test_stratify_rejects_non_psd():
    bad = np.array([[1.0, 3.0], [3.0, 1.0]])
    with pytest.raises(ValueError, match="eigenvalue"):
        stratify(bad, GroupTag.TRIVIAL)


def test_component_labels_cross_a_path_in_few_rounds(monkeypatch):
    """u u* with u_k = 1 + 0.45e-9 k relates each index to its neighbours
    only.  Each label round jumps to the label's own label, so the 80-index
    path is one component after a few rounds; taking the least neighbouring
    label alone would take 80."""
    u = 1.0 + 0.45e-9 * np.arange(80)
    H = spectral.require_psd(np.outer(u, u), 1e-9)
    k = np.arange(80)
    related = strata._related(H, GroupTag.TRIVIAL, 1e-9, float(np.max(np.abs(H))))
    assert (related == (np.abs(np.subtract.outer(k, k)) <= 1)).all()
    calls = []
    where = np.where
    monkeypatch.setattr(np, "where", lambda *args: calls.append(1) or where(*args))
    pi = strata._partition(H, GroupTag.TRIVIAL, 1e-9)
    assert pi.blocks == tuple((i, i + 1) for i in range(0, 80, 2))
    assert len(calls) <= 8


def test_stratify_scaling_invariance_cx():
    # multiplying a block vector by a nonzero scalar keeps the cx partition
    pi = IndexPartition(((0, 1), (2,)))
    A = generate_in_stratum(pi, GroupTag.NONZERO_COMPLEX, seed=3)
    D = np.diag([2.0, 2.0, 1.0])
    assert stratify(D @ A @ D, GroupTag.NONZERO_COMPLEX) == pi


def test_offdiagonal_structure_follows_diagonal():
    pi = IndexPartition(((0, 1, 2), (3, 4)))
    for g in GroupTag:
        A = generate_in_stratum(pi, g, seed=11)
        assert verify_offdiagonal_structure(A, stratify(A, g), g)


def test_generate_roundtrip_all_groups():
    partitions = [
        IndexPartition(((0,), (1,), (2,))),
        IndexPartition(((0, 1), (2,))),
        IndexPartition(((0, 2), (1,))),
        IndexPartition(((0, 1, 2),)),
        IndexPartition(((0, 1), (2, 3), (4,))),
    ]
    for k, pi in enumerate(partitions):
        for g in GroupTag:
            A = generate_in_stratum(pi, g, seed=5 * k + 1)
            assert stratify(A, g) == pi


def test_kernel_for_partition_helmert():
    pi = IndexPartition(((0, 1, 2), (3,)))
    K = kernel_for_partition(pi)
    assert K.dim == 2
    B = K.basis
    # orthonormal, block zero-sum, vanishes on singleton
    assert np.max(np.abs(B.conj().T @ B - np.eye(2))) < 1e-12
    assert np.max(np.abs(B[:3].sum(axis=0))) < 1e-12
    assert np.max(np.abs(B[3])) == 0.0


def test_simultaneous_kernel_matches_block_kernel():
    for seed, blocks in enumerate([((0, 1), (2,)), ((0, 1, 2),), ((0, 1), (2, 3))]):
        pi = IndexPartition(blocks)
        A = generate_in_stratum(pi, GroupTag.TRIVIAL, seed=20 + seed)
        K = simultaneous_kernel(A)
        Kpi = kernel_for_partition(pi)
        assert K.dim == Kpi.dim
        assert subspace_max_angle(K.basis, Kpi.basis) <= 1e-8


def test_simultaneous_kernel_independent_of_entry_scale():
    # entries here exceed 1 in modulus; the joint kernel must not see the scale
    sizes = (1, 2, 4, 4, 4, 4, 4, 1)
    starts = np.cumsum((0,) + sizes)
    pi = IndexPartition(tuple(tuple(range(a, a + n)) for a, n in zip(starts, sizes)))
    assert pi.size == 24 and kernel_for_partition(pi).dim == 16
    for seed in range(5):
        A = generate_in_stratum(pi, GroupTag.TRIVIAL, seed=seed)
        assert simultaneous_kernel(A).dim == 16


def test_simultaneous_kernel_full_rank_pd():
    rng = np.random.default_rng(7)
    B = rng.standard_normal((4, 4))
    A = B @ B.T + 0.5 * np.eye(4)
    assert simultaneous_kernel(A).dim == 0


def test_subspace_angle_requires_equal_dims():
    with pytest.raises(ValueError):
        subspace_max_angle(np.eye(3)[:, :1], np.eye(3)[:, :2])


def test_rank_bound():
    rng = np.random.default_rng(8)
    for _ in range(10):
        B = rng.standard_normal((4, 2))
        assert rank_bound_check(B @ B.T)
    assert rank_bound_check(np.ones((3, 3)))
    assert rank_bound_check(np.zeros((3, 3)))


def test_rank_bound_check_solves_once(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(H):
        calls.append(H.shape)
        return eigvalsh(H)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    assert rank_bound_check(np.eye(4))
    assert len(calls) == 1


def test_rank_bound_check_rejects_non_psd():
    with pytest.raises(ValueError, match="not positive semidefinite: eigenvalue -1"):
        rank_bound_check(np.diag([1.0, -1.0]))


def ref_psd_spectrum(A, tol):
    """The eigenvalue-only validation rank_bound_check used before it shared
    require_psd and its memo."""
    H = spectral.require_hermitian(A, tol)
    w, s = spectral.spectrum(np.linalg.eigvalsh, H)
    w_min, scale = w[..., 0], np.abs(w).max(axis=-1, initial=s)
    if not w_min >= -tol * scale:
        raise ValueError(f"matrix is not positive semidefinite: eigenvalue {float(w_min) / s:.6g}")
    return H, w


def ref_rank_bound_check(A, tol=1e-9):
    H, w = ref_psd_spectrum(A, tol)
    rank = int(np.sum(~spectral.kernel_mask(w, tol)))
    return rank <= len(strata._partition(H, GroupTag.NONZERO_COMPLEX, tol).blocks)


def _rank_bound_inputs():
    rng = np.random.default_rng(11)
    for N in range(3, 25):
        labels = rng.integers(0, max(1, N // 3), size=N).tolist()
        blocks = {}
        for i, label in enumerate(labels):
            blocks.setdefault(label, []).append(i)
        pi = IndexPartition(tuple(tuple(b) for b in blocks.values()))
        for group in GroupTag:
            yield generate_in_stratum(pi, group, seed=N)
    for n, k in ((2, 1), (3, 1), (4, 2), (6, 3), (16, 5), (20, 19)):
        B = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        yield B @ B.conj().T
    yield np.zeros((3, 3))
    yield np.diag([1.0, -1.0])
    yield np.diag([1.0, 0.0, -1e-10])
    yield np.triu(np.ones((3, 3)))
    yield np.diag([1.0, np.nan])
    for n in (1, 2, 5, 24):
        yield np.full((n, n), 1e308)
    yield np.diag([1e308, -1e308])
    yield -1e308 * np.eye(3)


@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_rank_bound_check_matches_reference(tol):
    for A in _rank_bound_inputs():
        outcomes = []
        for check in (rank_bound_check, ref_rank_bound_check):
            try:
                outcomes.append(check(A, tol))
            except ValueError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]


def test_rank_bound_check_keeps_the_stratification(monkeypatch):
    A = generate_in_stratum(IndexPartition(((0, 1), (2, 3, 4), (5,))), GroupTag.UNIT_CIRCLE, seed=2)
    calls = []
    partition = strata._partition
    monkeypatch.setattr(
        strata, "_partition", lambda H, g, tol: calls.append(g) or partition(H, g, tol)
    )
    assert rank_bound_check(A)
    assert rank_bound_check(A)
    assert stratify(A, GroupTag.NONZERO_COMPLEX) == partition(
        spectral.hermitian_part(A), GroupTag.NONZERO_COMPLEX, 1e-9
    )
    assert calls == [GroupTag.NONZERO_COMPLEX]


def test_closure_probe_path_and_limit():
    target = IndexPartition(((0, 1), (2,)))
    source = singleton_partition(3)
    rows = closure_probe(target, source, steps=6, group=GroupTag.TRIVIAL, seed=0)
    assert len(rows) == 7
    dists = [d for d, _ in rows]
    assert all(dists[i] > dists[i + 1] for i in range(len(dists) - 1))
    assert all(label == source for _, label in rows[:-1])
    assert rows[-1] == (0.0, target)


def test_closure_probe_unit_circle_group():
    target = single_block_partition(3)
    source = IndexPartition(((0, 1), (2,)))
    rows = closure_probe(target, source, steps=5, group=GroupTag.UNIT_CIRCLE, seed=1)
    assert rows[-1][1] == target
    assert all(label == source for _, label in rows[:-1])


def test_closure_probe_rejects_non_refining():
    with pytest.raises(ValueError):
        closure_probe(singleton_partition(3), single_block_partition(3))
    with pytest.raises(ValueError):
        closure_probe(single_block_partition(3), single_block_partition(3))


@given(st.integers(2, 6), st.data())
def test_stratify_monotone_in_group(n, data):
    # trivial-orbit blocks are unit-circle blocks are cx blocks
    blocks = []
    remaining = list(range(n))
    while remaining:
        size = data.draw(st.integers(1, len(remaining)))
        blocks.append(tuple(remaining[:size]))
        remaining = remaining[size:]
    pi = IndexPartition(tuple(blocks))
    A = generate_in_stratum(pi, GroupTag.TRIVIAL, seed=data.draw(st.integers(0, 50)))
    p_triv = stratify(A, GroupTag.TRIVIAL)
    p_s1 = stratify(A, GroupTag.UNIT_CIRCLE)
    p_cx = stratify(A, GroupTag.NONZERO_COMPLEX)
    assert refinement_leq(p_triv, p_s1)
    assert refinement_leq(p_s1, p_cx)


@pytest.mark.parametrize("pi", [single_block_partition(2), singleton_partition(2)])
def test_verify_offdiagonal_structure_rejects_unknown_group(pi):
    # a single-block partition has no off-diagonal block for the orbit test to reject the group
    with pytest.raises(ValueError, match="unknown group 'trivial'"):
        verify_offdiagonal_structure(np.eye(2), pi, "trivial")


@pytest.mark.parametrize("N", [2, 3, 24])
@pytest.mark.parametrize("value", [1e308, 1e200])
def test_huge_entries_stratify_without_warnings(N, value):
    # d_i d_j - |h_ij|^2 overflows from about 1.3e154; the pair relation forms
    # it on an exactly scaled copy, and the block kernel declines what
    # overflows there and leaves it to the rescaled SVD, with no warning
    A = np.full((N, N), value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for group in GroupTag:
            pi = stratify(A, group)
            assert pi == single_block_partition(N)
            for p in (pi, singleton_partition(N)):
                assert verify_offdiagonal_structure(A, p, group)



@pytest.mark.parametrize(
    "A, trivial, rotated",
    [
        (np.array([[1e308, -1e308], [-1e308, 1e308]]), ((0,), (1,)), ((0, 1),)),
        (np.array([[1e308, 1e308j], [-1e308j, 1e308]]), ((0,), (1,)), ((0, 1),)),
        (
            np.array([[1e308, 1e308, -1e308], [1e308, 1e308, -1e308], [-1e308, -1e308, 1e308]]),
            ((0, 1), (2,)),
            ((0, 1, 2),),
        ),
    ],
)
def test_opposite_huge_entries_stratify_without_warnings(A, trivial, rotated):
    # d_i - h_ij and 2 |h_ij| overflow to inf in the trivial-group spread,
    # which exceeds the cut as the exact spread does: same partition, no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for group in GroupTag:
            pi = stratify(A, group)
            assert pi.blocks == (trivial if group is GroupTag.TRIVIAL else rotated)
            assert verify_offdiagonal_structure(A, pi, group)
