"""The memo of the last PSD-validated matrix in ``spectral``.

``spectral.psd_verdict`` keeps its last decided input (tol, shape, layout and
the bytes of its complex form) with the read-only Hermitian part, the verdict
and the values derived from it (``spectral.derived``: h_c[A] and A^(oM) for
the two Rayleigh routes, the stratifications).  Every result must be the same, by
bytes or repr, as with the memo emptied before each validation; the memo
must hold one entry, miss on any other tol, shape, layout or content, and
never let a caller write the arrays it shares.
"""

import json

import numpy as np
import pytest

from entrywise import psd, spectral, strata
from entrywise.cli import main
from entrywise.hadamard import h_matrix, hadamard_power
from entrywise.psd import psd_check, rayleigh_constant, rayleigh_variational
from entrywise.strata import (
    GroupTag,
    IndexPartition,
    generate_in_stratum,
    kernel_for_partition,
    simultaneous_kernel,
    stratify,
    verify_offdiagonal_structure,
)
from entrywise.threshold import lmi_check

# block sizes of the strata benchmark at each N
PATTERNS = {8: (1, 2, 2, 2, 1), 24: (1, 2, 4, 4, 4, 4, 4, 1), 80: (3, 7, 13, 13, 13, 13, 14, 4)}


def _stratum_matrix(N, group, seed):
    """Unit-disc matrix of the N pattern's stratum under group, indices permuted."""
    rng = np.random.default_rng([N, seed])
    order = rng.permutation(N).tolist()
    blocks, start = [], 0
    for size in PATTERNS[N]:
        blocks.append(tuple(order[start : start + size]))
        start += size
    A = generate_in_stratum(IndexPartition(tuple(blocks)), group, seed)
    return A / np.abs(A).max()


def _memo_cleared_before_each_validation(monkeypatch):
    verdict = spectral.psd_verdict

    def fresh(A, tol):
        spectral.clear_memo()
        return verdict(A, tol)

    monkeypatch.setattr(spectral, "psd_verdict", fresh)


def _outcome(f, *args):
    """f(*args) with arrays as bytes and floats as repr, or the exception."""
    try:
        r = f(*args)
    except (ValueError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)
    if isinstance(r, psd.RayleighResult):
        return repr(r.value), r.maximizer.dtype, r.maximizer.tobytes(), r.method
    if isinstance(r, strata.SubspaceBasis):
        return r.dim, r.basis.shape, r.basis.tobytes()
    return r


def _chain(A, group, c, M):
    """The strata benchmark's chain on A, then its joint kernel and both
    Rayleigh routes for the reversed coefficients."""
    pi = stratify(A, group)
    return [
        pi,
        _outcome(verify_offdiagonal_structure, A, pi, group),
        kernel_for_partition(pi).dim,
        _outcome(rayleigh_constant, c, M, A),
        _outcome(rayleigh_variational, c, M, A),
        _outcome(simultaneous_kernel, A),
        _outcome(rayleigh_variational, c[::-1], M, A),
        _outcome(rayleigh_constant, c[::-1], M, A),
    ]


def _cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def _write_matrix(path, A):
    cells = [[{"re": z.real, "im": z.imag} for z in row] for row in A.tolist()]
    path.write_text(json.dumps({"n": len(cells), "entries": cells}))
    return str(path)


@pytest.mark.parametrize("N", sorted(PATTERNS))
@pytest.mark.parametrize("group", tuple(GroupTag), ids=lambda g: g.value)
def test_chain_equals_fresh_validation(monkeypatch, N, group):
    runs = []
    for fresh in (True, False):
        with monkeypatch.context() as m:
            if fresh:
                _memo_cleared_before_each_validation(m)
            runs.append([])
            for seed in range(2):
                A = _stratum_matrix(N, group, seed)
                c = tuple(float(x) for x in np.random.default_rng(seed).uniform(0.5, 2.0, N))
                runs[-1].append(_chain(A, group, c, N + seed))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("group", ["trivial", "s1", "cx"])
def test_cli_stratify_and_rayleigh_equal_fresh_validation(monkeypatch, capsys, tmp_path, group):
    commands = []
    for N in (8, 24):
        path = _write_matrix(tmp_path / f"a{N}.json", _stratum_matrix(N, GroupTag.TRIVIAL, 3))
        c = ",".join(["1"] * N)
        commands += [
            ["stratify", "--matrix", path, "--group", group],
            ["stratify", "--matrix", path, "--group", group, "--json"],
            ["rayleigh", "--matrix", path, "--c", c, "--M", str(N + 1)],
            ["rayleigh", "--matrix", path, "--c", c, "--M", str(N), "--json"],
        ]
    outputs = []
    for fresh in (True, False):
        with monkeypatch.context() as m:
            if fresh:
                _memo_cleared_before_each_validation(m)
            outputs.append([_cli(capsys, argv) for argv in commands])
    assert all(code == 0 for code, _ in outputs[0])
    assert outputs[0] == outputs[1]


class _Count:
    """Counts calls of spectral.require_hermitian, np.linalg.eigvalsh and
    np.linalg.cholesky."""

    def __init__(self, monkeypatch):
        self.hermitian = self.eigvalsh = self.cholesky = 0
        require_hermitian = spectral.require_hermitian
        eigvalsh, cholesky = np.linalg.eigvalsh, np.linalg.cholesky

        def hermitian(A, tol):
            self.hermitian += 1
            return require_hermitian(A, tol)

        def solve(H):
            self.eigvalsh += 1
            return eigvalsh(H)

        def factor(G):
            self.cholesky += 1
            return cholesky(G)

        monkeypatch.setattr(spectral, "require_hermitian", hermitian)
        monkeypatch.setattr(np.linalg, "eigvalsh", solve)
        monkeypatch.setattr(np.linalg, "cholesky", factor)


A3 = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.5], [0.0, 0.5, 1.0]])


def test_chain_validates_builds_h_and_stratifies_once(monkeypatch):
    A = _stratum_matrix(24, GroupTag.TRIVIAL, 0)
    count = _Count(monkeypatch)
    built, powers, partitions = [], [], []
    h_hermitian, power, partition = psd._h_hermitian, psd.hadamard_power, strata._partition
    monkeypatch.setattr(psd, "_h_hermitian", lambda cs, X: built.append(1) or h_hermitian(cs, X))
    monkeypatch.setattr(psd, "hadamard_power", lambda X, M: powers.append(M) or power(X, M))
    monkeypatch.setattr(
        strata, "_partition", lambda H, g, tol: partitions.append(g) or partition(H, g, tol)
    )
    c = tuple(1.0 + j / 24 for j in range(24))
    _chain(A, GroupTag.TRIVIAL, c, 25)
    # A once; h_c[A] is exactly Hermitian and goes into its root unchecked
    assert count.hermitian == 1
    assert len(built) == 2  # one h_c[A] per coefficient vector
    assert powers == [25]  # one A^(o25) for the four Rayleigh calls
    assert partitions == [GroupTag.TRIVIAL]
    assert sorted(spectral._memo[3]) == ["h", "power", "stratify"]  # one value per kind


def test_repeat_call_needs_no_validation(monkeypatch):
    count = _Count(monkeypatch)
    H = spectral.require_psd(A3, 1e-9)
    assert spectral.require_psd(A3.copy(), 1e-9) is H
    assert psd_check(A3.tolist(), 1e-9)
    # one validation, decided by one solve of either kind
    assert (count.hermitian, count.eigvalsh + count.cholesky) == (1, 1)


def test_in_place_change_validates_afresh(monkeypatch):
    A = np.diag([1.0, 2.0, 3.0])
    count = _Count(monkeypatch)
    assert stratify(A, GroupTag.TRIVIAL) == IndexPartition(((0,), (1,), (2,)))
    A[:2, :2] = 1.0  # now indices 0 and 1 form one rank-one block
    assert stratify(A, GroupTag.TRIVIAL) == IndexPartition(((0, 1), (2,)))
    assert count.hermitian == 2
    A[2, 2] = -1.0
    with pytest.raises(ValueError, match="not positive semidefinite"):
        stratify(A, GroupTag.TRIVIAL)
    assert count.hermitian == 3


def test_other_tol_shape_or_layout_misses(monkeypatch):
    count = _Count(monkeypatch)
    spectral.require_psd(A3, 1e-9)
    spectral.require_psd(A3, 1e-6)
    assert count.hermitian == 2
    # the same bytes as a 1 x 9 row: not square, so it raises, however often
    for _ in range(2):
        with pytest.raises(ValueError, match="^square matrix required$"):
            spectral.require_psd(A3.reshape(1, 9), 1e-6)
    assert count.hermitian == 4
    S = np.asarray(A3, dtype=complex)
    spectral.require_psd(S, 1e-6)  # the complex form of the entry at 1e-6: a hit
    assert count.hermitian == 4
    T = S.T  # the same bytes, since S is symmetric, in Fortran order
    assert T.tobytes() == S.tobytes() and T.strides != S.strides
    H = spectral.require_psd(T, 1e-6)
    assert count.hermitian == 5
    assert np.array_equal(H, spectral.hermitian_part(S))


def test_shared_arrays_are_read_only():
    H = spectral.require_psd(A3, 1e-9)
    h = psd._h((1.0, 2.0, 3.0), H)
    assert psd._h((1, 2, 3), H) is h  # keyed by the coefficients as complex numbers
    for X in (H, h):
        with pytest.raises(ValueError, match="read-only"):
            X[0, 0] = 0.0
    assert np.array_equal(h, h_matrix((1.0, 2.0, 3.0), spectral.hermitian_part(A3)))


def test_derived_keeps_values_of_the_memo_matrix_only():
    H = spectral.require_psd(A3, 1e-9)
    made = []
    assert spectral.derived(H, "k", lambda: made.append(1) or 5) == 5
    assert spectral.derived(H, "k", lambda: made.append(1) or 6) == 5
    assert len(made) == 1
    other = H.copy()
    assert spectral.derived(other, "k", lambda: 7) == 7
    assert spectral.derived(other, "k", lambda: 8) == 8


def test_one_entry(monkeypatch):
    B = np.diag([1.0, 2.0, 3.0])
    count = _Count(monkeypatch)
    H = spectral.require_psd(A3, 1e-9)
    spectral.derived(H, "k", lambda: 1)
    spectral.require_psd(B, 1e-9)
    assert spectral.derived(H, "k", lambda: 2) == 2  # A's derived values went with it
    H2 = spectral.require_psd(A3, 1e-9)
    assert H2 is not H and np.array_equal(H2, H)
    assert count.hermitian == 3


def test_errors_repeat(monkeypatch):
    count = _Count(monkeypatch)
    N = np.array([[1.0, 2.0], [0.0, 1.0]])
    for _ in range(3):
        with pytest.raises(ValueError, match="^matrix is not Hermitian within tolerance$"):
            spectral.require_psd(N, 1e-9)
    assert count.hermitian == 3
    P = np.array([[1.0, 3.0], [3.0, 1.0]])
    messages = []
    for _ in range(3):
        with pytest.raises(ValueError) as err:
            spectral.require_psd(P, 1e-9)
        messages.append(str(err.value))
        assert psd_check(P, 1e-9) is False
    assert messages == ["matrix is not positive semidefinite: eigenvalue -2"] * 3
    assert (count.hermitian, count.eigvalsh) == (4, 1)


def test_one_derived_value_per_kind():
    # the memo keeps one h_c[A], one A^(oM) and one stratification, not one per
    # coefficient vector
    A = _stratum_matrix(24, GroupTag.TRIVIAL, 1)
    rng = np.random.default_rng(7)
    vectors = [tuple(float(x) for x in rng.uniform(0.5, 2.0, 24)) for _ in range(50)]
    for c in vectors:
        rayleigh_variational(c, 25, A)
    kept = spectral._memo[3]
    assert sorted(kept) == ["h", "power", "stratify"]
    (h_key, h), (power_key, AM), (pi_key, pi) = kept["h"], kept["power"], kept["stratify"]
    spectral.clear_memo()
    H = spectral.require_psd(A, 1e-9)
    assert h_key == ("h", tuple(complex(x) for x in vectors[-1]))
    assert h.tobytes() == h_matrix(vectors[-1], H).tobytes()
    assert power_key == ("power", 25)
    assert AM.tobytes() == hadamard_power(H, 25).tobytes()
    assert pi_key == ("stratify", GroupTag.TRIVIAL, 1e-9)
    assert pi == strata._partition(H, GroupTag.TRIVIAL, 1e-9)


def test_generating_and_probing_keep_the_callers_entry(monkeypatch):
    # both label their own PSD-by-construction matrices without validating them
    H = spectral.require_psd(A3, 1e-9)
    count = _Count(monkeypatch)
    generate_in_stratum(IndexPartition(((0, 1), (2,))), GroupTag.UNIT_CIRCLE, seed=3)
    strata.closure_probe(IndexPartition(((0, 1, 2),)), IndexPartition(((0, 1), (2,))), 3)
    assert spectral.require_psd(A3, 1e-9) is H
    assert (count.hermitian, count.eigvalsh) == (0, 0)


def test_loewner_check_keeps_its_matrix(monkeypatch):
    # lmi_check validates A once and decides C h_c[H] - H^(oM) without the
    # memo, so A stays its entry: checking or stratifying A next costs no solve
    A = _stratum_matrix(8, GroupTag.TRIVIAL, 0)
    c = tuple(1.0 + j / 8 for j in range(8))
    assert lmi_check(c, 9, 1.0, A)
    count = _Count(monkeypatch)
    assert psd_check(A)
    stratify(A, GroupTag.TRIVIAL)
    assert (count.hermitian, count.eigvalsh, count.cholesky) == (0, 0, 0)
