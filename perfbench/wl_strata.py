"""strata: stratification, kernels and Rayleigh values of PSD matrices of a known stratum.

The benchmark builds each matrix itself as U C U* (see oracles.stratum_matrix)
with a fixed block-size pattern per N, so that the cost of a pass does not
depend on the seed; the seed draws the values, the permutation of indices and
the coefficients. Matrices are scaled to the unit disc, the paper's rho = 1.
"""

from __future__ import annotations

import numpy as np

import entrywise as ew

import oracles
from workloads import Op, Workload

# Block sizes per N: eight blocks from N = 24 up, as 1, 2, 4, 4, 4, 4, 4, 1 scaled.
PATTERNS = {
    8: (1, 2, 2, 2, 1),
    24: (1, 2, 4, 4, 4, 4, 4, 1),
    48: (2, 4, 8, 8, 8, 8, 8, 2),
    80: (3, 7, 13, 13, 13, 13, 14, 4),
}
# Matrices per group at each N: 108 operations a pass in all. Two per group
# at N = 80 make the two trivial-group chains there, the costliest operations,
# 1.9% of the executions, so that op_tail_ms (p99) falls among them rather
# than on the step between them and the next costliest.
MATRICES_PER_N = {8: 18, 24: 4, 48: 1, 80: 2}
GROUPS = (
    ("trivial", ew.GroupTag.TRIVIAL),
    ("unit_circle", ew.GroupTag.UNIT_CIRCLE),
    ("nonzero_complex", ew.GroupTag.NONZERO_COMPLEX),
)
GENERATE_SIZES = (1, 2, 3)
CLOSURE_TARGET = ((0, 1, 2), (3, 4))
CLOSURE_SOURCE = ((0, 1), (2,), (3, 4))
CLOSURE_STEPS = 8
# Inputs of the kept simultaneous-kernel fault: fixed, seed-independent
# matrices of the N = 24 and N = 80 patterns with entries up to ~3 in modulus.
FAULT_SEED = 0
RAYLEIGH_RTOL = 1e-8
# rayleigh_variational takes the kernel from the trivial-group stratification,
# which on the other groups leaves it a generalized eigenproblem with a
# near-singular right-hand side: over 300 seeds its value stayed within
# 1.1e-5 of the spectral one at N <= 48, and on unit-circle matrices at N = 80
# it raised LinAlgError for seeds 6 and 17 (see CHANGES.md). So on those
# groups it runs up to N = 48 only, checked against the spectral value with a
# looser tolerance.
NONTRIVIAL_VARIATIONAL_MAX_N = 48
NONTRIVIAL_RAYLEIGH_RTOL = 1e-3


def _chain(A, group, c, M):
    """One matrix through the stratification and Rayleigh layers."""
    pi = ew.stratify(A, group)
    variational = group is ew.GroupTag.TRIVIAL or A.shape[0] <= NONTRIVIAL_VARIATIONAL_MAX_N
    return (
        pi,
        ew.verify_offdiagonal_structure(A, pi, group),
        ew.kernel_for_partition(pi).dim,
        ew.rayleigh_constant(c, M, A).value,
        ew.rayleigh_variational(c, M, A).value if variational else None,
    )


def build(seed: int, workdir) -> Workload:
    rng = np.random.default_rng(seed)
    ops: list[Op] = []
    chains = []  # (op index, group name, blocks, matrix, coefficients, M)

    for N, count in MATRICES_PER_N.items():
        for gname, group in GROUPS:
            for _ in range(count):
                A, blocks = oracles.stratum_matrix(PATTERNS[N], gname, rng, perm=rng.permutation(N))
                pi = ew.IndexPartition(tuple(blocks))
                c = tuple(float(x) for x in rng.uniform(0.5, 2.0, N))
                M = N + int(rng.integers(0, 3))
                chains.append((len(ops), gname, blocks, A, c, M))
                ops.append(
                    Op(
                        f"chain/{gname}/N{N}",
                        lambda A=A, g=group, c=c, M=M: _chain(A, g, c, M),
                        lambda r, pi=pi, N=N: r[0] == pi
                        and r[1] is True
                        and r[2] == N - len(pi.blocks),
                    )
                )
                if gname == "trivial":
                    # on trivial-group strata the joint kernel of all Hadamard
                    # powers is the block zero-sum space, of dim N - blocks
                    ops.append(
                        Op(
                            f"simultaneous-kernel/N{N}",
                            lambda A=A: ew.simultaneous_kernel(A).dim,
                            lambda d, k=N - len(blocks): d == k,
                        )
                    )

    frng = np.random.default_rng(FAULT_SEED)
    for N in (24, 80):
        A, blocks = oracles.stratum_matrix(PATTERNS[N], "trivial", frng, unit_disc=False)
        ops.append(
            Op(
                f"simultaneous-kernel/unscaled/N{N}",
                lambda A=A: ew.simultaneous_kernel(A).dim,
                lambda d, k=N - len(blocks): d == k,
                known_fault=True,
            )
        )

    generated = []  # (op index, group name, blocks)
    for gname, group in GROUPS:
        order = rng.permutation(sum(GENERATE_SIZES))
        blocks = np.split(order, np.cumsum(GENERATE_SIZES)[:-1])
        pi = ew.IndexPartition(tuple(tuple(int(i) for i in b) for b in blocks))
        s = int(rng.integers(2**31))
        generated.append((len(ops), gname, sorted(pi.blocks)))
        ops.append(
            Op(
                f"generate-in-stratum/{gname}",
                lambda pi=pi, g=group, s=s: ew.generate_in_stratum(pi, g, seed=s),
            )
        )
    target = ew.IndexPartition(CLOSURE_TARGET)
    source = ew.IndexPartition(CLOSURE_SOURCE)
    for gname, group in GROUPS:
        s = int(rng.integers(2**31))
        ops.append(
            Op(
                f"closure-probe/{gname}",
                lambda g=group, s=s: ew.closure_probe(target, source, CLOSURE_STEPS, g, s),
                lambda rows: _closure_ok(rows, target, source),
            )
        )

    def deep_check(results) -> list[str]:
        problems = []
        for k, gname, blocks, A, c, M in chains:
            N = A.shape[0]
            if isinstance(results[k], Exception):
                continue  # already reported as a failed operation
            spectral, variational = results[k][3:]
            if not (np.isfinite(spectral) and spectral > 0):
                problems.append(f"{gname} N={N}: Rayleigh value {spectral}")
            elif gname == "trivial":
                # kernel = block zero-sum space: both routes and the direct
                # block-compressed problem must agree
                ref = oracles.rayleigh_blocks(c, M, A, blocks)
                for name, v in (("spectral", spectral), ("variational", variational)):
                    if abs(v - ref) > RAYLEIGH_RTOL * abs(ref):
                        problems.append(f"trivial N={N}: {name} {v} vs {ref}")
            elif variational is not None:
                if abs(variational - spectral) > NONTRIVIAL_RAYLEIGH_RTOL * spectral:
                    problems.append(f"{gname} N={N}: variational {variational} vs spectral {spectral}")
            if not oracles.blocks_are_strata(A, blocks, gname):
                problems.append(f"{gname} N={N}: built matrix is not in its stratum")
        for k, gname, blocks in generated:
            if isinstance(results[k], Exception):
                continue
            if not oracles.blocks_are_strata(results[k], blocks, gname):
                problems.append(f"generate_in_stratum {gname}: not in the stratum")
        return problems

    return Workload(ops, deep_check=deep_check)


def _closure_ok(rows, target, source) -> bool:
    """Path stays in the source stratum, distances shrink, the limit is the target."""
    distances = [d for d, _ in rows]
    return (
        all(label == source for _, label in rows[:-1])
        and rows[-1][1] == target
        and rows[-1][0] == 0.0
        and all(a > b for a, b in zip(distances, distances[1:]))
    )
