"""float-positivity: sampled positivity verdicts and Loewner checks at the sharp threshold.

For each N in 2..4 and three seeded radii rho, the seed draws positive
coefficients c_0..c_{N-1} and an exponent M in N..N+3. The trailing
coefficient sits exactly at c' = -1/C (the boundary, which the paper's
theorem says preserves positivity) and 5% beyond it. Each
preserves_positivity_check call tests one fixed-size block of sampled
matrices; lmi_check runs on matrices this benchmark samples itself. The
power-nonpreservation and Horn witness searches run at N = 2.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

import entrywise as ew
from entrywise import experiments

import oracles
from workloads import Op, Workload

NS = (2, 3, 4)
RHOS_PER_N = 3
BLOCK = 128  # matrices per preserves_positivity_check call
LMI_MATRICES = 10  # lmi_check calls per (N, rho)
BEYOND = 1.05
HORN_BUDGET = 2000
# At the boundary the search always spends its whole budget, so this fixes
# the cost of those calls: 100 geometric directions, then random draws.
HORN_BOUNDARY_BUDGET = 600
POWER_BUDGET = 2000


def _disc_samples(N: int, rho: float, count: int, rng: np.random.Generator):
    """PSD matrices with entries in the closed disc |z| <= rho, by numpy alone."""
    out = []
    for k in range(count):
        kind = k % 4
        if kind == 0:  # complex Wishart, rescaled
            B = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
            A = B @ B.conj().T
            A = A * (rho / np.max(np.abs(A)))
        elif kind == 1:  # rank one from the open cube
            u = rng.uniform(0.05, 1.0, N) * np.sqrt(rho)
            A = np.outer(u, u)
        elif kind == 2:  # correlation matrix times rho
            B = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
            A = B @ B.conj().T
            d = np.sqrt(np.real(np.diag(A)))
            A = rho * A / np.outer(d, d)
        else:  # rank one near the corner sqrt(rho) * (1, ..., 1)
            delta = 10.0 ** rng.uniform(-4, -1)
            u = np.sqrt(rho) * (1.0 - delta * np.arange(1, N + 1) / N)
            A = np.outer(u, u)
        out.append((A + A.conj().T) / 2)
    return out


def build(seed: int, workdir) -> Workload:
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    ops: list[Op] = []
    verdicts = []  # (op index, f, N, rho, at_boundary)

    for N in NS:
        for _ in range(RHOS_PER_N):
            rho_q = Fraction(rng.randint(1, 8), 4)
            rho = float(rho_q)
            c = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(N))
            M = N + rng.randint(0, 3)
            C = float(ew.threshold_constant(c, M, N, rho_q))
            for factor in (1.0, BEYOND):
                f = {j: float(cj) for j, cj in enumerate(c)}
                f[M] = -factor / C
                s = rng.randrange(2**31)
                verdicts.append((len(ops), f, N, rho, factor == 1.0))
                ops.append(
                    Op(
                        f"preserves/N{N}",
                        lambda f=f, N=N, rho=rho, s=s: ew.preserves_positivity_check(
                            f, N, rho, BLOCK, seed=s
                        ),
                        # the boundary polynomial preserves positivity
                        (lambda v: v.preserves and v.samples_checked == BLOCK)
                        if factor == 1.0
                        else (lambda v: True),
                    )
                )
            for A in _disc_samples(N, rho, LMI_MATRICES, nrng):
                ops.append(
                    Op(
                        f"lmi/N{N}",
                        lambda c=c, M=M, rho=rho, A=A: ew.lmi_check(c, M, rho, A),
                        lambda ok: ok is True,
                    )
                )

    searches = []  # (kind, op index, polynomial or config, rho)
    for _ in range(2):
        # Equal integer coefficients and M = N = 2, as in the experiment's
        # defaults: the deterministic geometric sweep then finds the witness
        # for every rho drawn. Lopsided or small coefficients leave it to the
        # random phase, whose length (and so the cost of the call) hangs on luck.
        k = Fraction(rng.randint(1, 9))
        c = (k, k)
        rho_q = Fraction(rng.randint(1, 8), 4)
        f = {0: float(k), 1: float(k), 2: -BEYOND / float(ew.threshold_constant(c, 2, 2, rho_q))}
        s = rng.randrange(2**31)
        searches.append(("horn", len(ops), f, float(rho_q)))
        ops.append(
            Op(
                "horn-witness/N2",
                lambda f=f, rho=float(rho_q), s=s: ew.horn_necessity_witness(
                    f, 2, rho, HORN_BUDGET, seed=s
                ),
                lambda w: w is not None,
            )
        )
        # At the boundary itself the polynomial preserves positivity: the
        # search must spend its whole budget and find nothing.
        boundary = dict(f)
        boundary[2] = -1 / float(ew.threshold_constant(c, 2, 2, rho_q))
        ops.append(
            Op(
                "horn-boundary/N2",
                lambda f=boundary, rho=float(rho_q), s=s: ew.horn_necessity_witness(
                    f, 2, rho, HORN_BOUNDARY_BUDGET, seed=s
                ),
                lambda w: w is None,
            )
        )
    for _ in range(2):
        cfg = experiments.PowerSearchConfig(
            N=2,
            alpha=rng.uniform(0.1, 0.9),
            rho=float(Fraction(rng.randint(1, 8), 4)),
            budget=POWER_BUDGET,
            seed=rng.randrange(2**31),
        )
        searches.append(("power", len(ops), cfg, cfg.rho))
        ops.append(
            Op(
                "power-nonpreservation/N2",
                lambda cfg=cfg: experiments.run_power_nonpreservation(cfg),
                lambda r: r[0]["witness_found"] is True,
            )
        )

    def deep_check(results) -> list[str]:
        problems = []
        for k, f, N, rho, boundary in verdicts:
            v = results[k]
            if isinstance(v, Exception) or v.witness is None:
                continue
            if boundary or not oracles.is_witness(f, v.witness, rho):
                problems.append(f"preserves_positivity_check witness at N={N} does not recheck")
        for kind, k, arg, rho in searches:
            if isinstance(results[k], Exception):
                continue
            if kind == "horn" and not oracles.is_witness(arg, results[k], rho):
                problems.append("Horn witness does not recheck")
            if kind == "power" and not oracles.is_power_witness(
                results[k][1].get("matrix"), arg.alpha, rho
            ):
                problems.append("power-nonpreservation witness does not recheck")
        return problems

    return Workload(ops, deep_check=deep_check)
