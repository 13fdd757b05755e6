"""exact-identities: the four Schur-polynomial identity families, compared with ==.

Inputs are seeded Gaussian rationals with numerators in [-9, 9] and
denominators in [1, 9]. The shape of the case list (families, N, M, number
of exponents) is fixed; only the values depend on the seed, so the cost of a
pass changes little between seeds.
"""

from __future__ import annotations

import random
from fractions import Fraction

import entrywise as ew
from entrywise import experiments

import oracles
from workloads import Op, Workload

# Cases per family at each N: 100 operations a pass with the suite calls.
# Most cases sit at N = 3, so that the median operation is the middle of one
# cluster of similar cases, not a boundary between two; one case per family
# at N = 6 (a decomposition case there alone costs ~300 ms).
CASES_PER_N = {1: 3, 2: 5, 3: 10, 4: 3, 5: 2, 6: 1}
FAMILIES = ("pencil", "cauchy-binet", "decomposition", "moments")
# Identity-suite calls per pass: small configs of experiments.run_identity_suite.
SUITE_MAX_N = 2
# Number of cases run_identity_suite makes for max_n=2, trials=1 and default
# sizes, counted from its documented loops.
SUITE_CASES = {"pencil": 12, "cauchy-binet": 2, "decomposition": 20, "moments": 12}
SYMPY_MAX_N = 3


def build(seed: int, workdir) -> Workload:
    rng = random.Random(seed)

    def frac(nonzero=False, positive=False):
        lo = 1 if positive else -9
        num = rng.randint(lo, 9)
        while nonzero and num == 0:
            num = rng.randint(lo, 9)
        return Fraction(num, rng.randint(1, 9))

    def vec(n, distinct=False):
        out = []
        while len(out) < n:
            z = ew.GaussianRational(frac(), frac())
            if not (distinct and z in out):
                out.append(z)
        return out

    ops: list[Op] = []
    pencils = []  # (spec, u, v) for the deep checks
    moments = []  # (u, M)
    for N, count in CASES_PER_N.items():
        for i in range(count):
            M = N + i % 4
            spec = ew.PencilSpec(frac(nonzero=True), tuple(frac(positive=True) for _ in range(N)), M)
            u, v = vec(N), vec(N)
            pencils.append((spec, u, v))
            ops.append(
                Op(
                    f"pencil/N{N}",
                    lambda s=spec, u=u, v=v: ew.pencil_det_direct(s, u, v)
                    == ew.pencil_det_closed_form(s, u, v),
                    _is_true,
                )
            )

            exponents = rng.sample(range(10), N + i % 3)
            coeffs = {e: frac(nonzero=True) for e in exponents}
            u, v = vec(N), vec(N)
            ops.append(
                Op(
                    f"cauchy-binet/N{N}",
                    lambda c=coeffs, u=u, v=v: ew.cauchy_binet_lhs(c, u, v)
                    == ew.cauchy_binet_rhs(c, u, v),
                    _is_true,
                )
            )

            rows = [vec(N) for _ in range(N)]
            if N >= 2 and i % 2:
                rows[1] = list(rows[0])  # repeated rows: the degenerate case
            ops.append(
                Op(
                    f"decomposition/N{N}",
                    lambda r=rows, M=M: all(
                        x == 0 for row in ew.decomposition_residual(r, M) for x in row
                    ),
                    _is_true,
                )
            )

            u = vec(N, distinct=True)
            V = [[x**j for j in range(N)] for x in u]
            target = [x**M for x in u]
            moments.append((u, M))
            ops.append(
                Op(
                    f"moments/N{N}",
                    lambda u=u, M=M, V=V, t=target: list(ew.vandermonde_solve_moments(u, M))
                    == ew.solve_exact(V, t),
                    _is_true,
                )
            )

    for which in FAMILIES:
        cfg = experiments.IdentitySuiteConfig(
            which=which, max_n=SUITE_MAX_N, trials=1, seed=rng.randrange(2**31)
        )
        ops.append(
            Op(
                f"suite/{which}",
                lambda cfg=cfg: experiments.run_identity_suite(cfg),
                lambda r, which=which: r["failures"] == 0 and r["cases"] == SUITE_CASES[which],
            )
        )

    rhos = [frac(positive=True) for _ in pencils]

    def deep_check(results) -> list[str]:
        problems = []
        for k, (spec, u, v) in enumerate(pencils):
            N = len(u)
            # the sharp constant itself, against the closed form
            got = ew.threshold_constant(spec.coeffs, spec.M, N, rhos[k])
            if got != oracles.threshold_constant(spec.coeffs, spec.M, N, rhos[k]):
                problems.append(f"threshold_constant N={N} M={spec.M}: {got}")
            if N <= SYMPY_MAX_N and k % 2 == 0:
                direct = ew.pencil_det_direct(spec, u, v)
                ref = oracles.sympy_pencil_det(spec.t, spec.coeffs, spec.M, u, v)
                if not oracles.sympy_equal(ref, direct):
                    problems.append(f"pencil_det_direct N={N} M={spec.M} != sympy det")
        for u, M in moments:
            s = ew.vandermonde_solve_moments(u, M)
            if not oracles.vandermonde_residual_zero(u, s, M):
                problems.append(f"V s != u^(o{M}) at N={len(u)}")
        return problems

    return Workload(ops, deep_check=deep_check)


def _is_true(result) -> bool:
    return result is True
