"""Experiment drivers: randomized verification sweeps behind the CLI.

Each driver takes a frozen config dataclass and returns a plain dict of
results (plus optional witness matrices) ready to drop into a Report.
Randomness is seeded; identical configs reproduce identical output.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import spectral, strata
from .backends import solve_exact
from .hadamard import (
    PencilSpec,
    cauchy_binet_lhs,
    cauchy_binet_rhs,
    decomposition_residual,
    pencil_det_closed_form,
    pencil_det_direct,
    vandermonde_matrix,
    vandermonde_solve_moments,
)
from .samplers import (
    random_fraction,
    random_gaussian_rational_vector,
    random_positive_fraction,
)
from .threshold import (
    cross_dim_inequality_check,
    empirical_sharpness,
    horn_necessity_witness,
    partial_constants,
    threshold_constant,
)

IDENTITY_KINDS = ("pencil", "cauchy-binet", "decomposition", "moments")

EXPERIMENT_NAMES = (
    "sharpness",
    "horn-witness",
    "power-nonpreservation",
    "closure-probe",
    "cross-dim",
)


@dataclass(frozen=True)
class IdentitySuiteConfig:
    which: str
    max_n: int = 0  # 0 -> per-identity default
    max_m: int = 0
    trials: int = 50
    seed: int = 0


def _vec(rng: random.Random, n: int):
    return random_gaussian_rational_vector(rng, n)


def run_identity_suite(cfg: IdentitySuiteConfig) -> dict:
    """Exact-backend identity sweep; returns case/failure counts.

    Every comparison is over Gaussian rationals, so a single failure would be
    an algebra bug, not numerical noise.
    """
    if cfg.which not in IDENTITY_KINDS:
        raise ValueError(f"unknown identity {cfg.which!r}; choose from {IDENTITY_KINDS}")
    if cfg.trials < 1:
        raise ValueError("trials must be positive")
    rng = random.Random(cfg.seed)
    cases = 0
    failures = 0
    counterexample: Optional[dict] = None

    def record_failure(detail: dict) -> None:
        nonlocal failures, counterexample
        failures += 1
        if counterexample is None:
            counterexample = detail

    if cfg.which == "pencil":
        max_n = cfg.max_n or 4
        for N in range(1, max_n + 1):
            for M in range(N, (cfg.max_m or N + 5) + 1):
                for _ in range(cfg.trials):
                    u = _vec(rng, N)
                    v = _vec(rng, N)
                    coeffs = tuple(random_positive_fraction(rng) for _ in range(N))
                    spec = PencilSpec(random_fraction(rng), coeffs, M)
                    cases += 1
                    lhs = pencil_det_direct(spec, u, v)
                    rhs = pencil_det_closed_form(spec, u, v)
                    if lhs != rhs:
                        record_failure(
                            {"N": N, "M": M, "t": str(spec.t), "u": [str(x) for x in u]}
                        )
    elif cfg.which == "cauchy-binet":
        max_n = cfg.max_n or 4
        max_m = cfg.max_m or 6
        for N in range(1, max_n + 1):
            for _ in range(cfg.trials):
                m = rng.randint(1, max_m)
                exponents = rng.sample(range(0, 10), m)
                coeffs = {n: random_fraction(rng, nonzero=True) for n in exponents}
                u = _vec(rng, N)
                v = _vec(rng, N)
                cases += 1
                lhs = cauchy_binet_lhs(coeffs, u, v)
                rhs = cauchy_binet_rhs(coeffs, u, v)
                if lhs != rhs:
                    record_failure({"N": N, "exponents": sorted(exponents)})
    elif cfg.which == "decomposition":
        max_n = cfg.max_n or 5
        max_m = cfg.max_m or 9
        for N in range(1, max_n + 1):
            for M in range(0, max_m + 1):
                for trial in range(cfg.trials):
                    rows = [_vec(rng, N) for _ in range(N)]
                    if N >= 2 and trial % 5 == 4:
                        rows[1] = list(rows[0])  # exercise repeated-row degeneracy
                    cases += 1
                    residual = decomposition_residual(rows, M)
                    if any(x != 0 for row in residual for x in row):
                        record_failure({"N": N, "M": M})
    else:  # moments
        max_n = cfg.max_n or 4
        for N in range(1, max_n + 1):
            for M in range(N, (cfg.max_m or N + 5) + 1):
                for _ in range(cfg.trials):
                    u = random_gaussian_rational_vector(rng, N, distinct=True)
                    cases += 1
                    closed = vandermonde_solve_moments(u, M)
                    V = vandermonde_matrix(u)
                    target = [x**M for x in u]
                    direct = solve_exact(V, target)
                    if list(closed) != list(direct):
                        record_failure({"N": N, "M": M, "u": [str(x) for x in u]})

    out = {"which": cfg.which, "cases": cases, "failures": failures}
    if counterexample is not None:
        out["counterexample"] = counterexample
    return out


@dataclass(frozen=True)
class SharpnessConfig:
    c: tuple = (Fraction(1), Fraction(1))
    M: int = 2
    N: int = 2
    rho: object = 1
    grid: int = 200


def run_sharpness(cfg: SharpnessConfig) -> dict:
    closed = float(threshold_constant(cfg.c, cfg.M, cfg.N, cfg.rho))
    empirical = empirical_sharpness(cfg.c, cfg.M, cfg.N, cfg.rho, cfg.grid)
    gap = closed - empirical
    return {
        "closed_form": closed,
        "empirical": empirical,
        "absolute_gap": gap,
        "relative_gap": gap / closed if closed else 0.0,
        "grid": cfg.grid,
    }


@dataclass(frozen=True)
class HornWitnessConfig:
    c: tuple = (Fraction(1), Fraction(1))
    M: int = 2
    N: int = 2
    rho: object = 1
    cprime: Optional[float] = None  # None -> 5% beyond the sharp threshold
    budget: int = 20000
    seed: int = 0
    tol: float = 1e-9


def run_horn_witness(cfg: HornWitnessConfig) -> tuple[dict, dict]:
    constant = float(threshold_constant(cfg.c, cfg.M, cfg.N, cfg.rho))
    cprime = cfg.cprime if cfg.cprime is not None else -1.05 / constant
    f = {j: float(cj) for j, cj in enumerate(cfg.c)}
    f[cfg.M] = f.get(cfg.M, 0.0) + cprime
    witness = horn_necessity_witness(f, cfg.N, cfg.rho, cfg.budget, cfg.tol, cfg.seed)
    results = {
        "threshold_constant": constant,
        "admissibility_bound": -1.0 / constant,
        "cprime": cprime,
        "witness_found": witness is not None,
        "budget": cfg.budget,
    }
    witnesses = {} if witness is None else {"matrix": witness}
    return results, witnesses


@dataclass(frozen=True)
class PowerSearchConfig:
    """Search P_{N+1}((0, rho)) for A with the entrywise alpha power not positive semidefinite."""

    N: int = 2
    alpha: float = 0.5
    rho: float = 1.0
    budget: int = 100000
    seed: int = 0
    tol: float = 1e-9


def _power_violation(A: np.ndarray, alpha: float, tol: float) -> Optional[float]:
    w_min, scale = spectral.min_eigenvalue(spectral.hermitian_part(np.power(A, alpha)))
    return float(w_min) if w_min < -tol * scale else None


def _power_candidates(n: int, rho: float, seed: int):
    """The structured sweep of run_power_nonpreservation, then seeded random draws."""
    thetas = [
        np.arange(1.0, n + 1.0),
        1.5 ** np.arange(n),
        np.linspace(1.0, 2.0, n),
    ]
    for theta in thetas:
        for eps in (0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005):
            B = 1.0 + eps * np.outer(theta, theta)
            yield (0.9 * rho / float(B.max())) * B
    rng = np.random.default_rng(seed)
    while True:
        B = rng.uniform(0.05, 1.0, size=(n, n))
        G = B @ B.T
        yield (0.9 * rho / float(G.max())) * G


def run_power_nonpreservation(cfg: PowerSearchConfig) -> tuple[dict, dict]:
    """Entrywise x^alpha, alpha in (N-2, N-1), preserves PSD on P_N((0,rho))
    but not on P_{N+1}((0,rho)); find a dimension-(N+1) counterexample.

    A structured family scale * (all-ones + eps theta theta^T) is swept first:
    for x orthogonal to the low Hadamard powers of theta the alpha-power
    quadratic form is dominated by a negative binomial-series term.  Random
    positive-entry Gram matrices follow until the budget runs out.
    """
    if cfg.N < 2:
        raise ValueError("N must be at least 2")
    if not (cfg.N - 2 < cfg.alpha < cfg.N - 1):
        raise ValueError(f"alpha must lie in ({cfg.N - 2}, {cfg.N - 1})")
    if cfg.rho <= 0:
        raise ValueError("rho must be positive")
    n = cfg.N + 1
    results = {"witness_found": False, "trials": 0, "alpha": cfg.alpha, "dimension": n}
    for A in itertools.islice(_power_candidates(n, cfg.rho, cfg.seed), max(cfg.budget, 0)):
        results["trials"] += 1
        bad = _power_violation(A, cfg.alpha, cfg.tol)
        if bad is not None:
            results.update(witness_found=True, min_eigenvalue=bad)
            return results, {"matrix": A}
    return results, {}


@dataclass(frozen=True)
class ClosureProbeConfig:
    target: strata.IndexPartition
    source: strata.IndexPartition
    group: strata.GroupTag = strata.GroupTag.TRIVIAL
    steps: int = 8
    seed: int = 0


def run_closure_probe(cfg: ClosureProbeConfig) -> dict:
    rows = strata.closure_probe(cfg.target, cfg.source, cfg.steps, cfg.group, cfg.seed)
    path_rows = [{"distance": d, "stratum": label} for d, label in rows]
    return {
        "rows": path_rows,
        "path_in_source": all(label == cfg.source for _, label in rows[:-1]),
        "limit_in_target": rows[-1][1] == cfg.target,
    }


@dataclass(frozen=True)
class CrossDimConfig:
    draws: int = 100
    max_N: int = 5
    max_M: int = 10
    seed: int = 0


def run_cross_dim(cfg: CrossDimConfig) -> dict:
    """Random sweep of the monotone chain and the cross-dimension inequality.

    Exact rational arithmetic throughout, so 'strictly increasing' is a real
    strict comparison and a violation count of zero is meaningful.
    """
    if cfg.max_N < 2 or cfg.max_M < cfg.max_N:
        raise ValueError("need max_N >= 2 and max_M >= max_N")
    rng = random.Random(cfg.seed)
    chain_violations = 0
    cross_violations = 0
    min_ratio = None
    for _ in range(cfg.draws):
        N = rng.randint(2, cfg.max_N)
        M = rng.randint(N, cfg.max_M)
        c = tuple(
            Fraction(rng.randint(1, 30), rng.randint(1, 10)) for _ in range(N)
        )
        rho = Fraction(rng.randint(1, 20), rng.randint(1, 10))
        chain = partial_constants(c, M, N, rho)
        total = threshold_constant(c, M, N, rho)
        ok_chain = (
            all(chain[i] < chain[i + 1] for i in range(N - 1))
            and chain[0] == rho ** (M - N + 1) / c[N - 1]
            and chain[-1] == total
        )
        if not ok_chain:
            chain_violations += 1
        if not cross_dim_inequality_check(c, M, N, rho):
            cross_violations += 1
        derived = tuple(k * c[k] for k in range(1, N))
        lower = M * threshold_constant(derived, M - 1, N - 1, rho)
        if lower > 0:
            ratio = float(total / lower)
            min_ratio = ratio if min_ratio is None else min(min_ratio, ratio)
    return {
        "draws": cfg.draws,
        "chain_violations": chain_violations,
        "cross_dim_violations": cross_violations,
        "min_ratio": min_ratio,
    }
