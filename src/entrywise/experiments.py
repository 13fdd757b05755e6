"""Experiment drivers: randomized verification sweeps behind the CLI.

Each `entrywise experiment` driver takes a frozen config dataclass and
returns (results, witnesses), two plain dicts ready to drop into a Report.
Randomness is seeded; identical configs reproduce identical output.  A new
experiment is one config, one driver and one entry in `EXPERIMENTS`; the CLI
fills each config field from the option of the same name.

Each exact identity of `run_identity_suite` is one case generator in its
which -> generator table; a new identity is a new generator and table entry.
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
from .samplers import _disc_radius, random_fraction, random_positive_fraction
from .samplers import random_gaussian_rational_vector as _vec
from .threshold import (
    _cross_dim_sides,
    empirical_sharpness,
    horn_necessity_witness,
    partial_constants,
    threshold_constant,
)

@dataclass(frozen=True)
class IdentitySuiteConfig:
    which: str
    max_n: int = 0  # 0 -> per-identity default
    max_m: int = 0
    trials: int = 50
    seed: int = 0


def _pencil_sizes(cfg: IdentitySuiteConfig):
    """(N, M) of each pencil or moments case: N <= 4 and M = N..N+5 by default."""
    max_n = cfg.max_n or 4
    if 0 < cfg.max_m < max_n:
        raise ValueError(f"{cfg.which} needs max_m >= max_n = {max_n}, got max_m = {cfg.max_m}")
    for N in range(1, max_n + 1):
        for M in range(N, (cfg.max_m or N + 5) + 1):
            yield from itertools.repeat((N, M), cfg.trials)


def _pencil_cases(cfg: IdentitySuiteConfig, rng: random.Random):
    for N, M in _pencil_sizes(cfg):
        u, v = _vec(rng, N), _vec(rng, N)
        coeffs = tuple(random_positive_fraction(rng) for _ in range(N))
        spec = PencilSpec(random_fraction(rng), coeffs, M)
        lhs, rhs = pencil_det_direct(spec, u, v), pencil_det_closed_form(spec, u, v)
        yield lhs, rhs, lambda: {"N": N, "M": M, "t": str(spec.t), "u": [str(x) for x in u]}


def _cauchy_binet_cases(cfg: IdentitySuiteConfig, rng: random.Random):
    max_m = cfg.max_m or 6
    if max_m > 10:
        raise ValueError(f"cauchy-binet needs max_m <= 10 (exponents come from 0..9), got {max_m}")
    for N in range(1, (cfg.max_n or 4) + 1):
        for _ in range(cfg.trials):
            exponents = rng.sample(range(10), rng.randint(1, max_m))
            coeffs = {n: random_fraction(rng, nonzero=True) for n in exponents}
            u, v = _vec(rng, N), _vec(rng, N)
            lhs, rhs = cauchy_binet_lhs(coeffs, u, v), cauchy_binet_rhs(coeffs, u, v)
            yield lhs, rhs, lambda: {"N": N, "exponents": sorted(exponents)}


def _decomposition_cases(cfg: IdentitySuiteConfig, rng: random.Random):
    for N in range(1, (cfg.max_n or 5) + 1):
        for M in range(0, (cfg.max_m or 9) + 1):
            for trial in range(cfg.trials):
                rows = [_vec(rng, N) for _ in range(N)]
                if N >= 2 and trial % 5 == 4:
                    rows[1] = list(rows[0])  # exercise repeated-row degeneracy
                yield decomposition_residual(rows, M), [[0] * N] * N, lambda: {"N": N, "M": M}


def _moments_cases(cfg: IdentitySuiteConfig, rng: random.Random):
    for N, M in _pencil_sizes(cfg):
        u = _vec(rng, N, distinct=True)
        closed = list(vandermonde_solve_moments(u, M))
        direct = list(solve_exact(vandermonde_matrix(u), [x**M for x in u]))
        yield closed, direct, lambda: {"N": N, "M": M, "u": [str(x) for x in u]}


# which -> case generator.  A generator draws each case from the suite's rng and
# yields (left side, right side, counterexample), where counterexample() builds
# the case's report dict; the suite calls it before drawing the next case.
_IDENTITY_CASES = {
    "pencil": _pencil_cases,
    "cauchy-binet": _cauchy_binet_cases,
    "decomposition": _decomposition_cases,
    "moments": _moments_cases,
}
IDENTITY_KINDS = tuple(_IDENTITY_CASES)


def run_identity_suite(cfg: IdentitySuiteConfig) -> dict:
    """Exact-backend identity sweep; returns case/failure counts.

    Every comparison is over Gaussian rationals, so a single failure would be
    an algebra bug, not numerical noise.
    """
    if cfg.which not in _IDENTITY_CASES:
        raise ValueError(f"unknown identity {cfg.which!r}; choose from {IDENTITY_KINDS}")
    if cfg.trials < 1:
        raise ValueError("trials must be positive")
    if cfg.max_n < 0 or cfg.max_m < 0:
        raise ValueError("max_n and max_m must be non-negative; 0 means the per-identity default")
    out = {"which": cfg.which, "cases": 0, "failures": 0}
    for lhs, rhs, counterexample in _IDENTITY_CASES[cfg.which](cfg, random.Random(cfg.seed)):
        out["cases"] += 1
        if lhs != rhs:
            out["failures"] += 1
            if out["failures"] == 1:
                out["counterexample"] = counterexample()
    return out


@dataclass(frozen=True)
class SharpnessConfig:
    c: tuple
    M: int
    N: int
    rho: object
    grid: int


def run_sharpness(cfg: SharpnessConfig) -> tuple[dict, dict]:
    closed = float(threshold_constant(cfg.c, cfg.M, cfg.N, cfg.rho))
    empirical = empirical_sharpness(cfg.c, cfg.M, cfg.N, cfg.rho, cfg.grid)
    gap = closed - empirical
    results = {
        "closed_form": closed,
        "empirical": empirical,
        "absolute_gap": gap,
        "relative_gap": gap / closed if closed else 0.0,
        "grid": cfg.grid,
    }
    return results, {}


@dataclass(frozen=True)
class HornWitnessConfig:
    c: tuple
    M: int
    N: int
    rho: object
    cprime: Optional[float]  # None -> 5% beyond the sharp threshold
    budget: int
    seed: int
    tol: float


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
    rho: object = 1.0
    budget: int = 100000
    seed: int = 0
    tol: float = 1e-9


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
    rho = _disc_radius(cfg.N, cfg.rho)  # a Fraction that underflows to 0.0 fails here
    if cfg.budget < 0:
        raise ValueError("budget must be non-negative")
    n = cfg.N + 1
    results = {"witness_found": False, "trials": 0, "alpha": cfg.alpha, "dimension": n}
    for A in itertools.islice(_power_candidates(n, rho, cfg.seed), cfg.budget):
        results["trials"] += 1
        w_min, _, bad = spectral.psd_failures(np.power(A, cfg.alpha), cfg.tol)
        if bad:
            results.update(witness_found=True, min_eigenvalue=float(w_min))
            return results, {"matrix": A}
    return results, {}


@dataclass(frozen=True)
class ClosureProbeConfig:
    target: strata.IndexPartition
    source: strata.IndexPartition
    group: strata.GroupTag
    steps: int
    seed: int


def run_closure_probe(cfg: ClosureProbeConfig) -> tuple[dict, dict]:
    rows = strata.closure_probe(cfg.target, cfg.source, cfg.steps, cfg.group, cfg.seed)
    results = {
        "rows": [{"distance": d, "stratum": label} for d, label in rows],
        "path_in_source": all(label == cfg.source for _, label in rows[:-1]),
        "limit_in_target": rows[-1][1] == cfg.target,
    }
    return results, {}


@dataclass(frozen=True)
class CrossDimConfig:
    draws: int
    max_n: int  # 0 -> 5
    max_m: int  # 0 -> 10
    seed: int


def run_cross_dim(cfg: CrossDimConfig) -> tuple[dict, dict]:
    """Random sweep of the monotone chain and the cross-dimension inequality.

    Exact rational arithmetic throughout, so 'strictly increasing' is a real
    strict comparison and a violation count of zero is meaningful.
    """
    max_n, max_m = cfg.max_n or 5, cfg.max_m or 10
    if max_n < 2 or max_m < max_n:
        raise ValueError("need max_n >= 2 and max_m >= max_n")
    if cfg.draws < 0:
        raise ValueError("draws must be non-negative")
    rng = random.Random(cfg.seed)
    chain_violations = 0
    cross_violations = 0
    min_ratio = None
    for _ in range(cfg.draws):
        N = rng.randint(2, max_n)
        M = rng.randint(N, max_m)
        c = tuple(
            Fraction(rng.randint(1, 30), rng.randint(1, 10)) for _ in range(N)
        )
        rho = Fraction(rng.randint(1, 20), rng.randint(1, 10))
        chain = partial_constants(c, M, N, rho)
        total, lower = _cross_dim_sides(c, M, N, rho)
        ok_chain = (
            all(chain[i] < chain[i + 1] for i in range(N - 1))
            and chain[0] == rho ** (M - N + 1) / c[N - 1]
            and chain[-1] == total
        )
        if not ok_chain:
            chain_violations += 1
        if total < lower:
            cross_violations += 1
        if lower > 0:
            ratio = float(total / lower)
            min_ratio = ratio if min_ratio is None else min(min_ratio, ratio)
    results = {
        "draws": cfg.draws,
        "chain_violations": chain_violations,
        "cross_dim_violations": cross_violations,
        "min_ratio": min_ratio,
    }
    return results, {}


# name -> (config class, driver, the CLI options the report echoes under inputs)
EXPERIMENTS = {
    "sharpness": (SharpnessConfig, run_sharpness, ("c", "M", "N", "rho")),
    "horn-witness": (HornWitnessConfig, run_horn_witness, ("c", "M", "N", "rho")),
    "power-nonpreservation": (PowerSearchConfig, run_power_nonpreservation, ("N", "alpha", "rho")),
    "closure-probe": (ClosureProbeConfig, run_closure_probe, ("target", "source", "group")),
    "cross-dim": (CrossDimConfig, run_cross_dim, ("draws",)),
}
EXPERIMENT_NAMES = tuple(EXPERIMENTS)
