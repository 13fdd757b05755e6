"""Command-line interface.

Exit status: 0 on a completed run (witness-found outcomes included), 2 on
usage errors (argparse), 3 on precondition violations (bad or unreadable
matrix file, non-PSD input, inconsistent dimensions).  Reports go to stdout
and are byte-for-byte reproducible for a fixed seed; runtime and diagnostics
go to stderr.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

import numpy as np

from . import experiments, psd, strata
from .backends import Backend
from .matrixio import load_matrix_file, parse_partition, parse_vector
from .report import Report
from .threshold import (
    CoefficientTuple,
    admissible_verdict,
    empirical_sharpness,
    partial_constants,
    threshold_constant,
)

BACKENDS = {"exact": Backend.EXACT, "float": Backend.FLOAT}

GROUPS = {
    "trivial": strata.GroupTag.TRIVIAL,
    "s1": strata.GroupTag.UNIT_CIRCLE,
    "unit_circle": strata.GroupTag.UNIT_CIRCLE,
    "cx": strata.GroupTag.NONZERO_COMPLEX,
    "nonzero_complex": strata.GroupTag.NONZERO_COMPLEX,
}

PROBE_EPSILONS = (0.3, 0.1, 0.03, 0.01, 0.003, 0.001)


def _fractions(text: str) -> tuple:
    toks = [t.strip() for t in text.split(",") if t.strip()]
    if not toks:
        raise ValueError("empty coefficient list")
    try:
        return tuple(Fraction(t) for t in toks)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse coefficient list {text!r}") from None


def _number(text: str, backend: Backend):
    value = Fraction(text)
    return value if backend is Backend.EXACT else float(value)


def _common_inputs(args) -> dict:
    return {"seed": args.seed, "backend": args.backend}


def cmd_threshold(args) -> Report:
    backend = BACKENDS[args.backend]
    c = _fractions(args.c)
    if len(c) != args.N:
        raise ValueError(f"need N={args.N} coefficients, got {len(c)}")
    CoefficientTuple(c)  # positivity validation
    rho = _number(args.rho, backend)
    if backend is Backend.FLOAT:
        c = tuple(float(x) for x in c)
    constant = threshold_constant(c, args.M, args.N, rho)
    inputs = {"c": args.c, "M": args.M, "N": args.N, "rho": args.rho, **_common_inputs(args)}
    results = {"threshold_constant": constant}
    if args.M >= args.N:
        # the window chain is only defined once the monomial clears the dimension
        chain = partial_constants(c, args.M, args.N, rho)
        results["partial_chain"] = list(chain)
    if args.cprime is not None:
        cprime = _number(args.cprime, backend)
        inputs["cprime"] = args.cprime
        results["admissibility_bound"] = -1 / constant
        results["verdict"] = admissible_verdict(c, args.M, args.N, rho, cprime)
    if args.empirical:
        results["empirical_sharpness"] = empirical_sharpness(
            c, args.M, args.N, rho, args.grid
        )
        inputs["grid"] = args.grid
    return Report("threshold", inputs, {"tol": args.tol}, results)


def cmd_verify_identity(args) -> Report:
    cfg = experiments.IdentitySuiteConfig(
        which=args.which,
        max_n=args.max_n,
        max_m=args.max_m,
        trials=args.trials,
        seed=args.seed,
    )
    results = experiments.run_identity_suite(cfg)
    inputs = {
        "which": args.which,
        "max_n": args.max_n,
        "max_m": args.max_m,
        "trials": args.trials,
        **_common_inputs(args),
    }
    return Report("verify-identity", inputs, {"exact_arithmetic": True}, results)


def cmd_rayleigh(args) -> Report:
    c = tuple(float(x) for x in _fractions(args.c))
    M = args.M
    inputs = {"c": args.c, "M": M, **_common_inputs(args)}
    rho = None
    u = None
    if args.rank_one:
        u = np.array(parse_vector(args.rank_one, Backend.FLOAT), dtype=complex)
        A = np.outer(u, u.conj())
        inputs["rank_one"] = args.rank_one
    else:
        A, rho = load_matrix_file(args.matrix, Backend.FLOAT)
        inputs["matrix"] = args.matrix
    spectral = psd.rayleigh_constant(c, M, A, args.tol)
    variational = psd.rayleigh_variational(c, M, A, args.tol)
    values = {"spectral_radius": spectral.value, "variational": variational.value}
    if u is not None:
        values["rank_one_closed_form"] = psd.rayleigh_rank_one(c, M, u)
    vs = list(values.values())
    scale = max(1.0, max(abs(v) for v in vs))
    results = dict(values)
    results["max_relative_gap"] = (max(vs) - min(vs)) / scale
    witnesses = {}
    if args.probe_discontinuity:
        N = A.shape[0]
        probe_rho = float(rho) if rho is not None else float(np.max(np.abs(A)))
        probe = psd.discontinuity_probe(c, M, N, probe_rho, PROBE_EPSILONS)
        on_point = probe.on_point_value
        limit = probe.limit_estimate
        jump_scale = max(abs(on_point), abs(limit), 1e-300)
        results["probe_on_point"] = on_point
        results["probe_limit"] = limit
        results["probe_relative_jump"] = abs(limit - on_point) / jump_scale
        witnesses["probe_rows"] = [
            {"epsilon": e, "value": v} for e, v in probe.rows
        ]
    return Report("rayleigh", inputs, {"tol": args.tol}, results, witnesses)


def cmd_stratify(args) -> Report:
    A, _ = load_matrix_file(args.matrix, Backend.FLOAT)
    group = GROUPS[args.group]
    pi = strata.stratify(A, group, args.tol)
    offdiag = strata.verify_offdiagonal_structure(A, pi, group, args.tol)
    kernel = strata.simultaneous_kernel(A, args.tol)
    block_kernel = strata.kernel_for_partition(pi)
    results = {
        "partition": pi,
        "block_count": len(pi.blocks),
        "offdiagonal_ok": offdiag,
        "kernel_dim": kernel.dim,
        "block_kernel_dim": block_kernel.dim,
    }
    if kernel.dim == block_kernel.dim:
        results["kernel_max_angle"] = strata.subspace_max_angle(
            kernel.basis, block_kernel.basis
        )
    inputs = {"matrix": args.matrix, "group": args.group, **_common_inputs(args)}
    witnesses = {"kernel_basis": kernel.basis}
    return Report("stratify", inputs, {"tol": args.tol}, results, witnesses)


def cmd_experiment(args) -> Report:
    name = args.name
    witnesses: dict = {}
    inputs = {"name": name, **_common_inputs(args)}
    if name == "sharpness":
        c = _fractions(args.c)
        cfg = experiments.SharpnessConfig(
            c=c, M=args.M, N=args.N, rho=Fraction(args.rho), grid=args.grid
        )
        results = experiments.run_sharpness(cfg)
        inputs.update({"c": args.c, "M": args.M, "N": args.N, "rho": args.rho})
    elif name == "horn-witness":
        c = _fractions(args.c)
        cprime = float(Fraction(args.cprime)) if args.cprime is not None else None
        cfg = experiments.HornWitnessConfig(
            c=c,
            M=args.M,
            N=args.N,
            rho=Fraction(args.rho),
            cprime=cprime,
            budget=args.budget,
            seed=args.seed,
            tol=args.tol,
        )
        results, witnesses = experiments.run_horn_witness(cfg)
        inputs.update({"c": args.c, "M": args.M, "N": args.N, "rho": args.rho})
    elif name == "power-nonpreservation":
        cfg = experiments.PowerSearchConfig(
            N=args.N,
            alpha=args.alpha,
            rho=float(Fraction(args.rho)),
            budget=args.budget,
            seed=args.seed,
            tol=args.tol,
        )
        results, witnesses = experiments.run_power_nonpreservation(cfg)
        inputs.update({"N": args.N, "alpha": args.alpha, "rho": args.rho})
    elif name == "closure-probe":
        if not args.target or not args.source:
            raise ValueError("closure-probe needs --target and --source partitions")
        cfg = experiments.ClosureProbeConfig(
            target=parse_partition(args.target),
            source=parse_partition(args.source),
            group=GROUPS[args.group],
            steps=args.steps,
            seed=args.seed,
        )
        results = experiments.run_closure_probe(cfg)
        inputs.update(
            {"target": args.target, "source": args.source, "group": args.group}
        )
    else:  # cross-dim
        cfg = experiments.CrossDimConfig(
            draws=args.draws,
            max_N=args.max_n or 5,
            max_M=args.max_m or 10,
            seed=args.seed,
        )
        results = experiments.run_cross_dim(cfg)
        inputs.update({"draws": args.draws})
    return Report("experiment", inputs, {"tol": args.tol}, results, witnesses)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--tol", type=float, default=1e-9)
    common.add_argument("--json", action="store_true")
    common.add_argument("--backend", choices=("exact", "float"), default="float")

    parser = argparse.ArgumentParser(
        prog="entrywise",
        description="Entrywise positivity calculus: thresholds, identities, "
        "Rayleigh quotients, and PSD stratification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("threshold", parents=[common], help="sharp threshold constant")
    p.add_argument("--c", required=True, help="coefficients c_0,..,c_{N-1} ascending")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--rho", required=True)
    p.add_argument("--cprime", default=None, help="top coefficient to classify")
    p.add_argument("--empirical", action="store_true", help="grid sharpness estimate")
    p.add_argument("--grid", type=int, default=200)
    p.set_defaults(handler=cmd_threshold)

    p = sub.add_parser(
        "verify-identity", parents=[common], help="exact determinantal identity sweep"
    )
    p.add_argument("--which", required=True, choices=experiments.IDENTITY_KINDS)
    p.add_argument("--max-n", type=int, default=0, help="0 means per-identity default")
    p.add_argument("--max-m", type=int, default=0, help="0 means per-identity default")
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(handler=cmd_verify_identity)

    p = sub.add_parser("rayleigh", parents=[common], help="extreme critical value")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--matrix", help="matrix JSON file")
    src.add_argument("--rank-one", help="vector u as comma-separated a+bi literals")
    p.add_argument("--c", required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--probe-discontinuity", action="store_true")
    p.set_defaults(handler=cmd_rayleigh)

    p = sub.add_parser("stratify", parents=[common], help="G-orbit stratification")
    p.add_argument("--matrix", required=True)
    p.add_argument("--group", choices=sorted(GROUPS), default="trivial")
    p.set_defaults(handler=cmd_stratify)

    p = sub.add_parser("experiment", parents=[common], help="named experiment driver")
    p.add_argument("name", choices=experiments.EXPERIMENT_NAMES)
    p.add_argument("--c", default="1,1")
    p.add_argument("--M", type=int, default=2)
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--rho", default="1")
    p.add_argument("--cprime", default=None)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--budget", type=int, default=100000)
    p.add_argument("--draws", type=int, default=100)
    p.add_argument("--max-n", type=int, default=0)
    p.add_argument("--max-m", type=int, default=0)
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--target", default=None, help="coarser partition, e.g. 1,2|3")
    p.add_argument("--source", default=None, help="finer partition, e.g. 1|2|3")
    p.add_argument("--group", choices=sorted(GROUPS), default="trivial")
    p.set_defaults(handler=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report = args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    report.runtime_s = time.perf_counter() - start
    rendered = report.render_json() if args.json else report.render_text()
    sys.stdout.write(rendered + "\n")
    print(f"runtime_s {report.runtime_s:.6f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
