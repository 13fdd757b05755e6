"""Command-line interface.

Exit status: 0 on a completed run (witness-found outcomes included), 2 on
usage errors (argparse), 3 on precondition violations (bad or unreadable
matrix file, non-PSD input, inconsistent dimensions, a number too large for
a float, a NaN, infinite or negative --tol).  Reports go to stdout and are
byte-for-byte reproducible for a fixed seed; runtime and diagnostics go to
stderr.

``main(argv)`` may also be called in-process, with ``argv`` in place of
``sys.argv[1:]``.  Each command is parsed once, by its subcommand's parser;
help and usage errors are argparse's own, unchanged.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import time
from fractions import Fraction

import numpy as np

from . import experiments, psd, strata
from .backends import Backend
from .matrixio import load_matrix_file, parse_partition, parse_vector
from .report import Report
from .threshold import _verdict, empirical_sharpness, partial_constants, threshold_constant

BACKENDS = {"exact": Backend.EXACT, "float": Backend.FLOAT}

GROUPS = {
    "trivial": strata.GroupTag.TRIVIAL,
    "s1": strata.GroupTag.UNIT_CIRCLE,
    "unit_circle": strata.GroupTag.UNIT_CIRCLE,
    "cx": strata.GroupTag.NONZERO_COMPLEX,
    "nonzero_complex": strata.GroupTag.NONZERO_COMPLEX,
}

PROBE_EPSILONS = (0.3, 0.1, 0.03, 0.01, 0.003, 0.001)


def _fraction(text: str) -> Fraction:
    """A fraction-valued argument; a zero denominator is a ValueError like any bad literal."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse number {text!r}") from None


def _fractions(text: str) -> tuple:
    toks = [t.strip() for t in text.split(",") if t.strip()]
    if not toks:
        raise ValueError("empty coefficient list")
    return tuple(_fraction(t) for t in toks)


def _number(text: str, backend: Backend):
    value = _fraction(text)
    return value if backend is Backend.EXACT else float(value)


def _common_inputs(args) -> dict:
    return {"seed": args.seed, "backend": args.backend}


def cmd_threshold(args) -> Report:
    backend = BACKENDS[args.backend]
    c = _fractions(args.c)
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
        bound = -1 / constant
        results["admissibility_bound"] = bound
        results["verdict"] = _verdict(cprime, bound)
    if args.empirical:
        results["empirical_sharpness"] = empirical_sharpness(
            c, args.M, args.N, rho, args.grid
        )
        inputs["grid"] = args.grid
    return Report("threshold", inputs, {"tol": args.tol}, results)


def cmd_verify_identity(args) -> Report:
    cfg = experiments.IdentitySuiteConfig(
        which=args.which, max_n=args.max_n, max_m=args.max_m, trials=args.trials, seed=args.seed
    )
    results = experiments.run_identity_suite(cfg)
    inputs = {**dataclasses.asdict(cfg), "backend": args.backend}
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


def _partition(text):
    if not text:
        raise ValueError("closure-probe needs --target and --source partitions")
    return parse_partition(text)


# Experiment config fields whose option needs parsing; every other field takes
# the parsed option of its own name as it is.
_EXPERIMENT_READERS = {
    "c": _fractions,
    "rho": _fraction,
    "cprime": lambda text: None if text is None else float(_fraction(text)),
    "target": _partition,
    "source": _partition,
    "group": GROUPS.__getitem__,
}


def cmd_experiment(args) -> Report:
    config, run, echoed = experiments.EXPERIMENTS[args.name]
    cfg = config(**{
        f.name: _EXPERIMENT_READERS.get(f.name, lambda value: value)(getattr(args, f.name))
        for f in dataclasses.fields(config)
    })
    results, witnesses = run(cfg)
    inputs = {"name": args.name, **_common_inputs(args), **{k: getattr(args, k) for k in echoed}}
    return Report("experiment", inputs, {"tol": args.tol}, results, witnesses)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built at the first call and shared by every later one."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple:
    """The top-level parser and its subcommand parsers by name, built once."""
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

    return parser, sub.choices


def _parse(argv) -> argparse.Namespace:
    """The namespace of one command, parsed once.

    The top-level parser hands every token after a subcommand name on to that
    subcommand's parser, so a command that starts with one goes to that parser
    directly; tokens it leaves over are the top-level parser's error, as in
    ``parse_args``.  Anything else (no token, an unknown subcommand, an option
    first) goes through the top-level parser.
    """
    parser, subparsers = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in subparsers:
        return parser.parse_args(argv)
    args, extras = subparsers[argv[0]].parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    start = time.perf_counter()
    try:
        if not 0 <= args.tol < float("inf"):
            raise ValueError(f"--tol must be finite and non-negative, got {args.tol}")
        report = args.handler(args)
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    report.runtime_s = time.perf_counter() - start
    rendered = report.render_json() if args.json else report.render_text()
    sys.stdout.write(rendered + "\n")
    print(f"runtime_s {report.runtime_s:.6f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
