"""cli-session: in-process entrywise.cli.main over a fixed list of commands.

The list covers all five subcommands and every experiment, both backends,
and text and --json output. The seed draws the coefficients, radii, vectors,
search seeds and the matrices written to JSON files at set-up. An operation
is one command: parse, run, render, with stdout and stderr captured.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np

from entrywise import cli

import oracles
from workloads import Op, Workload


# The 26-command list is run this many times with fresh draws: 104 commands
# a pass. The four moments sweeps, the costliest commands, are 3.8% of the
# executions, so op_tail_ms (p99) falls among them.
SESSIONS = 4


class _SameOutput:
    """Exit code 0 and stdout byte-identical to the first run of the command."""

    def __init__(self):
        self.first = None

    def __call__(self, result) -> bool:
        code, out = result
        if self.first is None:
            self.first = out
        return code == 0 and out == self.first


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _results(stdout: str, as_json: bool) -> dict:
    """The results section of a report, parsed from either rendering.

    JSON reports also carry their witnesses under the key "witnesses".
    """
    if as_json:
        report = json.loads(stdout)
        return {**report["results"], "witnesses": report.get("witnesses", {})}
    results, inside = {}, False
    for line in stdout.splitlines():
        if not line.startswith("  "):
            inside = line == "results:"
            continue
        if inside:
            key, _, value = line.strip().partition(" = ")
            results[key] = value
    return results


def _write_matrix(path: Path, A: np.ndarray) -> None:
    entries = [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in A]
    path.write_text(json.dumps({"n": len(entries), "entries": entries, "rho": 1.0}))


def _session(rng: random.Random, nrng: np.random.Generator, workdir: Path, session: int) -> list:
    """One pass of the command list: (argv, as_json, check of the parsed results)."""

    def pos():
        return Fraction(rng.randint(1, 9), rng.randint(1, 9))

    matrices = {}
    for name, sizes, group in (
        ("trivial", (1, 2, 3), "trivial"),
        ("s1", (2, 4), "unit_circle"),
        ("cx", (2, 3), "nonzero_complex"),
    ):
        A, blocks = oracles.stratum_matrix(sizes, group, nrng, perm=nrng.permutation(sum(sizes)))
        path = workdir / f"{name}-{session}.json"
        _write_matrix(path, A)
        matrices[name] = (str(path), A, blocks)

    commands = []

    def add(argv, as_json, check):
        commands.append((argv + (["--json"] if as_json else []), as_json, check))

    # threshold: both backends, the window chain, verdicts, empirical sharpness
    for N, backend, as_json in ((2, "exact", False), (3, "float", True)):
        c = [pos() for _ in range(N)]
        M = N + rng.randint(0, 3)
        rho = Fraction(rng.randint(1, 8), 4)
        C = oracles.threshold_constant(c, M, N, rho)
        chain = oracles.partial_chain(c, M, N, rho)
        argv = ["threshold", "--c", ",".join(map(str, c)), "--M", str(M), "--N", str(N),
                "--rho", str(rho), "--backend", backend]
        add(argv, as_json, _threshold_check(C, chain, backend))
        for factor, verdict in ((Fraction(1, 2), "admissible"), (1, "boundary"), (2, "inadmissible")):
            add(argv + [f"--cprime={-factor / C}"], not as_json, _verdict_check(verdict))
        add(argv + ["--empirical", "--grid", "40"], as_json, _empirical_check(C))

    # verify-identity: every family, on small sweeps, with their case counts.
    # Cauchy-Binet draws up to --max-m exponents from 0..9 per case: capped at
    # 3 and averaged over two trials, its cost no longer swings 5x with the seed.
    # The moments sweep (N = 1..4, M = N..4) solves by Cramer's rule, so it
    # takes exact determinants of sizes 1 to 4 (~35 ms a command).
    for which, extra, trials, cases, as_json in (
        ("pencil", ["--max-n", "1"], 1, 6, False),
        ("cauchy-binet", ["--max-n", "2", "--max-m", "3"], 2, 4, True),
        ("decomposition", ["--max-n", "2", "--max-m", "3"], 1, 8, False),
        ("moments", ["--max-n", "4", "--max-m", "4"], 1, 10, True),
    ):
        argv = ["verify-identity", "--which", which, "--trials", str(trials),
                "--seed", str(rng.randrange(2**31)), "--backend", "exact"] + extra
        add(argv, as_json, _identity_check(cases))

    # rayleigh: rank-one (with and without the corner probe) and a matrix file
    # coordinates at least 0.15 apart keep h_c[u u*] well conditioned, so the
    # three routes agree to 1e-7 (as in samplers.random_separated_complex)
    u2 = [complex(round(rng.uniform(0.6, 1.0), 3), round(rng.uniform(0.0, 0.4), 3))]
    u2.append(u2[0] - complex(round(rng.uniform(0.15, 0.4), 3), round(rng.uniform(0.15, 0.4), 3)))
    c2 = [pos() for _ in range(2)]
    M = 2 + rng.randint(0, 2)
    add(["rayleigh", "--c", ",".join(map(str, c2)), "--M", str(M), "--rank-one",
         ",".join(_complex_text(z) for z in u2)], False, _rank_one_check(c2, M, u2, probe=False))
    u3 = [round(rng.uniform(0.7, 1.0), 3)]
    for _ in range(2):
        u3.append(round(u3[-1] - rng.uniform(0.15, 0.25), 3))
    c3 = [pos() for _ in range(3)]
    M3 = 3 + rng.randint(0, 2)
    add(["rayleigh", "--c", ",".join(map(str, c3)), "--M", str(M3), "--rank-one",
         ",".join(map(str, u3)), "--probe-discontinuity"], True,
        _rank_one_check(c3, M3, [complex(x) for x in u3], probe=True))
    path, A, blocks = matrices["trivial"]
    c6 = [pos() for _ in range(6)]
    M6 = 6 + rng.randint(0, 2)
    ref = oracles.rayleigh_blocks([float(x) for x in c6], M6, A, blocks)
    add(["rayleigh", "--c", ",".join(map(str, c6)), "--M", str(M6), "--matrix", path], False,
        _close_check({"spectral_radius": ref, "variational": ref}))

    # stratify under all three groups
    for name, group, as_json in (("trivial", "trivial", False), ("s1", "s1", True), ("cx", "cx", False)):
        path, A, blocks = matrices[name]
        add(["stratify", "--matrix", path, "--group", group], as_json,
            _stratify_check(blocks, A.shape[0], kernel=name == "trivial"))

    # every experiment
    c = [pos() for _ in range(2)]
    M = 2 + rng.randint(0, 2)
    rho = Fraction(rng.randint(1, 8), 4)
    C = oracles.threshold_constant(c, M, 2, rho)
    add(["experiment", "sharpness", "--c", ",".join(map(str, c)), "--M", str(M), "--N", "2",
         "--rho", str(rho), "--grid", "40"], True, _sharpness_check(C))
    k = rng.randint(1, 9)
    rho = Fraction(rng.randint(1, 8), 4)
    C = oracles.threshold_constant([k, k], 2, 2, rho)
    add(["experiment", "horn-witness", "--c", f"{k},{k}", "--M", "2", "--N", "2", "--rho", str(rho),
         "--seed", str(rng.randrange(2**31))], True, _horn_check(k, float(C), float(rho)))
    alpha = round(rng.uniform(0.1, 0.9), 3)
    rho = Fraction(rng.randint(1, 8), 4)
    add(["experiment", "power-nonpreservation", "--N", "2", "--alpha", str(alpha), "--rho", str(rho),
         "--budget", "500", "--seed", str(rng.randrange(2**31))], True, _power_check(alpha, float(rho)))
    for target, source, group, as_json in (("1,2|3", "1|2|3", "trivial", False),
                                           ("1,2,3|4", "1,2|3|4", "s1", True)):
        add(["experiment", "closure-probe", "--target", target, "--source", source, "--group", group,
             "--steps", "6", "--seed", str(rng.randrange(2**31))], as_json, _closure_check)
    add(["experiment", "cross-dim", "--draws", "10", "--seed", str(rng.randrange(2**31))], False,
        _cross_dim_check)
    return commands


def build(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    commands = []
    for session in range(SESSIONS):
        commands += _session(rng, nrng, workdir, session)

    ops = [
        Op(f"cli/{i}/{argv[0]}", lambda argv=argv: _run(argv), _SameOutput())
        for i, (argv, _, _) in enumerate(commands)
    ]

    def deep_check(results) -> list[str]:
        problems = []
        for (argv, as_json, check), result in zip(commands, results):
            if isinstance(result, Exception) or result[0] != 0:
                continue  # reported as a failed operation
            try:
                ok = check(_results(result[1], as_json))
            except (KeyError, ValueError, TypeError) as exc:
                ok, argv = False, argv + [repr(exc)]
            if not ok:
                problems.append("entrywise " + " ".join(argv))
        return problems

    return Workload(ops, deep_check=deep_check)


def _complex_text(z: complex) -> str:
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"


def _num(value) -> float:
    return float(Fraction(value)) if isinstance(value, str) else float(value)


def _true(value) -> bool:
    return value is True or value == "True"


def _rel_close(a: float, b: float, rtol: float = 1e-9) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def _list(value):
    return json.loads(value) if isinstance(value, str) else value


def _threshold_check(C, chain, backend):
    def check(r):
        if backend == "exact":
            return Fraction(r["threshold_constant"]) == C and [Fraction(x) for x in _list(r["partial_chain"])] == chain
        return _rel_close(_num(r["threshold_constant"]), float(C)) and all(
            _rel_close(float(x), float(y)) for x, y in zip(_list(r["partial_chain"]), chain)
        )

    return check


def _verdict_check(verdict):
    return lambda r: r["verdict"] == verdict


def _empirical_check(C):
    # the rank-one grid supremum approaches C from below
    return lambda r: 0 < _num(r["empirical_sharpness"]) <= float(C) * (1 + 1e-9)


def _identity_check(cases):
    return lambda r: int(r["failures"]) == 0 and int(r["cases"]) == cases


def _rank_one_check(c, M, u, probe):
    cs = [float(x) for x in c]
    uu = np.asarray(u)
    A = np.outer(uu, uu.conj())
    H = sum(cj * np.power(A, j) for j, cj in enumerate(cs))
    ref = oracles.rayleigh_on(np.power(A, M), H, np.eye(len(u)))
    expect = {"spectral_radius": ref, "variational": ref, "rank_one_closed_form": ref}
    if probe:
        rho = float(np.max(np.abs(A)))
        # at rho * all-ones the kernel complement is the constant vector
        expect["probe_on_point"] = rho**M / sum(cj * rho**j for j, cj in enumerate(cs))
    return _close_check(expect)


def _close_check(expect, rtol=1e-7):
    return lambda r: all(_rel_close(_num(r[k]), v, rtol) for k, v in expect.items())


def _stratify_check(blocks, N, kernel):
    text = "|".join(",".join(str(i + 1) for i in b) for b in sorted(blocks))

    def check(r):
        ok = r["partition"] == text and int(r["block_count"]) == len(blocks) and _true(r["offdiagonal_ok"])
        if kernel:
            ok = ok and int(r["kernel_dim"]) == N - len(blocks) == int(r["block_kernel_dim"])
            ok = ok and _num(r["kernel_max_angle"]) < 1e-6
        return ok

    return check


def _sharpness_check(C):
    return lambda r: _rel_close(_num(r["closed_form"]), float(C)) and _num(r["empirical"]) <= float(C) * (1 + 1e-9)


def _witness(r):
    return np.asarray(r["witnesses"]["matrix"], dtype=float) if _true(r["witness_found"]) else None


def _horn_check(k, C, rho):
    f = {0: float(k), 1: float(k), 2: -1.05 / C}
    return lambda r: oracles.is_witness(f, _witness(r), rho)


def _power_check(alpha, rho):
    return lambda r: oracles.is_power_witness(_witness(r), alpha, rho) and int(r["dimension"]) == 3


def _closure_check(r):
    return _true(r["path_in_source"]) and _true(r["limit_in_target"])


def _cross_dim_check(r):
    return int(r["chain_violations"]) == 0 and int(r["cross_dim_violations"]) == 0 and int(r["draws"]) == 10
