"""Closed-loop benchmark of the entrywise package: one workload, one seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread: each operation is one call into entrywise on inputs
this benchmark generated from --seed, and starts when the previous one ends.
A run makes an untimed warm pass, then whole passes over the same operation
list until --seconds have elapsed, then checks the outputs against
independent computations. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics` (end-to-end metrics with
--trace 0, per-layer metrics from a traced run with --trace 1).
See perfbench/README.md for the definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up samples per run; setup_s is their median.
SETUP_PROBES = 9
# Every operation runs at least this often, however long the passes take, so
# that its fastest run is the fastest of several.
MIN_PASSES = 5
# op_tail_ms is this percentile of all timed executions; a run makes enough
# passes to leave at least TAIL_BEYOND executions beyond it.
TAIL_PCT = 99
TAIL_BEYOND = 10


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=tuple(workloads.MODULES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--blas-threads",
        type=int,
        default=1,
        help="BLAS threads for this process (default 1; see README)",
    )
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _pin_blas(threads: int) -> None:
    # Must run before numpy is imported: OpenBLAS reads these once, at load.
    # With its default of one thread per core on a 2-core machine, an 80x80
    # complex eigh spiked to 312 ms against a 1.5 ms median (see README).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def _import_program():
    """Import entrywise from this checkout's src/, never from elsewhere."""
    if not (SRC / "entrywise" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no entrywise package under {SRC}")
    sys.path.insert(0, str(SRC))
    import entrywise

    if Path(entrywise.__file__).resolve().parent != (SRC / "entrywise").resolve():
        raise SystemExit(f"perfbench: imported entrywise from {entrywise.__file__}")


def _setup_probe(args) -> int:
    """Child process: import and build inputs, then report readiness."""
    workdir = OUT / f"probe-{os.getpid()}"
    try:
        _import_program()
        workloads.build(args.workload, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


def _measure_setup(args) -> float:
    """Median, over fresh processes, of the time from spawn to first operation."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", "0",
        "--blas-threads", str(args.blas_threads),
        "--setup-probe",
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if code != 0 or line.strip() != b"ready":
            raise SystemExit(f"perfbench: set-up probe failed with exit code {code}")
        samples.append(elapsed)
    return statistics.median(samples)


def _rank(pct: int, n: int) -> int:
    """1-based nearest rank of percentile `pct` among n values."""
    return max(1, math.ceil(pct * n / 100))


def min_passes(ops: int) -> int:
    """Passes needed for MIN_PASSES and for TAIL_BEYOND executions beyond the tail."""
    executions = math.ceil(TAIL_BEYOND * 100 / (100 - TAIL_PCT))
    return max(MIN_PASSES, math.ceil(executions / ops))


class Runner:
    """Runs whole passes over a workload's operation list and tallies outcomes."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.passes = 0
        # samples[i][p]: wall time of operation i in timed pass p
        self.samples: list[list[float]] = [[] for _ in wl.ops]

    def _outcome(self, op, result, error) -> None:
        if error is None and op.check(result):
            return
        if not op.known_fault:
            detail = f"raised {error!r}" if error is not None else "wrong result"
            self.unexpected.append(f"{op.name}: {detail}")
        self.failed += 1

    def warm(self) -> list:
        """Untimed first pass; its results feed the deep correctness checks."""
        results = []
        for op in self.wl.ops:
            try:
                results.append(op.call())
            except Exception as exc:  # reported as a failed operation
                results.append(exc)
        return results

    def timed_pass(self, on_op=None) -> None:
        clock = time.perf_counter
        for op, samples in zip(self.wl.ops, self.samples):
            error = result = None
            if on_op is not None:
                on_op(op)
            start = clock()
            try:
                result = op.call()
            except Exception as exc:  # counted in failed, never hidden
                error = exc
            elapsed = clock() - start
            if on_op is not None:
                on_op(None)
            samples.append(elapsed)
            self.attempted += 1
            self._outcome(op, result, error)
        self.passes += 1

    def run_for(self, seconds: float, min_passes: int, on_op=None) -> None:
        end = time.perf_counter() + seconds
        done = self.passes
        while self.passes - done < min_passes or time.perf_counter() < end:
            self.timed_pass(on_op)

    def best(self, first_pass: int = 0) -> list[float]:
        """Each operation's latency: its fastest timed run from `first_pass` on.

        Other tenants of the machine only ever slow a call down, by up to
        ~30% over seconds; the fastest of many repeats is the least disturbed.
        """
        return [min(s[first_pass:]) for s in self.samples]


def _end_to_end(runner: Runner, setup_s: float, rss_mb: float) -> dict:
    best = runner.best()
    executions = sorted(x for s in runner.samples for x in s)
    rank = _rank(TAIL_PCT, len(executions))
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(best) / sum(best), "unit": "1/s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(best), "unit": "ms"},
        "op_tail_ms": {"value": 1e3 * executions[rank - 1], "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.blas_threads < 1:
        raise SystemExit("perfbench: --blas-threads must be positive")
    _pin_blas(args.blas_threads)
    if args.setup_probe:
        return _setup_probe(args)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    _import_program()

    setup_s = None if args.trace else _measure_setup(args)
    workdir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        runner = Runner(wl)
        warm_results = runner.warm()
        if args.trace:
            import tracer

            metrics = tracer.traced_run(runner, wl, args, OUT)
        else:
            runner.run_for(args.seconds, min_passes(len(wl.ops)))
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = _end_to_end(runner, setup_s, rss_mb)
        problems = list(runner.unexpected[:20])
        for op, result in zip(wl.ops, warm_results):
            if isinstance(result, Exception) or not op.check(result):
                if not op.known_fault:
                    problems.append(f"warm pass: {op.name}: {result!r}"[:300])
        problems += wl.deep_check(warm_results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in problems:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
