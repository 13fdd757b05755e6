"""Two sets of benchmark runs of one commit, and whether they agree.

    python3 perfbench/compare.py [--workloads a,b,...]

Runs perfbench/run.py ten times per workload in each of two sets, each run
with its own seed (set A: 1..10, set B: 101..110), with the run length from
BENCHMARK.json, interleaving workloads so that drift of the machine's speed
spreads over all of them. --workloads defaults to those of BENCHMARK.json
and may name any workload run.py knows. For every end-to-end metric it
prints each set's median and spread (the distance between the first and
third quartile, as a share of the median) and checks, with the bounds of
BENCHMARK.json:

  - every spread, setup_s's included, is within the metric's bound;
  - the two sets' medians differ, either way, by at most the bound;
  - every run is correct, and the share of failed operations is the same in
    every run.

Each run's result is appended to perfbench/out/compare-runs.jsonl as it
ends. Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED_BASE = {"A": 1, "B": 101}
RUNS = 10


def _run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=None, help="comma-separated; default all")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    sets = list(SEED_BASE)
    log = HERE / "out" / "compare-runs.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)

    results = {(s, w): [] for s in sets for w in workloads}
    for s in sets:
        for i in range(RUNS):
            for w in workloads:
                seed = SEED_BASE[s] + i
                out = _run(w, seed, bench["run_seconds"])
                results[(s, w)].append(out)
                with open(log, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps({"set": s, "workload": w, "seed": seed, **out}) + "\n")
                print(f"set {s} run {i + 1}/{RUNS} {w}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in out["metrics"].items()), flush=True)

    ok = True
    print(f"\n{'workload':18s} {'metric':12s} {'bound':>6s}  " + "  ".join(
        f"{'median ' + s:>12s} {'spread':>7s}" for s in sets) + "  verdict")
    for w in workloads:
        shares = {Fraction(r["failed"], r["attempted"]) for s in sets for r in results[(s, w)]}
        correct = all(r["correct"] for s in sets for r in results[(s, w)])
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cols, medians, verdict = [], [], []
            for s in sets:
                values = [r["metrics"][name]["value"] for r in results[(s, w)]]
                medians.append(statistics.median(values))
                sp = spread(values)
                cols.append(f"{medians[-1]:12.5g} {sp:7.3f}")
                if sp > bound:
                    verdict.append(f"spread {s} > bound")
                elif sp > bound / 3:
                    verdict.append(f"spread {s} > bound/3")
            change = (medians[1] - medians[0]) / medians[0]
            if abs(change) > bound:
                verdict.append(f"medians differ by {change:+.3f}")
            failing = [v for v in verdict if "bound/3" not in v]
            ok = ok and not failing
            print(f"{w:18s} {name:12s} {bound:6.2f}  " + "  ".join(cols) + "  " + (", ".join(verdict) or "ok"))
        print(f"{w:18s} correct={correct} failed shares={sorted(str(x) for x in shares)}")
        ok = ok and correct and len(shares) == 1
    print("\nAGREE" if ok else "\nDISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
