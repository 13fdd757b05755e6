#!/usr/bin/env python3
"""Generate a matrix inside a chosen orbit stratum, then walk to a coarser one.

Demonstrates the closure geometry: a path of matrices staying in the finer
stratum converges (in Frobenius distance) to a matrix of the coarser stratum.
Partitions use the 1-based text form, e.g. "1,2|3,4" for {{1,2},{3,4}}.
"""

import argparse

from entrywise.cli import GROUPS
from entrywise.experiments import ClosureProbeConfig, run_closure_probe
from entrywise.matrixio import parse_partition
from entrywise.report import partition_to_text
from entrywise.strata import generate_in_stratum, simultaneous_kernel, stratify


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--source", default="1|2|3,4", help="finer stratum (path lives here)")
    ap.add_argument("--target", default="1,2|3,4", help="coarser stratum (path limit)")
    ap.add_argument("--group", choices=sorted(GROUPS), default="trivial")
    ap.add_argument("--steps", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    source = parse_partition(args.source)
    target = parse_partition(args.target)
    group = GROUPS[args.group]

    A = generate_in_stratum(target, group, seed=args.seed)
    pi = stratify(A, group)
    K = simultaneous_kernel(A)
    print(f"representative of {partition_to_text(pi)}: kernel dim {K.dim}\n")

    out = run_closure_probe(
        ClosureProbeConfig(target=target, source=source, group=group,
                           steps=args.steps, seed=args.seed)
    )
    print(f"{'frobenius dist':>16}  stratum")
    for row in out["rows"]:
        print(f"{row['distance']:>16.6e}  {partition_to_text(row['stratum'])}")
    print(f"\npath stayed in source stratum: {out['path_in_source']}")
    print(f"limit lies in target stratum:  {out['limit_in_target']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
