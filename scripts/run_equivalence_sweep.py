#!/usr/bin/env python3
"""Equivalence sweep experiment: witness solvability vs. normal form.

For each seeded parameter tuple of a block metric on so(n) with a product
partition, decide geodesic-orbit (sampled, with exact disproofs) relative to
the metric's isometry subalgebra and compare with the naturally reductive
normal-form recognition.  Prints the agreement table and writes the machine
report.

Usage: python scripts/run_equivalence_sweep.py --n 6 --partition 2,2,2 \\
           --tuples 200 --seed 0 --out sweep_so6.jsonl
"""

import argparse
import sys
import time
from pathlib import Path

from goverify.scenarios import ScenarioSpec, run_check


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--partition", required=True)
    parser.add_argument("--tuples", type=int, default=200)
    parser.add_argument("--samples", type=int, default=24)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = ScenarioSpec(
        name=f"sweep-so{args.n}",
        algebra={"family": "so", "n": args.n},
        subgroup={"partition": [int(p) for p in args.partition.split(",")]},
        metric={"grid": {"tuples": args.tuples}},
        checks=("validate", "sweep"),
        samples=args.samples, seed=args.seed)
    start = time.time()
    report = run_check(spec)
    elapsed = time.time() - start
    record = next(r for r in report.records if r["name"] == "sweep")
    by_kind: dict[str, list] = {}
    for tup in record["tuples"]:
        by_kind.setdefault(tup["kind"], []).append(tup)
    print(f"sweep so({args.n}) partition {args.partition}: {record['count']} tuples "
          f"in {elapsed:.1f}s, disagreements={record['disagreements']}")
    for kind, tuples in sorted(by_kind.items()):
        nd = sum(1 for t in tuples if t["go"] == "NotDisproved")
        print(f"  {kind:>10}: {len(tuples):3} tuples, {nd:3} NotDisproved, "
              f"{len(tuples) - nd:3} Disproved")
    if args.out:
        args.out.write_text(report.to_machine())
        print(f"machine report -> {args.out}")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
