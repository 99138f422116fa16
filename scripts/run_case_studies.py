#!/usr/bin/env python3
"""Run every catalog scenario and write machine reports.

Usage: python scripts/run_case_studies.py [--outdir reports/] [--smoke]

--smoke shrinks the parameter grids so the whole catalog finishes in a few
minutes; without it the full grids (200 tuples per partition) run.
"""

import argparse
import sys
import time
from pathlib import Path

from goverify.scenarios import ScenarioSpec, run_check, scenario_catalog, with_sweep_tuples


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--outdir", type=Path, default=Path("reports"))
    parser.add_argument("--smoke", action="store_true", help="shrink grids to 12 tuples")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    worst = 0
    for name, spec in sorted(scenario_catalog().items()):
        obj = spec.to_obj()
        if args.seed is not None:
            obj["seed"] = args.seed
        spec = ScenarioSpec.from_obj(obj)
        if args.smoke:
            spec = with_sweep_tuples(spec, 12)
        start = time.time()
        report = run_check(spec)
        elapsed = time.time() - start
        path = args.outdir / f"{name}.jsonl"
        path.write_text(report.to_machine())
        print(f"{name}: exit {report.exit_code}, {len(report.records)} records, "
              f"{elapsed:.1f}s -> {path}")
        worst = max(worst, report.exit_code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
