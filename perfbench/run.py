#!/usr/bin/env python3
"""The goverify benchmark: one workload and one seed per invocation.

    python3 perfbench/run.py --workload sweep-so6 --seed 3 --seconds 20 --trace 0

Every sample is a fresh single-threaded Python process (``child.py``),
started one at a time against the checkout's own ``src/goverify``, so import
cost and goverify's per-algebra memo start cold, as they do for a command-line
user.  A run starts one import-only warm-up process (it fills the file
cache), ``SETUP_SAMPLES`` set-up-only processes, and then workload
processes until another one would end after ``--seconds``; it always runs at
least one.  All workload processes of a run use the same seed, so their
machine reports must be byte-identical.

Times are reference seconds of ``speed.SpeedProbe``: wall time rescaled to
an uncontended core by a speed probe that runs inside every process, because
on a shared VM raw wall times swing by a quarter from one minute to the next.
Raw wall medians and the probe's median slow-down are printed beside them.
Children run with ``PYTHONHASHSEED=0``, so set and dict order, and with it
the work, is the same in every process, and with ``PYTHONDONTWRITEBYTECODE=1``,
so every import of ``src/goverify`` compiles it, whatever the checkout holds.
Metrics are medians over the processes of the run.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` also runs one traced workload process and
prints the per-layer metrics of ``tracing.LAYER_METRICS``, writing its spans to
``perfbench/out/``.  Operations are check records, sweep tuples, replayed
certificates and report comparisons; a wrong result, a differing report or a
crashed process counts as a failed operation.  The last stdout line is the
JSON result; the lines before it show every metric with its unit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("replay_s", "s"), ("peak_rss_mb", "MiB")]
SETUP_SAMPLES = 2
DEADLINE_S = 170  # the whole invocation, children included


def spawn(mode: str, workload: str, seed: int, deadline: float, *extra: str) -> tuple[dict, float]:
    """Run one child process to completion; returns its result and wall time."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), mode, workload, str(seed), repr(spawned), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} process timed out", "attempted": 1, "failed": 1}, \
            time.monotonic() - spawned
    took = time.monotonic() - spawned
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {"error": f"{mode} process exited {proc.returncode} without a result",
                  "attempted": 1, "failed": 1}
    if "error" in result:
        sys.stderr.write(proc.stderr[-4000:])
    return result, took


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "goverify" / "__init__.py").is_file():
        print(f"error: no goverify sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    run = [args.workload, args.seed, deadline]

    results = [spawn("import", *run)[0]]
    results += [spawn("setup", *run)[0] for _ in range(SETUP_SAMPLES)]
    workload: list[dict] = []
    start = time.monotonic()
    while True:
        result, took = spawn("workload", *run)
        workload.append(result)
        if "error" in result or time.monotonic() - start + took > args.seconds:
            break
    traced = None
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        traced, _ = spawn("workload", *run, "--trace", str(spans))
    results += workload + ([traced] if traced else [])

    attempted = sum(r.get("attempted", 0) for r in results)
    failed = sum(r.get("failed", 0) for r in results)
    problems = [r["error"] for r in results if "error" in r]
    problems += [p for r in results for p in r.get("problems", [])]
    hashes = [r["sha256"] for r in workload + [traced] if r and "sha256" in r]
    for h in hashes[1:]:
        attempted += 1
        if h != hashes[0]:
            failed += 1
            problems.append("machine reports of the same seed differ")
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)

    timed = [r for r in workload if "run_s" in r]
    if not timed or (traced is not None and "layers" not in traced):
        print("error: no workload process finished", file=sys.stderr)
        return 1
    untraced = [r for r in results if r is not traced]
    samples = {name: [r for r in (untraced if name == "setup_s" else timed) if name in r]
               for name, _unit in END_TO_END}
    metrics = {name: statistics.median(r[name] for r in rs) for name, rs in samples.items()}

    print(f"goverify benchmark: workload {args.workload}, seed {args.seed}, "
          f"{SETUP_SAMPLES} set-up and {len(workload)} workload processes"
          + (", 1 traced" if traced else ""))
    for name, unit in END_TO_END:
        rs = samples[name]
        wall = name[:-2] + "_wall_s"
        extra = f", wall {statistics.median(r[wall] for r in rs):.4f} s" if wall in rs[0] else ""
        print(f"  {name:<14} {metrics[name]:12.4f} {unit:<3} median of {len(rs)}{extra}")
    slowdowns = [r["slowdown"] for r in untraced if "slowdown" in r]
    print(f"  {'slowdown':<14} {statistics.median(slowdowns):12.4f} x   median probe time "
          f"over the reference, {len(slowdowns)} processes")
    print(f"  {'failed_share':<14} {failed / max(attempted, 1):12.4f} 1   "
          f"{failed} of {attempted} operations failed")
    units = {name: unit for name, unit in END_TO_END}
    if traced:
        layers = dict(traced["layers"])
        layers["cli.import_s"] = statistics.median(
            [r["import_s"] for r in results if "import_s" in r])
        layers["trace.overhead_s"] = traced["run_s"] - metrics["run_s"]
        if traced.get("absent"):
            print(f"  absent from goverify: {', '.join(traced['absent'])}")
        print(f"  per layer, from the traced process (spans in {spans.relative_to(ROOT)}):")
        for name, unit, _moves in LAYER_METRICS:
            print(f"  {name:<44} {layers[name]:12.4f} {unit}")
        metrics = {name: layers[name] for name, _unit, _moves in LAYER_METRICS}
        units = {name: unit for name, unit, _moves in LAYER_METRICS}
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
