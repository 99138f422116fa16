#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on the tiny ``smoke-so6`` input.

    python3 perfbench/smoke.py

Checks that BENCHMARK.json lists the metrics run.py and tracing.py produce;
that run.py prints every end-to-end metric and the failed share by name with
its unit (and with ``--trace 1`` every per-layer metric) and counts no
failure on a correct run;
that a report with one tampered counterexample rank raises the failed share
above 0; and that without goverify's sources run.py exits non-zero without a
result.  Exits 0 when all hold.
"""

import json
import shutil
import subprocess
import sys
import time

from run import END_TO_END, HERE, ROOT, spawn
from tracing import LAYER_METRICS
from workloads import WORKLOADS

SMOKE = ["--workload", "smoke-so6", "--seed", "1", "--seconds", "1"]


def bench(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_printed(proc, expected: list[tuple[str, str]]) -> list[str]:
    errors = []
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"] or result["failed"] != 0:
        errors.append(f"run failed: exit {proc.returncode}, {lines[-1][:200]}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if sorted(result["metrics"]) != sorted(name for name, _ in expected):
        errors.append(f"metrics printed: {sorted(result['metrics'])}")
    human = lines[:-1]
    for name, unit in expected:
        if result["metrics"].get(name, {}).get("unit") != unit:
            errors.append(f"{name}: unit {result['metrics'].get(name)} instead of {unit}")
        if not any(line.split()[:1] == [name] and line.split()[2] == unit for line in human):
            errors.append(f"{name} [{unit}] missing from the human-readable lines")
    return errors


def main() -> int:
    errors = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != END_TO_END:
        errors.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != \
            [(name, unit) for name, unit, _ in LAYER_METRICS]:
        errors.append("BENCHMARK.json per_layer differs from tracing.LAYER_METRICS")
    errors += [f"unknown workload {w['name']}" for w in spec["workloads"]
               if w["name"] not in WORKLOADS]

    plain = bench(*SMOKE, "--trace", "0")
    errors += check_printed(plain, END_TO_END)
    if not any(line.split()[:1] == ["failed_share"] for line in plain.stdout.splitlines()):
        errors.append("failed_share missing from the human-readable lines")
    errors += check_printed(bench(*SMOKE, "--trace", "1"),
                            [(name, unit) for name, unit, _ in LAYER_METRICS])

    tampered, _ = spawn("workload", "smoke-so6", 1, time.monotonic() + 170, "--tamper")
    if not tampered.get("failed", 0) / max(tampered.get("attempted", 0), 1) > 0:
        errors.append(f"tampered counterexample not counted as failed: {tampered}")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(*SMOKE, "--trace", "0", cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout[:200]!r}")
    shutil.rmtree(bare)

    for e in errors:
        print(f"FAIL {e}")
    print("smoke: " + ("FAIL" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
