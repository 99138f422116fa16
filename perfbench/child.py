"""One measured goverify process; run.py starts a fresh one for every sample.

    python3 child.py <mode> <workload> <seed> <spawn_time> [--trace FILE] [--tamper]

``spawn_time`` is the parent's ``time.monotonic()`` just before it started
this interpreter, so ``setup_s`` covers interpreter start, ``import
goverify.cli`` and ``build_scenario``.  Modes: ``import`` (stop after the
import), ``setup`` (stop after the build) and ``workload`` (also
``run_check`` to the machine report, and the workload's ``replays`` times
``replay_report`` on its bytes; each replay builds the scenario afresh, so
each starts cold).
``--trace`` wraps goverify's layers and writes the spans to FILE;
``--tamper`` corrupts one counterexample before the replay (smoke test only).
Durations are in reference seconds of ``speed.SpeedProbe``; the ``*_wall_s``
values are the same spans in wall seconds.  The last stdout line is one JSON
object.
"""

import contextlib
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from speed import SpeedProbe


def measure(mode, workload, seed, trace_file, tamper, out, spans):
    """Run one sample, adding ``(start, end)`` monotonic readings to ``spans[metric]``."""
    t0 = time.monotonic()
    import goverify.cli  # noqa: F401  (what the command line pays before any work)
    from goverify import scenarios
    spans["import_s"].append((t0, time.monotonic()))
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(goverify.cli.__file__).resolve().parents:
        raise RuntimeError(f"goverify imported from {goverify.cli.__file__}, not {src}")
    if mode == "import":
        return None

    tracer = None
    if trace_file:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    spec = scenarios.ScenarioSpec(**workloads.spec_kwargs(workload, seed))
    scenarios.build_scenario(spec)
    spans["setup_s"][0] = (spans["setup_s"][0][0], time.monotonic())
    if mode == "setup":
        return None

    phase = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    t0 = time.monotonic()
    with phase("phase.run"):
        text = scenarios.run_check(spec).to_machine()
    spans["run_s"].append((t0, time.monotonic()))
    replayed = workloads.tamper(text) if tamper else text
    replays = []
    for _ in range(workloads.WORKLOADS[workload]["replays"]):
        t0 = time.monotonic()
        with phase("phase.replay"):
            replays.append(scenarios.replay_report(replayed))
        spans["replay_s"].append((t0, time.monotonic()))
    out.update(peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               sha256=hashlib.sha256(text.encode()).hexdigest())
    attempted, failed, problems = workloads.check_report(workload, text)
    for replay in replays:
        a, f, p = workloads.check_replay(text, replay)
        attempted, failed, problems = attempted + a, failed + f, problems + p
    out.update(attempted=attempted, failed=failed, problems=problems)
    return tracer, text


def main(argv) -> int:
    probe = SpeedProbe()
    probe.start()
    mode, workload, seed, spawned = argv[1], argv[2], int(argv[3]), float(argv[4])
    trace_file = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    out = {"mode": mode}
    # setup_s runs from the parent's spawn to the built scenario; its end is set then
    spans = {"import_s": [], "setup_s": [(spawned, None)], "run_s": [], "replay_s": []}
    traced = None
    code = 0
    try:
        traced = measure(mode, workload, seed, trace_file, "--tamper" in argv, out, spans)
    except Exception as exc:  # reported to run.py, which counts it as a failed operation
        traceback.print_exc()
        out.update(error=f"{type(exc).__name__}: {exc}",
                   attempted=out.get("attempted", 0) + 1, failed=out.get("failed", 0) + 1)
        code = 1
    probe.stop()
    for name, done in spans.items():
        done = [(a, b) for a, b in done if b is not None]
        if done:  # a metric of several spans is their median
            out[name] = statistics.median(probe.elapsed(a, b) for a, b in done)
            out[name[:-2] + "_wall_s"] = statistics.median(probe.wall(a, b) for a, b in done)
    out["slowdown"] = probe.slowdown()
    if traced is not None and traced[0] is not None:
        tracer, text = traced
        tuples = workloads.sweep_tuples(workloads.report_records(text))
        out["layers"] = tracer.layer_metrics(tuples, probe.reference)
        out["absent"] = tracer.absent
        tracer.dump(trace_file, {"workload": workload, "seed": seed}, probe.reference)
    print(json.dumps(out))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
