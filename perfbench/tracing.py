"""Spans around goverify's layers, installed from outside the package.

:meth:`Tracer.install` replaces each function in :data:`WRAPPED` by a timing
wrapper in every ``goverify.*`` module namespace that binds it (so
``scenarios.is_regular`` and ``go.equivariance_check`` are traced too), and
replaces the listed methods on their classes.  A span is ``[name, start, end,
parent]`` in ``time.monotonic()`` seconds, kept in memory; :meth:`Tracer.dump`
writes them as JSONL.  Metrics and the dump take a clock that maps those
readings to another time base (child.py passes the speed probe's reference
clock).  A name the package no longer defines is recorded as absent and its
metrics read 0.
"""

import contextlib
import functools
import json
import sys
import time

# module -> public functions and Class.method names to wrap
WRAPPED = {
    "lie": ["build_classical", "embed_so_partition",
            "StructureAlgebra.validate", "StructureAlgebra.bracket"],
    "subspaces": ["rank_estimate", "normalizer", "centralizer_in", "ideal_decomposition",
                  "is_regular", "orthogonal_complement", "centralizer_in_complement"],
    "reps": ["symmetric_commutant", "isotypic_decomposition", "is_weakly_regular",
             "intertwiner_space", "criterion_weak_regularity"],
    "metrics": ["metric_from_blocks", "isometry_subalgebra", "dazi_structure_check",
                "equivariance_check", "bi_invariance_check"],
    "go": ["go_verdict", "go_solve_at", "normalizer_equivariance_check",
           "natred_condition_check", "split_check", "replay_certificate",
           "replay_counterexample", "hypothesis_flags"],
    "arith": ["clear_denominators", "from_ints", "exact_matmul", "exact_tensordot",
              "nullspace_exact", "solve_linear", "rank_exact"],
    "report": ["Report.to_machine", "parse_machine"],
    "scenarios": ["build_scenario", "run_check", "replay_report"],
}

MODULES = tuple(WRAPPED)

# Per-layer metrics: (name, unit, the end-to-end metric and workload it should move).
# ``<fn>.calls`` counts calls, ``<fn>.s`` is total time (nested calls of the
# same function counted once), ``<fn>.self_s`` excludes time in other wrapped
# functions, and ``<module>.self_s`` sums the self time of a module's spans.
LAYER_METRICS = [
    ("cli.import_s", "s", "setup_s, all workloads: the sympy and scipy imports"),
    ("lie.build_classical.s", "s", "setup_s, all workloads"),
    ("lie.validate.calls", "count", "setup_s all; run_s and replay_s on pipeline-so9"),
    ("lie.validate.s", "s", "setup_s all; run_s and replay_s on pipeline-so9"),
    ("lie.bracket.calls", "count", "run_s on sweep-so6; replay_s"),
    ("lie.bracket.s", "s", "run_s on sweep-so6; replay_s"),
    ("lie.self_s", "s", "setup_s, all workloads"),
    ("subspaces.rank_estimate.calls", "count", "run_s on pipeline-so9; ~0 on the sweeps"),
    ("subspaces.rank_estimate.s", "s", "run_s on pipeline-so9; ~0 on the sweeps"),
    ("subspaces.normalizer.calls", "count", "run_s on pipeline-so9"),
    ("subspaces.normalizer.s", "s", "run_s on pipeline-so9"),
    ("subspaces.centralizer_in.s", "s", "run_s on pipeline-so9"),
    ("subspaces.ideal_decomposition.calls", "count", "run_s and peak_rss_mb on sweep-so8"),
    ("subspaces.ideal_decomposition.s", "s", "run_s and peak_rss_mb on sweep-so8"),
    ("subspaces.self_s", "s", "run_s on pipeline-so9 and sweep-so8"),
    ("reps.symmetric_commutant.calls", "count", "run_s and peak_rss_mb on sweep-so8"),
    ("reps.symmetric_commutant.s", "s", "run_s and peak_rss_mb on sweep-so8"),
    ("reps.isotypic_decomposition.s", "s", "run_s on pipeline-so9"),
    ("reps.is_weakly_regular.s", "s", "run_s on pipeline-so9"),
    ("reps.intertwiner_space.s", "s", "run_s on pipeline-so9"),
    ("reps.self_s", "s", "run_s on sweep-so8 and pipeline-so9"),
    ("metrics.metric_from_blocks.calls", "count", "run_s on the sweeps; replay_s on sweep-so6"),
    ("metrics.metric_from_blocks.s", "s", "run_s on the sweeps; replay_s on sweep-so6"),
    ("metrics.isometry_subalgebra.calls", "count", "run_s on the sweeps"),
    ("metrics.isometry_subalgebra.s", "s", "run_s on the sweeps"),
    ("metrics.isometry_subalgebra.calls_per_tuple", "calls/tuple",
     "run_s on the sweeps (2.0 at the baseline; 0 without sweep tuples)"),
    ("metrics.dazi_structure_check.s", "s", "run_s on the sweeps and pipeline-so9"),
    ("metrics.equivariance_check.calls", "count", "run_s, all workloads"),
    ("metrics.equivariance_check.s", "s", "run_s, all workloads"),
    ("metrics.self_s", "s", "run_s on the sweeps"),
    ("go.go_verdict.calls", "count", "run_s on sweep-so6"),
    ("go.go_verdict.s", "s", "run_s on sweep-so6"),
    ("go.go_solve_at.calls", "count", "run_s on sweep-so6"),
    ("go.go_solve_at.s", "s", "run_s on sweep-so6"),
    ("go.go_solve_at.self_s", "s", "run_s on sweep-so6"),
    ("go.directions_per_verdict", "dirs/verdict", "run_s on sweep-so6"),
    ("go.normalizer_equivariance_check.s", "s", "run_s on sweep-so8"),
    ("go.natred_condition_check.s", "s", "run_s on pipeline-so9"),
    ("go.split_check.s", "s", "run_s on pipeline-so9 and the sweeps"),
    ("go.replay_certificate.calls", "count", "replay_s on pipeline-so9"),
    ("go.replay_certificate.s", "s", "replay_s on pipeline-so9"),
    ("go.replay_counterexample.calls", "count", "replay_s on the sweeps"),
    ("go.replay_counterexample.s", "s", "replay_s on the sweeps"),
    ("go.self_s", "s", "run_s on sweep-so6"),
    ("arith.clear_denominators.calls", "count", "run_s, mostly on sweep-so6"),
    ("arith.clear_denominators.s", "s", "run_s, mostly on sweep-so6"),
    ("arith.from_ints.calls", "count", "run_s, mostly on sweep-so6"),
    ("arith.from_ints.s", "s", "run_s, mostly on sweep-so6"),
    ("arith.exact_matmul.calls", "count", "run_s, mostly on sweep-so6"),
    ("arith.exact_matmul.s", "s", "run_s, mostly on sweep-so6"),
    ("arith.nullspace_exact.calls", "count", "run_s, mostly on sweep-so6"),
    ("arith.nullspace_exact.s", "s", "run_s, mostly on sweep-so6"),
    ("arith.solve_linear.calls", "count", "run_s, mostly on sweep-so6"),
    ("arith.solve_linear.s", "s", "run_s, mostly on sweep-so6"),
    ("arith.rank_exact.calls", "count", "run_s and replay_s, mostly on sweep-so6"),
    ("arith.rank_exact.s", "s", "run_s and replay_s, mostly on sweep-so6"),
    ("arith.self_s", "s", "run_s, all workloads"),
    ("report.to_machine.s", "s", "run_s, all workloads"),
    ("report.parse_machine.s", "s", "replay_s, all workloads"),
    ("scenarios.build_scenario.calls", "count", "setup_s, run_s and replay_s"),
    ("scenarios.build_scenario.s", "s", "setup_s, run_s and replay_s"),
    ("scenarios.run_check.self_s", "s", "run_s, all workloads"),
    ("scenarios.replay_report.s", "s", "replay_s, all workloads"),
    ("scenarios.self_s", "s", "run_s and replay_s"),
    ("trace.spans", "count", "none: how much the traced run recorded"),
    ("trace.overhead_s", "s", "none: traced run_s minus the untraced median"),
]


class Tracer:
    """In-memory spans of one process; single-threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.wrapped: list[str] = []
        self.absent: list[str] = []

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around the caller's code."""
        stack, spans = self._stack, self.spans
        span = [name, time.monotonic(), 0.0, stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(span)
        try:
            yield
        finally:
            span[2] = time.monotonic()
            stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every name in :data:`WRAPPED`; goverify must be imported already."""
        namespaces = [m for key, m in sys.modules.items()
                      if m is not None and (key == "goverify" or key.startswith("goverify."))]
        for module_name, names in WRAPPED.items():
            module = sys.modules.get(f"goverify.{module_name}")
            for qual in names:
                name = f"{module_name}.{qual.split('.')[-1]}"
                owner, attr = (module, qual) if "." not in qual else \
                    (getattr(module, qual.split(".")[0], None), qual.split(".")[1])
                original = vars(owner).get(attr) if owner is not None else None
                if not callable(original):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, original)
                if owner is not module:
                    setattr(owner, attr, wrapper)
                else:
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is original:
                                setattr(ns, key, wrapper)
                self.wrapped.append(name)

    def dump(self, path, header: dict, clock) -> None:
        """Write a header line, then one line per span with ``clock`` times."""
        origin = clock(self.spans[0][1]) if self.spans else 0.0
        with open(path, "w") as out:
            out.write(json.dumps({**header, "wrapped": self.wrapped,
                                  "absent": self.absent}) + "\n")
            for name, start, end, parent in self.spans:
                out.write(json.dumps({"name": name, "start": clock(start) - origin,
                                      "end": clock(end) - origin, "parent": parent}) + "\n")

    def layer_metrics(self, tuples: int, clock) -> dict[str, float]:
        """Every :data:`LAYER_METRICS` value derivable from the spans.

        ``tuples`` is the number of sweep tuples of the traced run, the base of
        ``metrics.isometry_subalgebra.calls_per_tuple``; durations are
        differences of ``clock`` readings.
        """
        spans = [(name, clock(start), clock(end), parent)
                 for name, start, end, parent in self.spans]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        in_run = {}
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
            ancestors = set()
            p = parent
            while p >= 0:
                ancestors.add(spans[p][0])
                p = spans[p][3]
            if name not in ancestors:
                total[name] = total.get(name, 0.0) + (end - start)
            if "phase.run" in ancestors:
                in_run[name] = in_run.get(name, 0) + 1
        values = {}
        for metric, _unit, _moves in LAYER_METRICS:
            head, _, field = metric.rpartition(".")
            if field in ("calls", "s", "self_s") and head.count(".") == 1:
                values[metric] = {"calls": calls, "s": total,
                                  "self_s": self_s}[field].get(head, 0)
            elif metric.endswith(".self_s") and head in MODULES:
                values[metric] = sum(v for k, v in self_s.items()
                                     if k.startswith(head + "."))
        values["metrics.isometry_subalgebra.calls_per_tuple"] = \
            in_run.get("metrics.isometry_subalgebra", 0) / tuples if tuples else 0.0
        verdicts = calls.get("go.go_verdict", 0)
        values["go.directions_per_verdict"] = \
            calls.get("go.go_solve_at", 0) / verdicts if verdicts else 0.0
        values["trace.spans"] = len(spans)
        return values
